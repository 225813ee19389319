#include "rlc/spice/device.hpp"

#include <stdexcept>

namespace rlc::spice {

void Stamper::append(int row, int col, double value) {
  triplets_->push_back({row, col, value});
}

void Device::stamp_ac(const AcContext& ctx, AcStamper& st) const {
  (void)ctx;
  (void)st;
  throw std::logic_error("device '" + name_ + "' has no AC (small-signal) model");
}

}  // namespace rlc::spice
