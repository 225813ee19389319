#pragma once

/// \file status_boundary.hpp
/// Internal (src-only) helper of the checked optimize() entry points: run a
/// body and convert every escape hatch into a typed Status, per the
/// boundary rule of DESIGN.md "Errors".  No exception crosses a function
/// that returns StatusOr.

#include <stdexcept>

#include "rlc/base/cancel.hpp"
#include "rlc/base/status.hpp"

namespace rlc::core::internal {

template <typename T, typename Body>
rlc::StatusOr<T> at_boundary(Body&& body) {
  try {
    return body();
  } catch (const rlc::CancelledError& e) {
    return e.to_status();
  } catch (const rlc::NoConvergenceError& e) {
    return e.to_status();
  } catch (const std::invalid_argument& e) {
    return rlc::Status::invalid_argument(e.what());
  } catch (const std::domain_error& e) {
    return rlc::Status::invalid_argument(e.what());
  } catch (const std::exception& e) {
    return rlc::Status::internal(e.what());
  }
}

}  // namespace rlc::core::internal
