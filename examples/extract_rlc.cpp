/// RLC extraction from geometry: compute per-unit-length r, l, c for a
/// top-metal bus cross-section using the extraction substrate (BEM
/// capacitance, partial/loop inductance, sheet resistance), then show the
/// inductance *uncertainty* caused by the unknown current return path —
/// the reason the paper treats l as a swept parameter.
///
///   $ ./extract_rlc [width_um] [pitch_um] [thickness_um] [height_um] [eps_r]

#include <cstdio>
#include <cstdlib>

#include "rlc/extract/bem2d.hpp"
#include "rlc/extract/inductance.hpp"
#include "rlc/extract/resistance.hpp"
#include "rlc/math/constants.hpp"

int main(int argc, char** argv) {
  using namespace rlc::extract;

  const double w = (argc > 1 ? std::atof(argv[1]) : 2.0) * 1e-6;
  const double pitch = (argc > 2 ? std::atof(argv[2]) : 4.0) * 1e-6;
  const double t = (argc > 3 ? std::atof(argv[3]) : 2.5) * 1e-6;
  const double h = (argc > 4 ? std::atof(argv[4]) : 15.4) * 1e-6;
  const double er = argc > 5 ? std::atof(argv[5]) : 2.0;

  std::printf("Wire: %.1f x %.1f um, pitch %.1f um, %.1f um above substrate, "
              "eps_r %.1f\n\n", w * 1e6, t * 1e6, pitch * 1e6, h * 1e6, er);

  // --- Resistance ---
  const double r = resistance_per_length(rlc::math::kRhoCopper, w, t);
  std::printf("r (bulk Cu):              %7.2f Ohm/mm\n", r * 1e-3);
  std::printf("r (+30%% barrier/liner):   %7.2f Ohm/mm\n", 1.3 * r * 1e-3);

  // --- Capacitance: 2D BEM ---
  Bem2dOptions opts;
  opts.eps_r = er;
  opts.panels_per_side = 16;
  const auto bus = parallel_bus(3, w, t, pitch, h);
  const auto cmat = capacitance_matrix(bus, opts);
  const double c_bem = cmat(1, 1);
  const double cc = -cmat(1, 0);  // coupling to one neighbour
  const double cg = c_bem - 2.0 * cc;
  std::printf("\nc (2D BEM, middle wire):  %7.1f pF/m  (ground %.1f + 2 x %.1f coupling)\n",
              c_bem * 1e12, cg * 1e12, cc * 1e12);

  // --- Inductance: the return-path problem ---
  std::printf("\nl depends on the current return path (Section 1.1):\n");
  std::printf("  return in adjacent wire (pitch):        %6.2f nH/mm\n",
              loop_inductance_wire_pair(w, t, pitch) * 1e6);
  std::printf("  return in substrate plane (h):          %6.2f nH/mm\n",
              loop_inductance_over_plane(w, t, h) * 1e6);
  std::printf("  return in a quiet wire 100 um away:     %6.2f nH/mm\n",
              loop_inductance_wire_pair(w, t, 100e-6) * 1e6);
  std::printf("  return in a quiet wire 500 um away:     %6.2f nH/mm\n",
              loop_inductance_wire_pair(w, t, 500e-6) * 1e6);
  std::printf("  partial self (10 mm segment, no return):%6.2f nH/mm\n",
              partial_self_per_length(10e-3, w, t) * 1e6);
  std::printf("\nThis order-of-magnitude spread is why the optimization study sweeps\n"
              "l over 0..5 nH/mm instead of fixing a single extracted value.\n");
  return 0;
}
