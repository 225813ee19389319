/// RC extraction from geometry: compute per-unit-length r and c for a
/// top-metal bus cross-section using the extraction substrate (sheet
/// resistance, BEM capacitance).  l is not extracted: it depends on the
/// unknown current return path, which is why the paper treats it as a
/// parameter swept over 0..5 nH/mm.
///
///   $ ./extract_rlc [width_um] [pitch_um] [thickness_um] [height_um] [eps_r]

#include <cstdio>
#include <cstdlib>

#include "rlc/extract/bem2d.hpp"
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

  std::printf("\nl is not extracted: it depends on the current return path "
              "(Section 1.1),\nso the optimization study sweeps l over "
              "0..5 nH/mm.\n");
  return 0;
}
