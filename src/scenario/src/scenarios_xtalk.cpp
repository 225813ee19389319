/// Coupled-line crosstalk scenarios on the ANALYTICAL path: the modal
/// engine (symmetric_bus -> modal_decomposition -> Euler-inverted scalar
/// transfers) produces every number, and the mini-SPICE coupled-ladder MNA
/// reference rides along as an in-table cross-check column.  The fourth
/// scenario exercises the noise-constrained (h, k) optimizer.
///
/// All four run at the paper's operating point — RC-optimal segmentation
/// and sizing on the quiet-neighbour effective line, l = 1 nH/mm — at both
/// technology nodes.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/core/exact_delay.hpp"
#include "rlc/core/optimize_api.hpp"
#include "rlc/ringosc/coupled_bus.hpp"
#include "rlc/scenario/registry.hpp"
#include "rlc/tline/coupled_line.hpp"

namespace rlc::scenario {

namespace {

using namespace rlc::core;

constexpr double kXtalkL = 1.0e-6;  ///< 1 nH/mm, the coupled test length

/// One coupled configuration: technology node + coupling strengths.
struct XtalkConfig {
  std::string tech_name;
  double ccf = 0.0;  ///< cc as a fraction of the self capacitance
  double km = 0.0;
};

/// Everything the analytical engine needs for one configuration.
struct XtalkPoint {
  Technology tech;
  tline::LineParams line;
  tline::CoupledLine bus;
  double cc = 0.0, km = 0.0;
  double h = 0.0, k = 0.0;
  double tau = 0.0;  ///< search/time scale (quiet-neighbour two-pole delay)
};

XtalkPoint make_point(const XtalkConfig& cfg) {
  XtalkPoint p{technology_by_name(cfg.tech_name),
               {},
               {},
               0.0,
               cfg.km,
               0.0,
               0.0,
               0.0};
  p.line = p.tech.line(kXtalkL);
  p.cc = cfg.ccf * p.line.c;
  p.bus = tline::symmetric_bus(p.line, p.cc, p.km, 2);
  const auto rc = rc_optimum(p.tech.rep, p.tech.r, p.tech.c);
  p.h = rc.h;
  p.k = rc.k;
  tline::LineParams eff = p.line;
  eff.c += 2.0 * p.cc;
  const auto d = segment_delay(p.tech.rep, eff, p.h, p.k);
  p.tau = d.converged ? d.tau : rc.tau;
  return p;
}

std::vector<XtalkConfig> xtalk_configs(bool quick) {
  if (quick) return {{"100nm", 0.3, 0.3}, {"250nm", 0.25, 0.0}};
  return {{"250nm", 0.25, 0.0},
          {"250nm", 0.3, 0.3},
          {"100nm", 0.25, 0.0},
          {"100nm", 0.3, 0.3}};
}

/// MNA resolution: the full grid reproduces the integration-test reference
/// (converged to ~1e-3); quick trades accuracy for CI wall time, and the
/// validator relaxes the rel-err bound accordingly.
void mna_resolution(bool quick, int* steps, int* nseg) {
  *steps = quick ? 1200 : 9000;
  *nseg = quick ? 16 : 96;
}

double interp(const std::vector<double>& ts, const std::vector<double>& vs,
              double t) {
  const auto it = std::lower_bound(ts.begin(), ts.end(), t);
  if (it == ts.begin()) return vs.front();
  if (it == ts.end()) return vs.back();
  const std::size_t i = static_cast<std::size_t>(it - ts.begin());
  const double w = (t - ts[i - 1]) / (ts[i] - ts[i - 1]);
  return vs[i - 1] + w * (vs[i] - vs[i - 1]);
}

/// Geometric probe grid over the response (0.3..8 tau), the same shape the
/// integration cross-check uses.
std::vector<double> probe_times(double tau) {
  std::vector<double> ts;
  for (double m = 0.3; m <= 8.0; m *= 1.25) ts.push_back(m * tau);
  return ts;
}

/// Max |analytic - MNA| over the probe grid for conductor `w` (the
/// excitation swing is 1 V, so this IS the relative error).
double waveform_rel_err(const XtalkPoint& p, const CoupledExcitation& exc,
                        std::size_t w, const ringosc::CoupledStepResult& mna,
                        const std::vector<double>& times) {
  const auto analytic = exact_coupled_step_response(
      p.bus, p.h, p.tech.rep.scaled(p.k), exc, times);
  double worst = 0.0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double ref = interp(mna.time, mna.far_end[w], times[i]);
    worst = std::max(worst, std::abs(analytic[w][i] - ref));
  }
  return worst;
}

/// Interpolated first crossing of `level` in an MNA far-end trace (rising);
/// negative when never crossed.
double mna_crossing(const ringosc::CoupledStepResult& mna, std::size_t w,
                    double level) {
  const auto& v = mna.far_end[w];
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] >= level && v[i - 1] < level) {
      const double frac = (level - v[i - 1]) / (v[i] - v[i - 1]);
      return mna.time[i - 1] + frac * (mna.time[i] - mna.time[i - 1]);
    }
  }
  return -1.0;
}

ringosc::CoupledStepResult run_mna(const XtalkPoint& p,
                                   const CoupledExcitation& exc, double tstop,
                                   bool quick) {
  int steps = 0, nseg = 0;
  mna_resolution(quick, &steps, &nseg);
  return ringosc::run_coupled_step(p.tech, {p.cc, p.km}, kXtalkL, p.h, p.k,
                                   exc.initial, exc.target, tstop, steps,
                                   nseg);
}

void fill_coupling(ScenarioResult& res, const std::vector<XtalkConfig>& cfgs,
                   double worst_peak, double worst_width) {
  res.coupling.n_conductors = 2;
  // Representative (strongest) coupling of the run.
  for (const auto& c : cfgs) {
    const auto tech = technology_by_name(c.tech_name);
    res.coupling.cc = std::max(res.coupling.cc, c.ccf * tech.line(kXtalkL).c);
    res.coupling.km = std::max(res.coupling.km, c.km);
  }
  res.coupling.peak_noise = worst_peak;
  res.coupling.noise_width = worst_width;
}

// ---------------------------------------------------------------------------
// xtalk_quiet: victim noise, analytical vs MNA.

ScenarioResult xtalk_quiet(const ScenarioSpec& spec, ScenarioContext& ctx) {
  ScenarioResult res;
  const auto cfgs = xtalk_configs(spec.quick);

  struct Row {
    CoupledNoiseResult noise;
    double mna_peak = 0.0, rel_err = 0.0;
    bool ok = false;
  };
  const auto rows =
      rlc::exec::parallel_map(ctx.pool_ref(), cfgs, [&](const XtalkConfig& c) {
        const rlc::exec::StopWatch sw;
        Row row;
        const XtalkPoint p = make_point(c);
        const CoupledExcitation exc{{0.0, 0.0}, {1.0, 0.0}};
        row.noise = exact_coupled_victim_noise(p.bus, p.h,
                                               p.tech.rep.scaled(p.k), exc,
                                               /*victim=*/1, p.tau);
        const auto mna = run_mna(p, exc, 10.0 * p.tau, spec.quick);
        if (mna.completed) {
          for (double v : mna.far_end[1]) {
            row.mna_peak = std::max(row.mna_peak, std::abs(v));
          }
          row.rel_err = waveform_rel_err(p, exc, 1, mna, probe_times(p.tau));
          row.ok = true;
        }
        if (ctx.counters) ctx.counters->record_wall(sw.seconds());
        return row;
      });

  Table t("Quiet-victim noise: modal engine vs coupled-ladder MNA "
          "(l = 1 nH/mm, RC-optimal h/k)",
          {"tech", "cc/c", "km", "peak (V)", "t_peak (ps)", "width (ps)",
           "MNA peak (V)", "wave rel err"});
  double worst_err = 0.0, worst_peak = 0.0, worst_width = 0.0;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const Row& row = rows[i];
    if (!row.ok) continue;
    t.row({cfgs[i].tech_name, cfgs[i].ccf, cfgs[i].km, row.noise.peak,
           row.noise.t_peak * 1e12, row.noise.width * 1e12, row.mna_peak,
           row.rel_err});
    worst_err = std::max(worst_err, row.rel_err);
    if (row.noise.peak > worst_peak) {
      worst_peak = row.noise.peak;
      worst_width = row.noise.width;
    }
  }
  res.tables.push_back(std::move(t));
  res.metric("max_wave_rel_err", worst_err);
  fill_coupling(res, cfgs, worst_peak, worst_width);
  res.note(
      "Expected shape: victim noise grows with cc/c; inductive coupling "
      "(km > 0) partially cancels the capacitive pulse.  The rel-err column "
      "is the max |analytic - MNA| over a geometric probe grid per unit "
      "swing; full runs must stay within 5e-3 (the converged-ladder "
      "agreement the integration tests pin).");
  return res;
}

// ---------------------------------------------------------------------------
// xtalk_inphase / xtalk_antiphase: switching-delay spread vs the quiet
// baseline (the Miller-range experiment on the analytical path).

struct DelayRow {
  double d_pattern = 0.0;  ///< aggressor 50% delay under the pattern [s]
  double d_quiet = 0.0;    ///< quiet-victim baseline [s]
  double mna_delay = 0.0;  ///< MNA crossing under the pattern [s]
  double rel_err = 0.0;    ///< waveform rel err of the aggressor trace
  bool ok = false;
};

DelayRow delay_row(const XtalkConfig& c, const CoupledExcitation& pattern,
                   bool quick) {
  DelayRow row;
  const XtalkPoint p = make_point(c);
  const auto dl = p.tech.rep.scaled(p.k);
  const auto d_pat =
      exact_coupled_threshold_delay(p.bus, p.h, dl, pattern, 0, p.tau, 0.5);
  const CoupledExcitation quiet{{0.0, 0.0}, {1.0, 0.0}};
  const auto d_q =
      exact_coupled_threshold_delay(p.bus, p.h, dl, quiet, 0, p.tau, 0.5);
  if (!d_pat || !d_q) return row;
  row.d_pattern = *d_pat;
  row.d_quiet = *d_q;
  const auto mna = run_mna(p, pattern, 12.0 * p.tau, quick);
  if (!mna.completed) return row;
  row.mna_delay = mna_crossing(mna, 0, 0.5);
  row.rel_err = waveform_rel_err(p, pattern, 0, mna, probe_times(p.tau));
  row.ok = row.mna_delay > 0.0;
  return row;
}

ScenarioResult xtalk_switching(const ScenarioSpec& spec, ScenarioContext& ctx,
                               bool antiphase) {
  ScenarioResult res;
  const auto cfgs = xtalk_configs(spec.quick);
  const CoupledExcitation pattern =
      antiphase ? CoupledExcitation{{0.0, 1.0}, {1.0, 0.0}}
                : CoupledExcitation{{0.0, 0.0}, {1.0, 1.0}};

  const auto rows =
      rlc::exec::parallel_map(ctx.pool_ref(), cfgs, [&](const XtalkConfig& c) {
        const rlc::exec::StopWatch sw;
        DelayRow row = delay_row(c, pattern, spec.quick);
        if (ctx.counters) ctx.counters->record_wall(sw.seconds());
        return row;
      });

  const char* dcol = antiphase ? "d_anti (ps)" : "d_inphase (ps)";
  Table t(std::string(antiphase ? "Anti-phase" : "In-phase") +
              " switching delay vs quiet baseline (l = 1 nH/mm)",
          {"tech", "cc/c", "km", dcol, "d_quiet (ps)", "MNA d (ps)",
           "wave rel err"});
  double worst_err = 0.0;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const DelayRow& row = rows[i];
    if (!row.ok) continue;
    t.row({cfgs[i].tech_name, cfgs[i].ccf, cfgs[i].km, row.d_pattern * 1e12,
           row.d_quiet * 1e12, row.mna_delay * 1e12, row.rel_err});
    worst_err = std::max(worst_err, row.rel_err);
  }
  res.tables.push_back(std::move(t));
  res.metric("max_wave_rel_err", worst_err);
  fill_coupling(res, cfgs, 0.0, 0.0);
  res.note(antiphase
               ? "Expected shape (km = 0 rows): anti-phase switching sees the "
                 "full Miller-doubled coupling capacitance, so d_quiet <= "
                 "d_anti.  Inductive coupling (km > 0) acts oppositely "
                 "(anti-phase loops see L(1-km)) and can reverse the order."
               : "Expected shape (km = 0 rows): in-phase neighbours cancel "
                 "the coupling capacitance, so d_inphase <= d_quiet.  "
                 "km > 0 rows: in-phase loops see L(1+km), which erodes or "
                 "reverses the speedup.");
  return res;
}

ScenarioResult xtalk_inphase(const ScenarioSpec& spec, ScenarioContext& ctx) {
  return xtalk_switching(spec, ctx, /*antiphase=*/false);
}

ScenarioResult xtalk_antiphase(const ScenarioSpec& spec,
                               ScenarioContext& ctx) {
  return xtalk_switching(spec, ctx, /*antiphase=*/true);
}

// ---------------------------------------------------------------------------
// xtalk_noise_opt: the noise-constrained optimizer at both nodes.

ScenarioResult xtalk_noise_opt(const ScenarioSpec& spec,
                               ScenarioContext& ctx) {
  ScenarioResult res;
  struct OptCase {
    std::string tech_name;
    double vmax = 0.0;
  };
  std::vector<OptCase> cases;
  const std::vector<std::string> techs =
      spec.quick ? std::vector<std::string>{"250nm"}
                 : std::vector<std::string>{"250nm", "100nm"};
  for (const auto& tn : techs) {
    cases.push_back({tn, 0.9});   // generous budget: constraint inactive
    cases.push_back({tn, 0.10});  // tight budget: constraint active
  }

  struct Row {
    OptimizeResponse r;
    bool ok = false;
  };
  const auto rows =
      rlc::exec::parallel_map(ctx.pool_ref(), cases, [&](const OptCase& oc) {
        const rlc::exec::StopWatch sw;
        Row row;
        const auto tech = technology_by_name(oc.tech_name);
        OptimizeRequest req;
        req.l = kXtalkL;
        req.conductors = 2;
        req.coupling_cc = 0.3 * tech.line(kXtalkL).c;
        req.coupling_km = 0.3;
        req.constraints.noise_vmax = oc.vmax;
        req.optim = spec.optim_options();
        rlc::StatusOr<OptimizeResponse> resp = optimize(tech, req);
        if (resp.is_ok()) {
          row.r = *resp;
          row.ok = true;
        } else if (resp.status().code() !=
                   rlc::StatusCode::kNoConvergence) {
          throw std::runtime_error("noise-budgeted solve: " +
                                   resp.status().to_string());
        }
        if (ctx.counters) ctx.counters->record_wall(sw.seconds());
        return row;
      });

  Table t("Noise-constrained (h, k): delay cost of a crosstalk budget "
          "(cc/c = 0.3, km = 0.3, l = 1 nH/mm)",
          {"tech", "vmax (V)", "h (mm)", "k", "delay/len (ps/mm)",
           "peak noise (V)", "active"});
  double worst_peak = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Row& row = rows[i];
    if (!row.ok) continue;
    t.row({cases[i].tech_name, cases[i].vmax, row.r.sizing.h * 1e3,
           row.r.sizing.k, row.r.sizing.delay_per_length * 1e9,
           row.r.peak_noise, row.r.noise_constraint_active ? 1 : 0});
    worst_peak = std::max(worst_peak, row.r.peak_noise);
  }
  res.tables.push_back(std::move(t));
  // Delay cost of the active budget per technology (the headline number).
  for (const auto& tn : techs) {
    double free_dpl = 0.0, tight_dpl = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (cases[i].tech_name != tn || !rows[i].ok) continue;
      (cases[i].vmax > 0.5 ? free_dpl : tight_dpl) =
          rows[i].r.sizing.delay_per_length;
    }
    if (free_dpl > 0.0 && tight_dpl > 0.0) {
      res.metric("noise_penalty_pct_" + tn,
                 100.0 * (tight_dpl / free_dpl - 1.0));
    }
  }
  res.coupling.n_conductors = 2;
  res.coupling.km = 0.3;
  for (const auto& tn : techs) {
    res.coupling.cc = std::max(
        res.coupling.cc, 0.3 * technology_by_name(tn).line(kXtalkL).c);
  }
  res.coupling.peak_noise = worst_peak;
  res.note(
      "Every row satisfies peak_noise <= vmax.  The inactive-budget rows "
      "are bitwise the unconstrained optimum on the quiet-neighbour "
      "effective line; the active rows buy the budget by upsizing the "
      "repeaters (larger k, slightly longer h) at the delay cost the "
      "noise_penalty_pct metrics record.");
  return res;
}

}  // namespace

void register_xtalk_scenarios(ScenarioRegistry& r) {
  r.add({"xtalk_quiet",
         "Quiet-victim crosstalk noise: modal engine vs coupled-ladder MNA",
         "extension", {}, xtalk_quiet, "noise"});
  r.add({"xtalk_inphase",
         "In-phase switching delay vs quiet baseline (analytical, MNA check)",
         "extension", {}, xtalk_inphase, "noise"});
  r.add({"xtalk_antiphase",
         "Anti-phase switching delay vs quiet baseline (analytical, MNA "
         "check)",
         "extension", {}, xtalk_antiphase, "noise"});
  r.add({"xtalk_noise_opt",
         "Noise-constrained (h, k) optimization: delay cost of a noise "
         "budget",
         "extension", {}, xtalk_noise_opt, "noise"});
}

}  // namespace rlc::scenario
