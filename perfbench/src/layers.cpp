/// pb_layers — layer probes for the benchmark.  Each subcommand calls one
/// layer's public functions on the benchmark's own inputs, times the calls
/// with its own spans and prints ONE JSON object on stdout.  Nothing here
/// reaches inside the library; it only uses what the headers export.
///
///   pb_layers stamp                    version, simd level, compiler
///   pb_layers grid-check FILE          brute-force (h, k) grid vs answers;
///                                      FILE lines: class \t request \t response
///   pb_layers io REQUESTS RESPONSES    io::parse_json + QueryRequest::from_json
///                                      and QueryResult::to_json().str() spans
///   pb_layers tline                    BatchTransferEvaluator on a fixed
///                                      48-point Talbot contour (100 nm optimum)
///   pb_layers ring THREADS             simulate_ring spans on the Figure 11
///                                      grid, the ring MNA fixture through
///                                      run_transient, SparseLU spans on its
///                                      matrix, RC / RLC known-answer fixtures

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rlc/analysis/signal_metrics.hpp"
#include "rlc/base/simd.hpp"
#include "rlc/base/version.hpp"
#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/core/power.hpp"
#include "rlc/core/technology.hpp"
#include "rlc/io/json.hpp"
#include "rlc/io/json_reader.hpp"
#include "rlc/laplace/talbot.hpp"
#include "rlc/linalg/sparse.hpp"
#include "rlc/linalg/sparse_lu.hpp"
#include "rlc/ringosc/inverter.hpp"
#include "rlc/ringosc/ladder.hpp"
#include "rlc/ringosc/ring.hpp"
#include "rlc/spice/circuit.hpp"
#include "rlc/spice/device.hpp"
#include "rlc/spice/transient.hpp"
#include "rlc/svc/query.hpp"
#include "rlc/tline/batch_evaluator.hpp"
#include "rlc/tline/transfer.hpp"

#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using rlc::core::Technology;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median seconds per call of `fn` over `reps` timed calls.
double time_median(int reps, const std::function<void()>& fn) {
  std::vector<double> s;
  s.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    s.push_back(seconds_since(t0));
  }
  return median(std::move(s));
}

Technology tech_named(const std::string& name) {
  if (name == "250nm") return Technology::nm250();
  if (name == "100nm") return Technology::nm100();
  throw std::invalid_argument("unknown technology " + name);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t tab = line.find('\t', start);
    out.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return out;
    start = tab + 1;
  }
}

std::vector<double> log_axis(double ref, double lo, double hi, int n) {
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) {
    v[i] = ref * lo * std::pow(hi / lo, static_cast<double>(i) / (n - 1));
  }
  return v;
}

// ---------------------------------------------------------------------------

int cmd_stamp() {
  rlc::io::Json j;
  j.set("version", rlc::version());
  j.set("simd", rlc::simd::active_level_name());
  j.set("compiler", PB_COMPILER);
  // Per-technology wire capacitance and supply: the workload generator
  // scales coupling_cc and noise_vmax by them.
  for (const char* name : {"100nm", "250nm"}) {
    const Technology t = tech_named(name);
    rlc::io::Json tj;
    tj.set("c", t.c);
    tj.set("vdd", t.vdd);
    j.set(name, tj);
  }
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Brute-force (h, k) grid: the answer must do no worse than every point of
// an 81 x 81 log grid, within kGridTol.  Delay-objective scalar answers are
// compared on delay per length over a wide box around the RC optimum; power
// answers on total power over the solver's own domain box (h in
// [0.25, 4] h_opt, k in [0.125, 2] k_opt) among the points that meet the
// delay slack.

constexpr int kGridPoints = 81;
constexpr double kGridTol = 1e-3;

double grid_dpl(const Technology& tech, double l, double f, double h,
                double k) {
  rlc::core::DelayOptions o;
  o.f = f;
  const auto d = rlc::core::segment_delay(tech.rep, tech.line(l), h, k, o);
  return d.converged && d.tau > 0.0 ? d.tau / h : INFINITY;
}

int cmd_grid_check(const std::string& path) {
  int checked = 0, failed = 0;
  double worst = 0.0;
  rlc::io::JsonArray rows;
  for (const std::string& line : read_lines(path)) {
    const auto parts = split_tabs(line);
    if (parts.size() != 3) throw std::runtime_error("grid-check: bad line");
    const std::string& cls = parts[0];
    const auto req = rlc::io::parse_json(parts[1]);
    const auto resp = rlc::io::parse_json(parts[2]);
    const auto* res = resp.find("result");
    if (res == nullptr) continue;
    const Technology tech = tech_named(req.string_or("technology", "100nm"));
    const double l = req.number_or("l", 0.0);
    const double f = req.number_or("threshold", 0.5);
    const double h = res->number_or("h", 0.0), k = res->number_or("k", 0.0);
    double excess = 0.0;
    bool ok = true;
    if (cls == "power") {
      const double eps = req.number_or("delay_slack_eps", 0.05);
      rlc::core::OptimOptions oo;
      oo.f = f;
      const auto opt = rlc::core::optimize_rlc(tech, l, oo);
      const double bound = (1.0 + eps) * res->number_or("delay_ref", 0.0);
      double best = INFINITY;
      for (double gh : log_axis(opt.h, 0.25, 4.0, kGridPoints)) {
        for (double gk : log_axis(opt.k, 0.125, 2.0, kGridPoints)) {
          if (grid_dpl(tech, l, f, gh, gk) <= bound) {
            best = std::min(best, rlc::core::chain_power_per_length(tech, gh, gk));
          }
        }
      }
      const double p = res->number_or("power_total", INFINITY);
      excess = std::isfinite(best) ? p / best - 1.0 : 0.0;
      ok = excess <= kGridTol &&
           res->number_or("delay_per_length", INFINITY) <= bound * (1 + 1e-9);
    } else {
      const auto rc = rlc::core::rc_optimum(tech);
      double best = INFINITY;
      for (double gh : log_axis(rc.h, 0.2, 5.0, kGridPoints)) {
        for (double gk : log_axis(rc.k, 0.05, 2.0, kGridPoints)) {
          best = std::min(best, grid_dpl(tech, l, f, gh, gk));
        }
      }
      const double reported = res->number_or("delay_per_length", INFINITY);
      const double recomputed = grid_dpl(tech, l, f, h, k);
      excess = reported / best - 1.0;
      ok = excess <= kGridTol &&
           std::abs(recomputed / reported - 1.0) <= 1e-6;
    }
    ++checked;
    if (!ok) ++failed;
    worst = std::max(worst, excess);
    rlc::io::Json r;
    r.set("class", cls);
    r.set("excess", excess);
    r.set("ok", ok);
    rows.push(r);
  }
  rlc::io::Json j;
  j.set("checked", checked);
  j.set("failed", failed);
  j.set("worst_excess", worst);
  j.set("tolerance", kGridTol);
  j.set("rows", rows);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// io layer: parse and render spans on the workload's own lines.

rlc::svc::QueryResult result_from_json(const rlc::io::JsonValue& r) {
  rlc::svc::QueryResult q;
  q.h = r.number_or("h", 0.0);
  q.k = r.number_or("k", 0.0);
  q.tau = r.number_or("tau", 0.0);
  q.delay_per_length = r.number_or("delay_per_length", 0.0);
  q.total_delay = r.number_or("total_delay", 0.0);
  q.has_exact = r.find("exact_delay") != nullptr;
  q.exact_delay = r.number_or("exact_delay", 0.0);
  q.has_noise = r.find("peak_noise") != nullptr;
  q.peak_noise = r.number_or("peak_noise", 0.0);
  q.noise_width = r.number_or("noise_width", 0.0);
  q.constraint_active = r.bool_or("constraint_active", false);
  q.has_power = r.find("power_total") != nullptr;
  q.power_total = r.number_or("power_total", 0.0);
  q.power_dynamic = r.number_or("power_dynamic", 0.0);
  q.power_short_circuit = r.number_or("power_short_circuit", 0.0);
  q.power_leakage = r.number_or("power_leakage", 0.0);
  q.delay_ref = r.number_or("delay_ref", 0.0);
  q.power_ref = r.number_or("power_ref", 0.0);
  q.power_constraint_active = r.bool_or("power_constraint_active", false);
  q.newton_iterations = static_cast<int>(r.int_or("newton_iterations", 0));
  q.method = r.string_or("method", "");
  q.from_cache = r.bool_or("from_cache", false);
  q.wall_seconds = r.number_or("wall_seconds", 0.0);
  return q;
}

int cmd_io(const std::string& req_path, const std::string& resp_path) {
  std::vector<std::string> requests;
  for (const std::string& line : read_lines(req_path)) {
    requests.push_back(split_tabs(line).back());
  }
  std::vector<rlc::svc::QueryResult> results;
  for (const std::string& line : read_lines(resp_path)) {
    const auto v = rlc::io::parse_json(split_tabs(line).back());
    if (const auto* r = v.find("result")) results.push_back(result_from_json(*r));
  }
  std::vector<double> parse_us, render_us;
  std::size_t sink = 0, bad = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::string& line : requests) {
      const auto t0 = Clock::now();
      const auto v = rlc::io::parse_json(line);
      const auto q = rlc::svc::QueryRequest::from_json(v);
      parse_us.push_back(seconds_since(t0) * 1e6);
      if (!q.is_ok()) ++bad;
    }
    for (const auto& r : results) {
      const auto t0 = Clock::now();
      const std::string s = r.to_json().str();
      render_us.push_back(seconds_since(t0) * 1e6);
      sink += s.size();
    }
  }
  rlc::io::Json j;
  j.set("parse_us", median(parse_us));
  j.set("render_us", median(render_us));
  j.set("requests", static_cast<long long>(requests.size()));
  j.set("results", static_cast<long long>(results.size()));
  j.set("rejected", static_cast<long long>(bad / 3));
  j.set("bytes", static_cast<long long>(sink));
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// tline layer: the SoA transfer kernel on a fixed 48-node Talbot contour at
// the 100 nm delay optimum (l = 1 nH/mm).

int cmd_tline() {
  const Technology tech = Technology::nm100();
  const double l = 1e-6;
  const auto opt = rlc::core::optimize_rlc(tech, l);
  const rlc::tline::DriverLoad dl{tech.rep.rs / opt.k, tech.rep.cp * opt.k,
                                  tech.rep.c0 * opt.k};
  rlc::tline::BatchTransferEvaluator ev(tech.line(l), opt.h, dl);
  std::vector<double> s_re, s_im;
  auto capture = [&](const double* re, const double* im, double* f_re,
                     double* f_im, std::size_t n) {
    s_re.assign(re, re + n);
    s_im.assign(im, im + n);
    ev.step(re, im, f_re, f_im, n);
  };
  const rlc::laplace::TalbotContour contour(capture, 2.0 * opt.tau, 48);
  const std::size_t n = s_re.size();
  std::vector<double> f_re(n), f_im(n);
  constexpr int kInner = 200;
  const double per_batch = time_median(101, [&] {
    for (int i = 0; i < kInner; ++i) {
      ev.step(s_re.data(), s_im.data(), f_re.data(), f_im.data(), n);
    }
  });
  // The kernel must agree with the per-point dc-safe Eq. (1), normwise
  // over the contour (far-left nodes carry values near underflow).
  double max_diff = 0.0, max_ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::complex<double> s(s_re[i], s_im[i]);
    const auto ref = rlc::tline::exact_transfer_dc_safe(tech.line(l), opt.h, dl, s) / s;
    max_diff = std::max(max_diff,
                        std::abs(std::complex<double>(f_re[i], f_im[i]) - ref));
    max_ref = std::max(max_ref, std::abs(ref));
  }
  const double rel_err = max_diff / max_ref;
  rlc::io::Json j;
  j.set("batch_eval_ns", per_batch / kInner * 1e9);
  j.set("nodes", static_cast<long long>(n));
  j.set("max_rel_err", rel_err);
  j.set("ok", n == 48 && rel_err <= 1e-9);
  j.set("simd", rlc::simd::active_level_name());
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// ring / spice / linalg layers.

struct GridPoint {
  const char* tech;
  double l;
};

const std::vector<GridPoint>& fig11_grid() {
  static const std::vector<GridPoint> g = {
      {"100nm", 0.2e-6}, {"100nm", 0.8e-6}, {"100nm", 1.4e-6},
      {"100nm", 1.8e-6}, {"100nm", 2.0e-6}, {"100nm", 2.2e-6},
      {"100nm", 2.6e-6}, {"100nm", 3.5e-6}, {"100nm", 5.0e-6},
      {"250nm", 0.2e-6}, {"250nm", 1.0e-6}, {"250nm", 2.0e-6},
      {"250nm", 3.5e-6}, {"250nm", 5.0e-6}};
  return g;
}

// Figure 11's ring: 5 stages, 12 ladder segments, h and k at the RC optimum.
rlc::ringosc::RingParams fig11_params(const Technology& tech, double l) {
  const auto rc = rlc::core::rc_optimum(tech);
  rlc::ringosc::RingParams p;
  p.stages = 5;
  p.segments_per_line = 12;
  p.l = l;
  p.h = rc.h;
  p.k = rc.k;
  return p;
}

/// The ring fixture: the same circuit and transient options simulate_ring
/// builds (its documented construction), assembled from ringosc's public
/// add_inverter / add_rlc_ladder so run_transient can be timed directly.
struct RingFixture {
  rlc::spice::Circuit ckt;
  rlc::spice::TransientOptions opts;
  rlc::spice::NodeId v_out = 0;
};

void build_ring_fixture(RingFixture& fx, const Technology& tech,
                        const rlc::ringosc::RingParams& p) {
  using rlc::spice::NodeId;
  auto d = rlc::core::segment_delay(tech.rep, tech.line(p.l), p.h, p.k);
  const double tau_stage =
      d.converged ? d.tau
                  : rlc::core::elmore_segment_delay(tech.rep, tech.r, tech.c,
                                                    p.h, p.k);
  const double t_period = 2.0 * p.stages * tau_stage;
  const double tstop = (6.0 + 10.0) * t_period;
  fx.opts.tstop = tstop;
  fx.opts.dt = std::clamp(t_period / 4000.0, 1e-15, tstop / 100.0);
  fx.opts.record_start = 6.0 * t_period;

  auto& ckt = fx.ckt;
  const NodeId vdd = ckt.node("vdd");
  ckt.add_vsource("vsupply", vdd, ckt.ground(), rlc::spice::DcSpec{tech.vdd});
  std::vector<NodeId> in(p.stages), out(p.stages);
  for (int i = 0; i < p.stages; ++i) {
    in[i] = ckt.node("in" + std::to_string(i));
    out[i] = ckt.node("out" + std::to_string(i));
  }
  std::vector<rlc::ringosc::Ladder> ladders;
  for (int i = 0; i < p.stages; ++i) {
    rlc::ringosc::add_inverter(ckt, "inv" + std::to_string(i), in[i], out[i],
                               vdd, tech, p.k);
    ladders.push_back(rlc::ringosc::add_rlc_ladder(
        ckt, "line" + std::to_string(i), out[i], in[(i + 1) % p.stages],
        tech.line(p.l), p.h, p.segments_per_line));
  }
  for (int i = 0; i < p.stages; ++i) {
    const double vi = i % 2 == 0 ? tech.vdd : 0.0;
    const double vo = tech.vdd - vi;
    fx.opts.initial_voltages.emplace_back(in[i], vi);
    fx.opts.initial_voltages.emplace_back(out[i], vo);
    for (const NodeId nd : ladders[i].interior_nodes()) {
      fx.opts.initial_voltages.emplace_back(nd, vo);
    }
  }
  fx.v_out = out[1];
  fx.opts.probes = {rlc::spice::Probe::node_voltage(out[1], "v_out")};
}

/// The fixture's MNA matrix at its initial state (one transient stamp).
rlc::linalg::CscMatrix fixture_matrix(RingFixture& fx) {
  fx.ckt.finalize();
  const int n = fx.ckt.unknown_count();
  std::vector<double> x(n, 0.0);
  for (const auto& [node, v] : fx.opts.initial_voltages) {
    if (node != 0) x[node - 1] = v;
  }
  rlc::spice::StampContext ctx;
  ctx.analysis = rlc::spice::Analysis::kTransient;
  ctx.time = fx.opts.dt;
  ctx.dt = fx.opts.dt;
  ctx.x = &x;
  std::vector<rlc::linalg::Triplet> trip;
  std::vector<double> rhs(n, 0.0);
  rlc::spice::Stamper st(trip, rhs);
  for (const auto& dev : fx.ckt.devices()) {
    dev->init_history(ctx);
    dev->stamp(ctx, st);
  }
  return rlc::linalg::CscMatrix::from_triplets(n, n, trip);
}

/// Known-answer fixture 1: a charged capacitor discharging through a
/// resistor, v(t) = V0 exp(-t / RC).  Returns the max abs error [V].
double rc_fixture(rlc::spice::TransientResult* out) {
  const double R = 1e3, C = 1e-12, V0 = 1.0;
  rlc::spice::Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add_resistor("r1", a, ckt.ground(), R);
  ckt.add_capacitor("c1", a, ckt.ground(), C);
  rlc::spice::TransientOptions o;
  o.tstop = 5 * R * C;
  o.dt = R * C / 1000.0;
  o.initial_voltages = {{a, V0}};
  o.probes = {rlc::spice::Probe::node_voltage(a, "v")};
  *out = rlc::spice::run_transient(ckt, o);
  double err = out->completed ? 0.0 : INFINITY;
  const auto& v = out->signal("v");
  for (std::size_t i = 0; i < out->time.size(); ++i) {
    err = std::max(err,
                   std::abs(v[i] - V0 * std::exp(-out->time[i] / (R * C))));
  }
  return err;
}

/// Known-answer fixture 2: a charged capacitor ringing through a series
/// R-L loop with damping (R/2) sqrt(C/L) < 1:
///   v(t) = V0 exp(-a t) (cos(w t) + (a / w) sin(w t)),
///   a = R / 2L, w = sqrt(1 / LC - a^2).  Returns the max abs error [V].
double rlc_fixture(rlc::spice::TransientResult* out, double* zeta) {
  const double R = 10.0, L = 1e-9, C = 1e-12, V0 = 1.0;
  *zeta = 0.5 * R * std::sqrt(C / L);
  rlc::spice::Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  ckt.add_capacitor("c1", a, ckt.ground(), C);
  ckt.add_inductor("l1", a, b, L);
  ckt.add_resistor("r1", b, ckt.ground(), R);
  const double alpha = R / (2 * L);
  const double w = std::sqrt(1.0 / (L * C) - alpha * alpha);
  rlc::spice::TransientOptions o;
  o.tstop = 10 * 2 * M_PI / w;
  o.dt = (2 * M_PI / w) / 2000.0;
  o.initial_voltages = {{a, V0}, {b, 0.0}};
  o.probes = {rlc::spice::Probe::node_voltage(a, "v")};
  *out = rlc::spice::run_transient(ckt, o);
  double err = out->completed ? 0.0 : INFINITY;
  const auto& v = out->signal("v");
  for (std::size_t i = 0; i < out->time.size(); ++i) {
    const double t = out->time[i];
    const double ref = V0 * std::exp(-alpha * t) *
                       (std::cos(w * t) + alpha / w * std::sin(w * t));
    err = std::max(err, std::abs(v[i] - ref));
  }
  return err;
}

int cmd_ring(int threads) {
  // 1. simulate_ring spans over the Figure 11 grid on `threads` workers.
  const auto& grid = fig11_grid();
  std::vector<double> ring_s(grid.size()), period(grid.size(), -1.0);
  std::atomic<std::size_t> next{0};
  const auto wall0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < grid.size();) {
        const Technology tech = tech_named(grid[i].tech);
        const auto t0 = Clock::now();
        const auto r = rlc::ringosc::simulate_ring(
            tech, fig11_params(tech, grid[i].l));
        ring_s[i] = seconds_since(t0);
        if (r.completed && r.period) period[i] = *r.period;
      }
    });
  }
  for (auto& t : pool) t.join();
  const double grid_wall = seconds_since(wall0);

  // 2. The ring fixture at one Figure 11 point, run through run_transient;
  //    its period must match simulate_ring's at the same point.
  constexpr std::size_t kFixturePoint = 3;  // 100 nm, l = 1.8 nH/mm
  const Technology tech100 = Technology::nm100();
  const auto params = fig11_params(tech100, grid[kFixturePoint].l);
  RingFixture fx;
  build_ring_fixture(fx, tech100, params);
  const auto tf0 = Clock::now();
  const auto tran = rlc::spice::run_transient(fx.ckt, fx.opts);
  const double fixture_s = seconds_since(tf0);
  const auto& vout = tran.signal("v_out");
  const auto fx_period = rlc::analysis::oscillation_period(
      tran.time, vout, 0.5 * tech100.vdd, tran.time.front(), 3);
  const double ref_period = period[kFixturePoint];
  const bool fixture_ok =
      tran.completed && fx_period && ref_period > 0.0 &&
      std::abs(*fx_period / ref_period - 1.0) <= 1e-9;

  // 3. SparseLU spans on a matrix with the fixture's MNA size and pattern.
  RingFixture fm;
  build_ring_fixture(fm, tech100, params);
  const rlc::linalg::CscMatrix A = fixture_matrix(fm);
  std::vector<double> b(A.rows(), 1.0);
  const double factor_s =
      time_median(301, [&] { rlc::linalg::SparseLU lu(A); });
  rlc::linalg::SparseLU lu(A);
  bool refactor_ok = true;
  const double refactor_s =
      time_median(301, [&] { refactor_ok = lu.refactor(A) && refactor_ok; });
  std::vector<double> x;
  const double solve_s = time_median(301, [&] { x = lu.solve(b); });
  const auto Ax = A.multiply(x);
  double resid = 0.0;
  for (std::size_t i = 0; i < Ax.size(); ++i) {
    resid = std::max(resid, std::abs(Ax[i] - b[i]));
  }

  // 4. Known-answer fixtures.
  rlc::spice::TransientResult rc_tr, rlc_tr;
  auto t0 = Clock::now();
  const double rc_err = rc_fixture(&rc_tr);
  const double rc_s = seconds_since(t0);
  double zeta = 0.0;
  t0 = Clock::now();
  const double rlc_err = rlc_fixture(&rlc_tr, &zeta);
  const double rlc_s = seconds_since(t0);
  constexpr double kRcTol = 1e-4, kRlcTol = 2e-3;

  rlc::io::Json j;
  double ring_max = 0.0, ring_sum = 0.0;
  rlc::io::JsonArray per;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ring_max = std::max(ring_max, ring_s[i]);
    ring_sum += ring_s[i];
    rlc::io::Json r;
    r.set("tech", grid[i].tech);
    r.set("l_nH_per_mm", grid[i].l * 1e6);
    r.set("period_ns", period[i] * 1e9);
    r.set("seconds", ring_s[i]);
    per.push(r);
  }
  j.set("threads", threads);
  j.set("grid_wall_s", grid_wall);
  j.set("ring_s_max", ring_max);
  j.set("ring_s_sum", ring_sum);
  j.set("rings", per);
  j.set("fixture_period_ns", fx_period.value_or(-1.0) * 1e9);
  j.set("fixture_ok", fixture_ok);
  j.set("steps_accepted", static_cast<long long>(tran.steps_accepted));
  j.set("steps_rejected", static_cast<long long>(tran.steps_rejected));
  j.set("newton_per_step",
        tran.steps_accepted > 0
            ? static_cast<double>(tran.newton_iterations) / tran.steps_accepted
            : 0.0);
  j.set("step_us",
        tran.steps_accepted > 0 ? fixture_s / tran.steps_accepted * 1e6 : 0.0);
  j.set("mna_size", A.rows());
  j.set("mna_nnz", A.nnz());
  j.set("lu_factor_us", factor_s * 1e6);
  j.set("lu_refactor_us", refactor_s * 1e6);
  j.set("lu_solve_us", solve_s * 1e6);
  j.set("lu_ok", refactor_ok && resid < 1e-6);
  j.set("rc_err_v", rc_err);
  j.set("rc_us", rc_s * 1e6);
  j.set("rc_ok", rc_err <= kRcTol);
  j.set("rlc_err_v", rlc_err);
  j.set("rlc_zeta", zeta);
  j.set("rlc_us", rlc_s * 1e6);
  j.set("rlc_ok", zeta < 1.0 && rlc_err <= kRlcTol);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: pb_layers stamp | grid-check FILE | io REQS RESPS | "
               "tline | ring THREADS\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "stamp") return cmd_stamp();
    if (cmd == "grid-check" && argc == 3) return cmd_grid_check(argv[2]);
    if (cmd == "io" && argc == 4) return cmd_io(argv[2], argv[3]);
    if (cmd == "tline") return cmd_tline();
    if (cmd == "ring" && argc == 3) return cmd_ring(std::atoi(argv[2]));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_layers %s: %s\n", cmd.c_str(), e.what());
    return 3;
  }
  return usage();
}
