#include "rlc/svc/session.hpp"

#include <chrono>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "rlc/core/exact_delay.hpp"
#include "rlc/core/optimize_api.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"
#include "rlc/scenario/registry.hpp"
#include "rlc/svc/slowlog.hpp"

namespace rlc::svc {

namespace {

/// svc.* instrumentation ids, interned once.  Hit rate = hits/(hits+misses);
/// svc.latency_us carries p50/p99 through the registry's histogram
/// quantiles; queue depth counts in-flight requests.
struct SvcMetrics {
  int requests;
  int batches;
  int cache_hits;
  int cache_misses;
  int deadline_exceeded;
  int cancelled;
  int errors;
  int queue_depth;
  int queue_depth_max;
  int batch_size;
  int batch_grouped;
  int latency_us;
  int stage_queue_us;
  int stage_cache_us;
  int stage_solve_us;
  int slow_total_us;
  static const SvcMetrics& get() {
    auto& r = obs::Registry::global();
    static const SvcMetrics m{
        r.counter("svc.requests"),
        r.counter("svc.batches"),
        r.counter("svc.cache.hits"),
        r.counter("svc.cache.misses"),
        r.counter("svc.deadline_exceeded"),
        r.counter("svc.cancelled"),
        r.counter("svc.errors"),
        r.gauge("svc.queue_depth"),
        r.gauge("svc.queue_depth_max"),
        r.histogram("svc.batch_size", 1.0, 4096.0, 12),
        r.counter("svc.batch.grouped"),
        r.histogram("svc.latency_us", 1.0, 1.0e7, 32),
        r.histogram("svc.stage.queue_us", 1.0, 1.0e7, 32),
        r.histogram("svc.stage.cache_us", 1.0, 1.0e7, 32),
        r.histogram("svc.stage.solve_us", 1.0, 1.0e7, 32),
        r.histogram("svc.slow.total_us", 1.0, 1.0e7, 32),
    };
    return m;
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Record the per-stage histograms for every request and offer traced
/// requests to the slow-query log.  Stage time is observation, never part
/// of the answer.
void account_stages(const QueryRequest& req, const char* status,
                    bool from_cache, double queue_us, double cache_us,
                    double solve_us) {
  auto& reg = obs::Registry::global();
  const SvcMetrics& m = SvcMetrics::get();
  reg.record(m.stage_queue_us, queue_us);
  reg.record(m.stage_cache_us, cache_us);
  reg.record(m.stage_solve_us, solve_us);
  if (req.trace_id.empty()) return;
  const double total_us = queue_us + cache_us + solve_us;
  reg.record(m.slow_total_us, total_us);
  SlowQueryLog::Entry e;
  e.trace_id = req.trace_id;
  e.technology = req.technology;
  e.cache_hash = req.cache_hash();
  e.from_cache = from_cache;
  e.status = status;
  e.queue_us = queue_us;
  e.cache_us = cache_us;
  e.solve_us = solve_us;
  e.total_us = total_us;
  SlowQueryLog::global().note(std::move(e));
}

}  // namespace

struct Session::Impl {
  explicit Impl(const SessionOptions& opts)
      : pool(opts.threads), cache(opts.cache_capacity) {
    scenario::register_all_scenarios();  // idempotent; needed by run_scenario
  }

  exec::ThreadPool pool;
  LruCache<QueryResult> cache;

  /// The whole request path for one query.  Never throws: every failure
  /// mode is a Status (the boundary rule).  Order matters — validation,
  /// then the pre-flight deadline/cancel check, then the cache, then the
  /// solve — so an expired deadline does no work and writes nothing.
  ///
  /// `received_ns` (Tracer::now_ns clock, 0 = unknown) is when the server
  /// first read the request off the wire; the gap to pickup here is the
  /// queue stage of the per-request attribution.
  rlc::StatusOr<QueryResult> answer(const QueryRequest& req,
                                    const CancelToken& cancel,
                                    std::int64_t received_ns = 0) {
    auto& reg = obs::Registry::global();
    const SvcMetrics& m = SvcMetrics::get();
    const auto t0 = std::chrono::steady_clock::now();
    reg.add(m.requests);

    double queue_us = 0.0;
    if (received_ns > 0) {
      const std::int64_t now = obs::Tracer::now_ns();
      if (now > received_ns) {
        queue_us = static_cast<double>(now - received_ns) / 1e3;
      }
    }

    if (rlc::Status st = req.validate(); !st.is_ok()) {
      reg.add(m.errors);
      return st;
    }
    if (cancel.cancel_requested()) {
      reg.add(m.cancelled);
      account_stages(req, "cancelled", false, queue_us, 0.0, 0.0);
      return rlc::Status::cancelled("request cancelled before start");
    }
    const Deadline deadline = Deadline::after(req.deadline_seconds);
    if (deadline.expired()) {
      reg.add(m.deadline_exceeded);
      account_stages(req, "deadline_exceeded", false, queue_us, 0.0, 0.0);
      return rlc::Status::deadline_exceeded(
          "deadline expired before the solve started");
    }

    const std::string key = req.cache_key();
    const auto t_cache = std::chrono::steady_clock::now();
    std::optional<QueryResult> hit = cache.get(key);
    const double cache_us = seconds_since(t_cache) * 1e6;
    if (hit) {
      reg.add(m.cache_hits);
      hit->from_cache = true;
      hit->wall_seconds = seconds_since(t0);
      reg.record(m.latency_us, hit->wall_seconds * 1e6);
      account_stages(req, "ok", true, queue_us, cache_us, 0.0);
      hit->trace_id = req.trace_id;  // empty for untraced: nothing emitted
      hit->queue_us = queue_us;
      hit->cache_us = cache_us;
      hit->solve_us = 0.0;
      return *hit;
    }
    reg.add(m.cache_misses);

    ExecScope scope(cancel, deadline);
    const auto t_solve = std::chrono::steady_clock::now();
    try {
      rlc::StatusOr<QueryResult> result = compute(req);
      const double solve_us = seconds_since(t_solve) * 1e6;
      if (result.is_ok()) {
        result->wall_seconds = seconds_since(t0);
        // Cache BEFORE stamping the trace block: cached entries are shared
        // across clients and must stay trace-free.
        cache.put(key, *result);
        reg.record(m.latency_us, result->wall_seconds * 1e6);
        account_stages(req, "ok", false, queue_us, cache_us, solve_us);
        result->trace_id = req.trace_id;
        result->queue_us = queue_us;
        result->cache_us = cache_us;
        result->solve_us = solve_us;
      } else {
        // The unified core::optimize() entry point converts mid-solve
        // cancellation into a Status at ITS boundary (instead of letting
        // CancelledError unwind to the catches below), so the counters must
        // cover both delivery mechanisms.
        switch (result.status().code()) {
          case StatusCode::kNoConvergence:
            reg.add(m.errors);
            break;
          case StatusCode::kCancelled:
            reg.add(m.cancelled);
            break;
          case StatusCode::kDeadlineExceeded:
            reg.add(m.deadline_exceeded);
            break;
          default:
            break;
        }
        account_stages(req, result.status().code_name(), false, queue_us,
                       cache_us, solve_us);
      }
      return result;
    } catch (const CancelledError& e) {
      reg.add(e.code() == StatusCode::kDeadlineExceeded ? m.deadline_exceeded
                                                        : m.cancelled);
      account_stages(req, e.to_status().code_name(), false, queue_us,
                     cache_us, seconds_since(t_solve) * 1e6);
      return e.to_status();
    } catch (const NoConvergenceError& e) {
      reg.add(m.errors);
      account_stages(req, "no_convergence", false, queue_us, cache_us,
                     seconds_since(t_solve) * 1e6);
      return e.to_status();
    } catch (const std::invalid_argument& e) {
      reg.add(m.errors);
      account_stages(req, "invalid_argument", false, queue_us, cache_us,
                     seconds_since(t_solve) * 1e6);
      return rlc::Status::invalid_argument(e.what());
    } catch (const std::exception& e) {
      reg.add(m.errors);
      account_stages(req, "internal", false, queue_us, cache_us,
                     seconds_since(t_solve) * 1e6);
      return rlc::Status::internal(std::string("query failed: ") + e.what());
    }
  }

  /// The solve itself (inside the ExecScope; CancelledError may unwind
  /// through here to the boundary in answer()).
  rlc::StatusOr<QueryResult> compute(const QueryRequest& req) {
    core::Technology tech;
    try {
      tech = scenario::technology_by_name(req.technology);
    } catch (const std::exception& e) {
      // Unknown id OR an out-of-range interpolated node: both are caller
      // errors, whatever exception type the resolver used internally.
      return rlc::Status::invalid_argument(e.what());
    }
    // One mapping for every query class: QueryRequest -> the unified core
    // entry point -> QueryResult.  The answer is bitwise core::optimize's
    // (pinned by tests/svc); only the exact-waveform delay is added here.
    core::OptimizeRequest oreq;
    oreq.objective = req.objective == "power" ? core::Objective::kPower
                                              : core::Objective::kDelay;
    oreq.l = req.l;
    oreq.conductors = static_cast<std::size_t>(req.n_conductors);
    oreq.coupling_cc = req.coupling_cc;
    oreq.coupling_km = req.coupling_km;
    oreq.constraints.noise_vmax = req.noise_vmax;
    if (oreq.objective == core::Objective::kPower) {
      oreq.constraints.delay_slack_eps = req.delay_slack_eps;
    }
    oreq.optim.f = req.threshold;
    oreq.optim.max_iterations = req.max_iterations;
    oreq.optim.residual_tolerance = req.residual_tolerance;
    rlc::StatusOr<core::OptimizeResponse> oresp = core::optimize(tech, oreq);
    if (!oresp.is_ok()) {
      if (oresp.status().code() == StatusCode::kNoConvergence) {
        return rlc::Status::no_convergence(
            oresp.status().message() + " (technology " + req.technology +
            ", l=" + io::render_number(req.l) + " H/m)");
      }
      return oresp.status();
    }
    const core::OptimResult& opt = oresp->sizing;
    QueryResult r;
    r.h = opt.h;
    r.k = opt.k;
    r.tau = opt.tau;
    r.delay_per_length = opt.delay_per_length;
    r.newton_iterations = opt.newton_iterations;
    r.method =
        opt.method == core::OptimMethod::kNewton ? "newton" : "nelder_mead";
    if (oresp->has_power) {
      r.power_total = oresp->power.total();
      r.power_dynamic = oresp->power.dynamic;
      r.power_short_circuit = oresp->power.short_circuit;
      r.power_leakage = oresp->power.leakage;
      r.delay_ref = oresp->delay_ref;
      r.power_ref = oresp->power_ref;
      r.power_constraint_active = oresp->delay_constraint_active;
      r.has_power = true;
    }
    if (oresp->has_noise) {
      r.peak_noise = oresp->peak_noise;
      r.noise_width = oresp->noise_width;
      r.constraint_active = oresp->noise_constraint_active;
      r.has_noise = true;
    }
    if (req.line_length > 0.0) {
      r.total_delay = r.delay_per_length * req.line_length;
    }
    if (!req.with_exact_delay) return r;

    core::ExactOptions eo;
    eo.talbot_points = req.talbot_points;
    eo.window_points = req.talbot_points;
    std::optional<double> exact;
    if (oreq.conductors == 1) {
      exact = core::exact_threshold_delay(tech.line(req.l), opt.h,
                                          tech.rep.scaled(opt.k), opt.tau,
                                          req.threshold, eo, nullptr);
    } else {
      // Aggressor threshold crossing with quiet neighbours (the coupled
      // engine takes f as an absolute level; the swing here is 1 V).
      const core::CentreAggressorBus pattern = core::centre_aggressor_bus(
          tech.line(req.l), req.coupling_cc, req.coupling_km,
          oreq.conductors);
      exact = core::exact_coupled_threshold_delay(
          pattern.bus, opt.h, tech.rep.scaled(opt.k), pattern.exc,
          pattern.aggressor, opt.tau, req.threshold, eo);
    }
    if (!exact) {
      return rlc::Status::no_convergence(
          std::string(oreq.conductors == 1 ? "" : "coupled ") +
          "exact-waveform engine did not bracket the threshold crossing");
    }
    r.exact_delay = *exact;
    r.has_exact = true;
    return r;
  }
};

Session::Session(const SessionOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {}

Session::~Session() = default;

rlc::StatusOr<QueryResult> Session::submit(const QueryRequest& req) {
  return submit(req, CancelToken{});
}

rlc::StatusOr<QueryResult> Session::submit(const QueryRequest& req,
                                           const CancelToken& cancel) {
  auto& reg = obs::Registry::global();
  const SvcMetrics& m = SvcMetrics::get();
  reg.gauge_add(m.queue_depth, 1);
  reg.gauge_max(m.queue_depth_max, 1);
  rlc::StatusOr<QueryResult> out = impl_->answer(req, cancel);
  reg.gauge_add(m.queue_depth, -1);
  return out;
}

std::vector<rlc::StatusOr<QueryResult>> Session::submit_batch(
    const std::vector<QueryRequest>& reqs) {
  return submit_batch(reqs, CancelToken{});
}

std::vector<rlc::StatusOr<QueryResult>> Session::submit_batch(
    const std::vector<QueryRequest>& reqs, const CancelToken& cancel) {
  return submit_batch(reqs, cancel, {});
}

std::vector<rlc::StatusOr<QueryResult>> Session::submit_batch(
    const std::vector<QueryRequest>& reqs, const CancelToken& cancel,
    const std::vector<std::int64_t>& received_ns) {
  auto& reg = obs::Registry::global();
  const SvcMetrics& m = SvcMetrics::get();
  const std::size_t n = reqs.size();
  reg.add(m.batches);
  reg.record(m.batch_size, static_cast<double>(n));
  reg.gauge_add(m.queue_depth, static_cast<std::int64_t>(n));
  reg.gauge_max(m.queue_depth_max, static_cast<std::int64_t>(n));

  // Group same-key requests before fanning out: the first occurrence of
  // each cache key (in request order, so grouping is deterministic across
  // thread counts) is the LEADER and solves in the first parallel pass —
  // its cold cache miss pays the batched SoA contour sweeps exactly once
  // per distinct line.  The remaining duplicates run in a second pass and
  // resolve from the cache the leaders just filled, which matches what
  // serial submission order would have produced (a leader whose solve
  // failed caches nothing, so its followers recompute — and fail — the
  // same way).
  std::vector<std::size_t> leaders, followers;
  leaders.reserve(n);
  {
    std::unordered_map<std::string, std::size_t> first_of;
    first_of.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const bool lead = first_of.emplace(reqs[i].cache_key(), i).second;
      (lead ? leaders : followers).push_back(i);
    }
  }
  reg.add(m.batch_grouped, static_cast<std::int64_t>(followers.size()));

  // One task per request (grain 1): requests are coarse relative to the
  // queue, and per-request sharding keeps a slow solve from serializing its
  // chunk-mates.  answer() never throws, so every slot gets filled.
  //
  // Queue-depth accounting is batch-level, not per-request: a gauge is one
  // SHARED atomic (see obs/metrics.hpp), so decrementing it inside the
  // lambda put a contended RMW on the parallel cold path — the only shared
  // write between workers.  Depth now drops when the batch completes; the
  // max gauge still records the true high-water mark.
  std::vector<std::optional<rlc::StatusOr<QueryResult>>> slots(n);
  const auto stamp_of = [&received_ns](std::size_t i) -> std::int64_t {
    return i < received_ns.size() ? received_ns[i] : 0;
  };
  impl_->pool.parallel_for(
      leaders.size(),
      [&](std::size_t j) {
        slots[leaders[j]] = impl_->answer(reqs[leaders[j]], cancel,
                                          stamp_of(leaders[j]));
      },
      1);
  if (!followers.empty()) {
    impl_->pool.parallel_for(
        followers.size(),
        [&](std::size_t j) {
          slots[followers[j]] = impl_->answer(reqs[followers[j]], cancel,
                                              stamp_of(followers[j]));
        },
        1);
  }
  reg.gauge_add(m.queue_depth, -static_cast<std::int64_t>(n));

  std::vector<rlc::StatusOr<QueryResult>> out;
  out.reserve(n);
  for (auto& slot : slots) {
    out.push_back(slot ? std::move(*slot)
                       : rlc::Status::internal("request slot never ran"));
  }
  return out;
}

rlc::StatusOr<scenario::ScenarioResult> Session::run_scenario(
    const scenario::ScenarioSpec& spec, double deadline_seconds,
    const CancelToken& cancel) {
  auto& reg = obs::Registry::global();
  const SvcMetrics& m = SvcMetrics::get();
  reg.add(m.requests);
  if (rlc::Status st = spec.validate(); !st.is_ok()) {
    reg.add(m.errors);
    return st;
  }
  rlc::StatusOr<const scenario::Scenario*> sc =
      scenario::ScenarioRegistry::global().lookup(spec.scenario);
  if (!sc.is_ok()) {
    reg.add(m.errors);
    return sc.status();
  }
  const Deadline deadline = Deadline::after(deadline_seconds);
  if (deadline.expired()) {
    reg.add(m.deadline_exceeded);
    return rlc::Status::deadline_exceeded(
        "deadline expired before the scenario started");
  }
  ExecScope scope(cancel, deadline);
  try {
    return scenario::run_scenario(**sc, spec, &impl_->pool);
  } catch (const CancelledError& e) {
    reg.add(e.code() == StatusCode::kDeadlineExceeded ? m.deadline_exceeded
                                                      : m.cancelled);
    return e.to_status();
  } catch (const NoConvergenceError& e) {
    reg.add(m.errors);
    return e.to_status();
  } catch (const std::invalid_argument& e) {
    reg.add(m.errors);
    return rlc::Status::invalid_argument(e.what());
  } catch (const std::exception& e) {
    reg.add(m.errors);
    return rlc::Status::internal(std::string("scenario failed: ") + e.what());
  }
}

std::size_t Session::threads() const { return impl_->pool.size(); }

exec::ThreadPool& Session::pool() { return impl_->pool; }

LruCache<QueryResult>::Stats Session::cache_stats() const {
  return impl_->cache.stats();
}

void Session::clear_cache() { impl_->cache.clear(); }

}  // namespace rlc::svc
