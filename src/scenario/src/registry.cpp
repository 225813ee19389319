#include "rlc/scenario/registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"

namespace rlc::scenario {

namespace {

/// Span rollup delta: later minus earlier, matched by name; names whose
/// counts did not move are dropped.  Rollups are cumulative sums, so the
/// subtraction is exact per name.
std::vector<obs::Tracer::SpanStats> rollup_delta(
    const std::vector<obs::Tracer::SpanStats>& earlier,
    std::vector<obs::Tracer::SpanStats> later) {
  std::unordered_map<std::string, const obs::Tracer::SpanStats*> by_name;
  for (const auto& s : earlier) by_name.emplace(s.name, &s);
  std::vector<obs::Tracer::SpanStats> out;
  for (auto& s : later) {
    const auto it = by_name.find(s.name);
    if (it != by_name.end()) {
      s.count -= it->second->count;
      s.total_ns -= it->second->total_ns;
      s.top_level_ns -= it->second->top_level_ns;
    }
    if (s.count > 0) out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry r;
  return r;
}

void ScenarioRegistry::add(Scenario s) {
  if (s.name.empty()) {
    throw std::invalid_argument("rlc::scenario: scenario name must be set");
  }
  if (find(s.name) != nullptr) {
    throw std::invalid_argument("rlc::scenario: duplicate scenario \"" +
                                s.name + "\"");
  }
  if (s.objective != "delay" && s.objective != "noise" &&
      s.objective != "power") {
    throw std::invalid_argument("rlc::scenario: objective of \"" + s.name +
                                "\" must be delay, noise or power (got \"" +
                                s.objective + "\")");
  }
  if (s.defaults.scenario.empty()) s.defaults.scenario = s.name;
  if (const rlc::Status st = s.defaults.validate(); !st.is_ok()) {
    // Registering broken defaults is a programmer error, not a request
    // error: fail loudly at registration time.
    throw std::invalid_argument("rlc::scenario: defaults of \"" + s.name +
                                "\": " + st.to_string());
  }
  scenarios_.push_back(std::move(s));
}

rlc::StatusOr<const Scenario*> ScenarioRegistry::lookup(
    const std::string& name) const {
  if (const Scenario* s = find(name)) return s;
  return rlc::Status::not_found("unknown scenario \"" + name +
                                "\" (see rlc_run --list)");
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  const auto it =
      std::find_if(scenarios_.begin(), scenarios_.end(),
                   [&](const Scenario& s) { return s.name == name; });
  return it == scenarios_.end() ? nullptr : &*it;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& s : scenarios_) out.push_back(s.name);
  return out;
}

void register_all_scenarios() {
  static const bool once = [] {
    ScenarioRegistry& r = ScenarioRegistry::global();
    register_paper_scenarios(r);
    register_ring_scenarios(r);
    register_ablation_scenarios(r);
    register_extension_scenarios(r);
    register_xtalk_scenarios(r);
    register_power_scenarios(r);
    register_perf_scenarios(r);
    return true;
  }();
  (void)once;
}

ScenarioSpec quick_spec(ScenarioSpec spec) {
  spec.quick = true;
  if (spec.sweep.explicit_l.empty()) {
    spec.sweep.points = std::min(spec.sweep.points, 7);
  }
  spec.segments_per_line = std::min(spec.segments_per_line, 8);
  return spec;
}

ScenarioResult run_scenario(const Scenario& s, const ScenarioSpec& spec,
                            exec::ThreadPool* pool) {
  if (const rlc::Status st = spec.validate(); !st.is_ok()) {
    throw std::invalid_argument(st.to_string());
  }
  exec::Counters counters;
  ScenarioContext ctx{pool, &counters};
  // Bracket the scenario body with registry/tracer snapshots so the
  // envelope can attribute activity to this run.  Exact because rlc_run
  // runs scenarios one at a time (see Observability doc).
  const bool tracing = obs::Tracer::enabled();
  const obs::MetricsSnapshot metrics_before = obs::Registry::global().snapshot();
  const std::vector<obs::Tracer::SpanStats> spans_before =
      tracing ? obs::Tracer::global().rollup()
              : std::vector<obs::Tracer::SpanStats>{};
  const exec::StopWatch watch;
  ScenarioResult result;
  {
    // The scenario body is itself a span (named after the scenario) so a
    // trace shows where each scenario starts/ends; registry names are
    // stable for the life of the process, satisfying the tracer's
    // pointer-lifetime contract.
    obs::SpanGuard span(s.name.c_str());
    result = s.fn(spec, ctx);
  }
  result.wall_seconds = watch.seconds();
  result.name = s.name;
  result.title = s.title;
  result.spec = spec;
  result.counters = counters.snapshot();
  result.threads = static_cast<int>(ctx.pool_ref().size());
  result.observability.tracing = tracing;
  result.observability.metrics = obs::Registry::global()
                                     .snapshot()
                                     .delta_since(metrics_before)
                                     .without_zeros();
  if (tracing) {
    result.observability.spans =
        rollup_delta(spans_before, obs::Tracer::global().rollup());
    result.observability.dropped_spans = obs::Tracer::global().dropped();
  }
  return result;
}

}  // namespace rlc::scenario
