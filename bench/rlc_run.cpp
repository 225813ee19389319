/// rlc_run — the single driver for every experiment in the repo.
///
/// Replaces the 19 per-figure/table/ablation/perf binaries: each experiment
/// is a named scenario in rlc::scenario::ScenarioRegistry, and this driver
/// selects, runs (one scenario at a time; each parallelises internally on
/// the rlc::exec pool), renders the human tables, and optionally writes one
/// schema-versioned BENCH_<name>.json artifact per scenario.
///
///   rlc_run --list                     # what can run
///   rlc_run fig4 fig7                  # run selected scenarios
///   rlc_run --all --json artifacts/    # everything + JSON artifacts
///   rlc_run --all --quick              # CI smoke grids
///   rlc_run fig4 --spec my_spec.json   # override the scenario defaults
///   rlc_run --all --threads 4          # pin the pool size

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rlc/base/status.hpp"
#include "rlc/exec/thread_pool.hpp"
#include "rlc/io/json.hpp"
#include "rlc/io/json_reader.hpp"
#include "rlc/obs/exporter.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/progress.hpp"
#include "rlc/obs/trace.hpp"
#include "rlc/scenario/registry.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: rlc_run [options] [scenario...]\n"
               "\n"
               "  --list          list registered scenarios and exit\n"
               "  --all           run every registered scenario\n"
               "  --quick         reduced grids (CI smoke runs)\n"
               "  --json DIR      write BENCH_<name>.json per scenario into DIR\n"
               "  --threads N     pool size (sets RLC_NUM_THREADS)\n"
               "  --spec FILE     JSON ScenarioSpec overriding the defaults\n"
               "                  (requires exactly one scenario name)\n"
               "  --trace FILE    capture spans, write Chrome trace-event JSON\n"
               "                  (open in chrome://tracing or ui.perfetto.dev)\n"
               "  --metrics       print the metrics registry table on stderr\n"
               "  --progress      throttled [done/total] line on stderr\n"
               "  --help          this text\n"
               "\n"
               "Scenarios run one at a time, each in parallel on the pool\n"
               "(deterministic for any thread count), so every wall time and\n"
               "metrics delta belongs to one scenario.\n");
}

void list_scenarios() {
  const auto& reg = rlc::scenario::ScenarioRegistry::global();
  std::printf("%-24s %-10s %-9s %s\n", "name", "group", "objective", "title");
  bench::rule();
  for (const auto& name : reg.names()) {
    const auto* s = reg.find(name);
    std::printf("%-24s %-10s %-9s %s\n", s->name.c_str(), s->group.c_str(),
                s->objective.c_str(), s->title.c_str());
  }
  std::printf("\n%zu scenarios registered (BENCH schema v%d).\n", reg.size(),
              rlc::scenario::kSchemaVersion);
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false, all = false, quick = false;
  bool metrics = false, progress = false;
  std::string json_dir, spec_file, threads_arg, trace_file;
  std::vector<std::string> selected;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rlc_run: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") list = true;
    else if (arg == "--all") all = true;
    else if (arg == "--quick") quick = true;
    else if (arg == "--json") json_dir = value("--json");
    else if (arg == "--spec") spec_file = value("--spec");
    else if (arg == "--threads") threads_arg = value("--threads");
    else if (arg == "--trace") trace_file = value("--trace");
    else if (arg == "--metrics") metrics = true;
    else if (arg == "--progress") progress = true;
    else if (arg == "--help" || arg == "-h") { usage(stdout); return 0; }
    else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "rlc_run: unknown option %s\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      selected.push_back(arg);
    }
  }

  // Pin the pool size before anything touches the default pool.  Both the
  // --threads flag and a pre-set RLC_NUM_THREADS are validated STRICTLY:
  // "0", negative, or garbage is a configuration error worth stopping for,
  // not something to paper over with the hardware count.
  if (!threads_arg.empty()) setenv("RLC_NUM_THREADS", threads_arg.c_str(), 1);
  if (const auto parsed = rlc::exec::parse_thread_count_strict(
          std::getenv("RLC_NUM_THREADS"));
      !parsed.is_ok()) {
    std::fprintf(stderr, "rlc_run: %s\n",
                 parsed.status().to_string().c_str());
    return 2;
  }
  // Same strictness for the tracer ring override (--trace sizes the
  // per-thread rings from it before any spans are recorded).
  if (const auto ring = rlc::obs::Tracer::parse_ring_capacity_strict(
          std::getenv("RLC_TRACE_RING"));
      !ring.is_ok()) {
    std::fprintf(stderr, "rlc_run: %s\n", ring.status().to_string().c_str());
    return 2;
  }

  rlc::scenario::register_all_scenarios();
  const auto& reg = rlc::scenario::ScenarioRegistry::global();

  if (list) {
    list_scenarios();
    return 0;
  }
  if (all) selected = reg.names();
  if (selected.empty()) {
    usage(stderr);
    return 2;
  }

  // Resolve names up front so a typo fails before any work starts.
  std::vector<const rlc::scenario::Scenario*> scenarios;
  scenarios.reserve(selected.size());
  for (const auto& name : selected) {
    const auto* s = reg.find(name);
    if (!s) {
      std::fprintf(stderr,
                   "rlc_run: unknown scenario \"%s\" (see rlc_run --list)\n",
                   name.c_str());
      return 2;
    }
    scenarios.push_back(s);
  }

  if (!spec_file.empty() && scenarios.size() != 1) {
    std::fprintf(stderr, "rlc_run: --spec requires exactly one scenario\n");
    return 2;
  }

  // Per-scenario specs: registered defaults, optionally replaced by a spec
  // file, optionally shrunk for smoke runs.
  std::vector<rlc::scenario::ScenarioSpec> specs;
  specs.reserve(scenarios.size());
  for (const auto* s : scenarios) {
    rlc::scenario::ScenarioSpec spec = s->defaults;
    if (!spec_file.empty()) {
      rlc::StatusOr<rlc::scenario::ScenarioSpec> parsed = [&] {
        try {
          return rlc::scenario::ScenarioSpec::from_json(
              rlc::io::parse_json_file(spec_file));
        } catch (const std::exception& e) {  // unreadable file
          return rlc::StatusOr<rlc::scenario::ScenarioSpec>(
              rlc::Status::invalid_argument(e.what()));
        }
      }();
      if (!parsed.is_ok()) {
        std::fprintf(stderr, "rlc_run: cannot load --spec %s: %s\n",
                     spec_file.c_str(),
                     parsed.status().to_string().c_str());
        return 2;
      }
      spec = std::move(parsed).value();
      spec.scenario = s->name;
    }
    if (quick) spec = rlc::scenario::quick_spec(std::move(spec));
    specs.push_back(std::move(spec));
  }

  // Create the artifact directory up front so an unwritable destination
  // fails fast, before any scenario burns time.
  if (!json_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(json_dir, ec);
    if (ec) {
      std::fprintf(stderr, "rlc_run: cannot create %s: %s\n", json_dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }

  // Run one scenario at a time, so each one's wall time and metrics delta
  // are its own; a scenario's sweeps still fan over the shared pool.  A
  // failing scenario becomes an error result instead of taking the whole
  // run down.
  // Arm the tracer before any scenario runs so every span of the run is
  // captured; numerical results are bit-identical either way (pinned by
  // tests/obs).
  if (!trace_file.empty()) rlc::obs::Tracer::global().enable();

  std::vector<rlc::scenario::ScenarioResult> results(scenarios.size());
  rlc::obs::Progress meter(scenarios.size(), progress);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    try {
      results[i] = rlc::scenario::run_scenario(*scenarios[i], specs[i]);
    } catch (const std::exception& e) {
      results[i] = {};
      results[i].name = scenarios[i]->name;
      results[i].title = scenarios[i]->title;
      results[i].spec = specs[i];
      results[i].error = e.what();
    }
    meter.tick(scenarios[i]->name);
  }
  meter.finish();

  if (!trace_file.empty()) {
    rlc::obs::Tracer::global().disable();
    if (!rlc::obs::Tracer::global().write_chrome_trace(trace_file)) return 1;
    std::fprintf(stderr, "rlc_run: wrote trace (%llu spans, %llu dropped) to %s\n",
                 static_cast<unsigned long long>(
                     rlc::obs::Tracer::global().span_count()),
                 static_cast<unsigned long long>(
                     rlc::obs::Tracer::global().dropped()),
                 trace_file.c_str());
  }

  if (metrics) {
    const std::string table = rlc::obs::Exporter::text(
        rlc::obs::Registry::global().snapshot().without_zeros());
    std::fprintf(stderr, "\n-- metrics registry --\n%s", table.c_str());
  }

  // Render in selection order, then write artifacts.
  for (const auto& res : results) bench::print_result(res);

  if (!json_dir.empty()) {
    std::printf("\n");
    for (const auto& res : results) {
      std::string path = json_dir;
      if (!path.empty() && path.back() != '/') path += '/';
      path += "BENCH_";
      path += res.name;
      path += ".json";
      if (!rlc::io::write_json_file(path, res.to_json())) return 1;
      std::printf("wrote %s\n", path.c_str());
    }
  }

  int failures = 0;
  for (const auto& res : results) {
    if (!res.error.empty()) {
      std::fprintf(stderr, "rlc_run: scenario %s failed: %s\n",
                   res.name.c_str(), res.error.c_str());
      ++failures;
    }
  }
  return failures ? 1 : 0;
}
