/// End-to-end scenario runs: fig4 and fig7 must reproduce the retired
/// standalone binaries bit-for-bit, results must be deterministic across
/// thread counts, and the JSON envelope must parse back with the schema
/// fields rlc_run artifacts promise.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rlc/core/lcrit.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/exec/thread_pool.hpp"
#include "rlc/io/json_reader.hpp"
#include "rlc/scenario/registry.hpp"

namespace {

using namespace rlc::scenario;
using rlc::core::OptimResult;
using rlc::core::SweepOptions;
using rlc::core::Technology;

const Scenario& scenario(const std::string& name) {
  register_all_scenarios();
  const Scenario* s = ScenarioRegistry::global().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

/// The exact computation bench/fig4_lcrit.cpp performed before it was
/// retired: default 26-point sweep, default solver options, critical
/// inductance at the RLC-optimal (h, k) per node.
TEST(ScenarioRun, Fig4MatchesLegacyBinaryBitExactly) {
  const Scenario& s = scenario("fig4");
  const ScenarioResult res = run_scenario(s, s.defaults);
  ASSERT_TRUE(res.error.empty()) << res.error;
  ASSERT_EQ(res.tables.size(), 1u);
  const Table& t = res.tables[0];

  std::vector<double> ls;
  for (int i = 0; i <= 25; ++i) ls.push_back(5.0e-6 * i / 25);
  const Technology t250 = Technology::nm250();
  const Technology t100 = Technology::nm100();
  const SweepOptions sweep;  // the legacy binary used the defaults
  const auto r250 = optimize_rlc_sweep(t250, ls, sweep);
  const auto r100 = optimize_rlc_sweep(t100, ls, sweep);

  ASSERT_EQ(t.rows.size(), ls.size());
  for (std::size_t i = 0; i < ls.size(); ++i) {
    ASSERT_TRUE(r250[i].converged && r100[i].converged) << i;
    // EXPECT_EQ throughout: bit-identical, not approximately equal.
    EXPECT_EQ(t.rows[i][0].number, ls[i] * 1e6) << i;
    EXPECT_EQ(t.rows[i][1].number,
              critical_inductance(t250, r250[i].h, r250[i].k) * 1e6)
        << i;
    EXPECT_EQ(t.rows[i][2].number,
              critical_inductance(t100, r100[i].h, r100[i].k) * 1e6)
        << i;
  }
}

/// Likewise for bench/fig7_delay_ratio.cpp: three technologies, delay
/// ratios normalized to the l = 0 point of each series.
TEST(ScenarioRun, Fig7MatchesLegacyBinaryBitExactly) {
  const Scenario& s = scenario("fig7");
  const ScenarioResult res = run_scenario(s, s.defaults);
  ASSERT_TRUE(res.error.empty()) << res.error;
  ASSERT_EQ(res.tables.size(), 1u);
  const Table& t = res.tables[0];

  std::vector<double> ls;
  for (int i = 0; i <= 25; ++i) ls.push_back(5.0e-6 * i / 25);
  const Technology techs[] = {Technology::nm250(), Technology::nm100(),
                              Technology::nm100_with_250nm_dielectric()};
  const SweepOptions sweep;
  std::vector<std::vector<OptimResult>> sweeps;
  for (const auto& tech : techs) {
    sweeps.push_back(optimize_rlc_sweep(tech, ls, sweep));
  }

  ASSERT_EQ(t.rows.size(), ls.size());
  for (std::size_t i = 0; i < ls.size(); ++i) {
    EXPECT_EQ(t.rows[i][0].number, ls[i] * 1e6) << i;
    for (std::size_t j = 0; j < 3; ++j) {
      ASSERT_TRUE(sweeps[j][i].converged) << i;
      EXPECT_EQ(t.rows[i][j + 1].number,
                sweeps[j][i].delay_per_length / sweeps[j][0].delay_per_length)
          << "row " << i << " tech " << j;
    }
  }
}

/// The determinism contract: a scenario's numbers must not depend on the
/// pool size it runs on.
TEST(ScenarioRun, ResultsAreIdenticalAcrossThreadCounts) {
  for (const char* name : {"fig4", "fig8", "ablation_ladder", "fig11"}) {
    const Scenario& s = scenario(name);
    const ScenarioSpec spec = quick_spec(s.defaults);
    rlc::exec::ThreadPool pool1(1);
    rlc::exec::ThreadPool pool3(3);
    const ScenarioResult a = run_scenario(s, spec, &pool1);
    const ScenarioResult b = run_scenario(s, spec, &pool3);
    ASSERT_TRUE(a.error.empty()) << name << ": " << a.error;
    EXPECT_EQ(a.numeric_fingerprint(), b.numeric_fingerprint()) << name;
    EXPECT_EQ(a.threads, 1);
    EXPECT_EQ(b.threads, 3);
  }
}

TEST(ScenarioRun, EnvelopeJsonParsesWithSchemaFields) {
  const Scenario& s = scenario("fig4");
  const ScenarioSpec spec = quick_spec(s.defaults);
  const ScenarioResult res = run_scenario(s, spec);
  const rlc::io::JsonValue v = rlc::io::parse_json(res.to_json().str());

  EXPECT_EQ(v.int_or("schema", 0), kSchemaVersion);
  EXPECT_EQ(v.string_or("bench", ""), "fig4");
  EXPECT_EQ(v.bool_or("quick", false), true);
  EXPECT_GE(v.number_or("wall_seconds", -1.0), 0.0);
  EXPECT_GE(v.int_or("threads", 0), 1);

  const rlc::io::JsonValue* tables = v.find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_GE(tables->items().size(), 1u);
  const rlc::io::JsonValue& t0 = tables->items()[0];
  ASSERT_NE(t0.find("columns"), nullptr);
  ASSERT_NE(t0.find("rows"), nullptr);
  EXPECT_EQ(t0.find("rows")->items()[0].items().size(),
            t0.find("columns")->items().size());

  ASSERT_NE(v.find("counters"), nullptr);
  EXPECT_GE(v.find("counters")->int_or("tasks", -1), 0);

  // The embedded spec round-trips back to the spec that ran.
  const rlc::io::JsonValue* spec_j = v.find("spec");
  ASSERT_NE(spec_j, nullptr);
  EXPECT_EQ(ScenarioSpec::from_json(*spec_j).value(), spec);
}

TEST(ScenarioRun, InvalidSpecIsRejectedBeforeRunning) {
  const Scenario& s = scenario("fig4");
  ScenarioSpec bad = s.defaults;
  bad.threshold = 2.0;
  EXPECT_THROW(run_scenario(s, bad), std::invalid_argument);
}

}  // namespace
