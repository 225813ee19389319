/// Determinism regression for the parallel sweep path: the chunked-
/// continuation parallel optimize_rlc_sweep must agree with the serial
/// warm-start reference point-for-point (h, k, tau within 1e-9 relative)
/// across the Figure 4-7 inductance grids at both technology nodes, and
/// must return results in input order for any thread count — including a
/// pool forced to one thread via RLC_NUM_THREADS.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "rlc/core/optimizer.hpp"
#include "rlc/exec/counters.hpp"
#include "rlc/exec/thread_pool.hpp"

namespace {

using namespace rlc::core;

/// The grid behind Figures 4-7: 0..5 nH/mm in 26 points.
std::vector<double> figure_grid() {
  std::vector<double> ls;
  for (int i = 0; i <= 25; ++i) ls.push_back(5.0e-6 * i / 25.0);
  return ls;
}

void expect_pointwise_match(const std::vector<OptimResult>& ref,
                            const std::vector<OptimResult>& got,
                            double rel_tol, const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].converged, got[i].converged) << what << " point " << i;
    if (!ref[i].converged) continue;
    EXPECT_NEAR(got[i].h, ref[i].h, rel_tol * std::abs(ref[i].h))
        << what << " point " << i;
    EXPECT_NEAR(got[i].k, ref[i].k, rel_tol * std::abs(ref[i].k))
        << what << " point " << i;
    EXPECT_NEAR(got[i].tau, ref[i].tau, rel_tol * std::abs(ref[i].tau))
        << what << " point " << i;
  }
}

TEST(ParallelSweep, MatchesSerialOnFigureGridsAtBothNodes) {
  const auto ls = figure_grid();
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    const auto serial =  // reference path
        optimize_rlc_sweep(tech, ls, SweepOptions{.parallel = false});
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      rlc::exec::ThreadPool pool(threads);
      SweepOptions sweep;
      sweep.pool = &pool;
      const auto par = optimize_rlc_sweep(tech, ls, sweep);
      expect_pointwise_match(serial, par, 1e-9,
                             tech.name + " x" + std::to_string(threads));
    }
  }
}

TEST(ParallelSweep, ResultsAreInInputOrderForReversedGrid) {
  // Feed the grid backwards: output i must correspond to input i (checked
  // against per-point independent solves), so collection is input-ordered
  // rather than completion-ordered.
  auto ls = figure_grid();
  std::reverse(ls.begin(), ls.end());
  rlc::exec::ThreadPool pool(4);
  SweepOptions sweep;
  sweep.pool = &pool;
  sweep.chunk = 3;
  const auto tech = Technology::nm250();
  const auto par = optimize_rlc_sweep(tech, ls, sweep);
  ASSERT_EQ(par.size(), ls.size());
  for (std::size_t i = 0; i < ls.size(); ++i) {
    ASSERT_TRUE(par[i].converged) << i;
    const auto solo = optimize_rlc(tech, ls[i]);
    ASSERT_TRUE(solo.converged) << i;
    EXPECT_NEAR(par[i].h, solo.h, 1e-6 * solo.h) << i;
    EXPECT_NEAR(par[i].k, solo.k, 1e-6 * solo.k) << i;
  }
}

TEST(ParallelSweep, ParallelPathIsBitIdenticalForAnyThreadCount) {
  // The parallel path must not depend on the pool size AT ALL — including a
  // pool forced to one thread via RLC_NUM_THREADS.  (It is allowed to differ
  // from the parallel=false serial reference at rounding level, because the
  // chunk seeds warm-start differently; what may not vary is the answer for
  // a given chunking as threads change.)
  ::setenv("RLC_NUM_THREADS", "1", 1);
  rlc::exec::ThreadPool pool1;  // sized from the env override
  ::unsetenv("RLC_NUM_THREADS");
  ASSERT_EQ(pool1.size(), 1u);
  const auto ls = figure_grid();
  const auto tech = Technology::nm100();
  SweepOptions sweep;
  sweep.pool = &pool1;
  const auto one = optimize_rlc_sweep(tech, ls, sweep);
  for (const std::size_t threads : {2u, 5u}) {
    rlc::exec::ThreadPool pool(threads);
    sweep.pool = &pool;
    const auto par = optimize_rlc_sweep(tech, ls, sweep);
    ASSERT_EQ(par.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(par[i].h, one[i].h) << i;
      EXPECT_EQ(par[i].k, one[i].k) << i;
      EXPECT_EQ(par[i].tau, one[i].tau) << i;
      EXPECT_EQ(par[i].newton_iterations, one[i].newton_iterations) << i;
    }
  }
}

TEST(ParallelSweep, CountersSeeEverySolveExactlyOnce) {
  const auto ls = figure_grid();
  const auto tech = Technology::nm250();
  for (const bool parallel : {false, true}) {
    rlc::exec::ThreadPool pool(4);
    rlc::exec::Counters counters;
    SweepOptions sweep;
    sweep.parallel = parallel;
    sweep.pool = &pool;
    sweep.counters = &counters;
    const auto rs = optimize_rlc_sweep(tech, ls, sweep);
    ASSERT_EQ(rs.size(), ls.size());
    const auto s = counters.snapshot();
    EXPECT_EQ(s.tasks, static_cast<std::int64_t>(ls.size())) << parallel;
    EXPECT_EQ(s.failures, 0) << parallel;
    EXPECT_EQ(s.fallbacks, 0) << parallel;
    EXPECT_GT(s.newton_iterations, 0) << parallel;
    EXPECT_GT(s.wall_total_s, 0.0) << parallel;
    EXPECT_GE(s.wall_max_s, s.wall_min_s) << parallel;
  }
}

TEST(ParallelSweep, ChunkSizeDoesNotChangeResults) {
  const auto ls = figure_grid();
  const auto tech = Technology::nm100();
  const auto serial =
      optimize_rlc_sweep(tech, ls, SweepOptions{.parallel = false});
  for (const std::size_t chunk : {1u, 2u, 5u, 26u, 100u}) {
    rlc::exec::ThreadPool pool(3);
    SweepOptions sweep;
    sweep.pool = &pool;
    sweep.chunk = chunk;
    const auto par = optimize_rlc_sweep(tech, ls, sweep);
    expect_pointwise_match(serial, par, 1e-9,
                           "chunk " + std::to_string(chunk));
  }
}

}  // namespace
