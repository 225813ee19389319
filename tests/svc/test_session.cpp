#include "rlc/svc/session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "rlc/core/optimize_api.hpp"
#include "rlc/io/json_reader.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/scenario/registry.hpp"
#include "rlc/scenario/spec.hpp"

namespace rlc::svc {
namespace {

/// A representative coupled request: 30% capacitive + 0.3 inductive
/// coupling at the paper's 1 nH/mm operating point.
QueryRequest coupled_request(const char* tech, int conductors) {
  QueryRequest q;
  q.technology = tech;
  q.l = 1.0e-6;
  q.n_conductors = conductors;
  q.coupling_cc =
      0.3 * scenario::technology_by_name(tech).line(q.l).c;
  q.coupling_km = 0.3;
  return q;
}

/// The workload of the determinism tests: both technologies over the
/// paper's inductance range, a couple of exact-engine and total-delay
/// variants mixed in.
std::vector<QueryRequest> grid_requests() {
  std::vector<QueryRequest> reqs;
  for (const char* tech : {"250nm", "100nm"}) {
    for (int i = 0; i < 8; ++i) {
      QueryRequest q;
      q.technology = tech;
      q.l = 5.0e-6 * i / 7;
      reqs.push_back(q);
    }
  }
  QueryRequest exact;
  exact.with_exact_delay = true;
  exact.l = 2.0e-6;
  reqs.push_back(exact);
  QueryRequest total;
  total.l = 1.0e-6;
  total.line_length = 0.01;
  reqs.push_back(total);
  // Coupled-bus variants: plain 2- and 3-wire queries plus one
  // noise-constrained solve, so batch determinism covers the coupled path.
  reqs.push_back(coupled_request("100nm", 2));
  reqs.push_back(coupled_request("250nm", 3));
  QueryRequest constrained = coupled_request("100nm", 2);
  constrained.noise_vmax = 0.12;
  reqs.push_back(constrained);
  // Power-objective variant, so batch determinism covers the power path.
  QueryRequest power;
  power.objective = "power";
  power.l = 1.0e-6;
  power.delay_slack_eps = 0.10;
  reqs.push_back(power);
  return reqs;
}

/// Session is a thin mapping: submit(q) answers bitwise what
/// core::optimize answers for the same request.
void expect_bitwise_core_optimize(Session& session, const QueryRequest& q) {
  const auto r = session.submit(q);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  core::OptimizeRequest oreq;
  oreq.objective = q.objective == "power" ? core::Objective::kPower
                                          : core::Objective::kDelay;
  oreq.l = q.l;
  oreq.conductors = static_cast<std::size_t>(q.n_conductors);
  oreq.coupling_cc = q.coupling_cc;
  oreq.coupling_km = q.coupling_km;
  oreq.constraints.noise_vmax = q.noise_vmax;
  if (oreq.objective == core::Objective::kPower) {
    oreq.constraints.delay_slack_eps = q.delay_slack_eps;
  }
  oreq.optim.f = q.threshold;
  const auto direct =
      core::optimize(scenario::technology_by_name(q.technology), oreq);
  ASSERT_TRUE(direct.is_ok()) << direct.status().to_string();
  EXPECT_EQ(r->h, direct->sizing.h);
  EXPECT_EQ(r->k, direct->sizing.k);
  EXPECT_EQ(r->tau, direct->sizing.tau);
  EXPECT_EQ(r->delay_per_length, direct->sizing.delay_per_length);
  EXPECT_EQ(r->has_power, direct->has_power);
  EXPECT_EQ(r->power_total, direct->power.total());
  EXPECT_EQ(r->has_noise, direct->has_noise);
  EXPECT_EQ(r->peak_noise, direct->peak_noise);
  EXPECT_EQ(r->noise_width, direct->noise_width);
  EXPECT_EQ(r->constraint_active, direct->noise_constraint_active);
}

TEST(Session, SubmitAnswersAQuery) {
  Session session(SessionOptions{1, 0});
  QueryRequest q;
  q.l = 2.0e-6;
  const rlc::StatusOr<QueryResult> r = session.submit(q);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_GT(r->h, 0.0);
  EXPECT_GT(r->k, 0.0);
  EXPECT_GT(r->delay_per_length, 0.0);
  EXPECT_NEAR(r->delay_per_length, r->tau / r->h, 1e-22);
  EXPECT_FALSE(r->from_cache);
}

TEST(Session, TotalDelayScalesWithLineLength) {
  Session session(SessionOptions{1, 0});
  QueryRequest q;
  q.l = 1.0e-6;
  q.line_length = 0.01;
  const auto r = session.submit(q);
  ASSERT_TRUE(r.is_ok());
  EXPECT_NEAR(r->total_delay, r->delay_per_length * 0.01, 1e-22);
}

TEST(Session, PowerObjectiveCarriesThePowerBlock) {
  Session session(SessionOptions{1, 0});
  QueryRequest q;
  q.objective = "power";
  q.l = 1.0e-6;
  q.delay_slack_eps = 0.05;
  const auto r = session.submit(q);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_TRUE(r->has_power);
  EXPECT_GT(r->power_total, 0.0);
  EXPECT_NEAR(r->power_total,
              r->power_dynamic + r->power_short_circuit + r->power_leakage,
              1e-12 * r->power_total);
  // The slack bound holds and the slack bought real power.
  EXPECT_LE(r->delay_per_length, 1.05 * r->delay_ref * (1.0 + 1e-9));
  EXPECT_LT(r->power_total, r->power_ref);
  EXPECT_TRUE(r->power_constraint_active);
  expect_bitwise_core_optimize(session, q);
}

// Session maps every query class onto core::optimize: coupled buses of 2
// and 3 wires, slack and binding noise budgets, and a budget at a 90%
// threshold answer bitwise what the core entry point answers.
TEST(Session, CoupledAndBudgetedAnswersAreBitwiseCoreOptimize) {
  Session session(SessionOptions{1, 0});
  std::vector<QueryRequest> cases = {coupled_request("100nm", 2),
                                     coupled_request("100nm", 3),
                                     coupled_request("250nm", 3)};
  for (const double vmax : {0.12, 0.9}) {
    QueryRequest q = coupled_request("100nm", 2);
    q.noise_vmax = vmax;
    cases.push_back(q);
  }
  QueryRequest budget_f90 = coupled_request("100nm", 2);
  budget_f90.coupling_cc = 2.5e-11;
  budget_f90.threshold = 0.9;
  budget_f90.noise_vmax = 0.2;
  cases.push_back(budget_f90);
  for (const QueryRequest& q : cases) {
    SCOPED_TRACE(q.cache_key());
    expect_bitwise_core_optimize(session, q);
  }
}

// The wire pin of the objective extension: a scalar query with the
// objective omitted answers byte-identically (same to_json bytes, modulo
// delivery metadata) to one that spells objective "delay" — and carries no
// power block at all.
TEST(Session, OmittedObjectiveIsByteIdenticalOnTheWire) {
  const char* base = "{\"technology\": \"100nm\", \"l\": 2e-06}";
  const char* explicit_delay =
      "{\"technology\": \"100nm\", \"l\": 2e-06, \"objective\": \"delay\"}";
  const auto qa = QueryRequest::from_json(io::parse_json(base));
  const auto qb = QueryRequest::from_json(io::parse_json(explicit_delay));
  ASSERT_TRUE(qa.is_ok());
  ASSERT_TRUE(qb.is_ok());
  EXPECT_EQ(*qa, *qb);
  EXPECT_EQ(qa->cache_key(), qb->cache_key());

  Session sa(SessionOptions{1, 0});
  Session sb(SessionOptions{1, 0});
  auto ra = sa.submit(*qa);
  auto rb = sb.submit(*qb);
  ASSERT_TRUE(ra.is_ok());
  ASSERT_TRUE(rb.is_ok());
  // Strip delivery metadata (timing differs run to run), then compare the
  // rendered wire bytes exactly.
  ra->wall_seconds = rb->wall_seconds = 0.0;
  EXPECT_EQ(ra->to_json().str(), rb->to_json().str());
  EXPECT_EQ(ra->to_json().str().find("power"), std::string::npos);
}

TEST(Session, BatchMatchesSerialBitForBitAcrossThreadCounts) {
  const std::vector<QueryRequest> reqs = grid_requests();

  // Reference: serial single-shot submits, caching off.
  Session serial(SessionOptions{1, 0});
  std::vector<QueryResult> expected;
  for (const QueryRequest& q : reqs) {
    rlc::StatusOr<QueryResult> r = serial.submit(q);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    expected.push_back(*r);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Session session(SessionOptions{threads, 1024});
    const auto batch = session.submit_batch(reqs);
    ASSERT_EQ(batch.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_TRUE(batch[i].is_ok())
          << "threads=" << threads << " i=" << i << ": "
          << batch[i].status().to_string();
      EXPECT_TRUE(batch[i]->same_answer(expected[i]))
          << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(Session, BatchGroupsDuplicateKeysThroughTheCache) {
  // A batch with repeated cache keys: each distinct key solves exactly once
  // (the leader pass), every duplicate is served from the cache the leaders
  // filled, the svc.batch.grouped counter records the follower count, and
  // the grouping is deterministic for any pool size because it follows
  // request order.
  std::vector<QueryRequest> reqs;
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 4; ++i) {
      QueryRequest q;
      q.l = 1.0e-6 * i;
      reqs.push_back(q);
    }
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Session session(SessionOptions{threads, 256});
    const auto before = obs::Registry::global().snapshot();
    const auto batch = session.submit_batch(reqs);
    const auto grouped =
        obs::Registry::global().snapshot().delta_since(before);
    ASSERT_EQ(batch.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_TRUE(batch[i].is_ok()) << i;
      // First occurrence of each key is the cold leader; the two repeats
      // are cache hits — exactly as serial submission would have flagged.
      EXPECT_EQ(batch[i]->from_cache, i >= 4u) << "threads=" << threads
                                               << " i=" << i;
      EXPECT_TRUE(batch[i]->same_answer(*batch[i % 4]))
          << "threads=" << threads << " i=" << i;
    }
    const auto stats = session.cache_stats();
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 8u);
    std::int64_t grouped_count = -1;
    for (const auto& [name, value] : grouped.counters) {
      if (name == "svc.batch.grouped") grouped_count = value;
    }
    EXPECT_EQ(grouped_count, 8) << "threads=" << threads;
  }
}

TEST(Session, CacheHitsServeTheSameAnswer) {
  Session session(SessionOptions{1, 64});
  QueryRequest q;
  q.l = 2.0e-6;
  const auto cold = session.submit(q);
  ASSERT_TRUE(cold.is_ok());
  EXPECT_FALSE(cold->from_cache);
  const auto warm = session.submit(q);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_TRUE(warm->same_answer(*cold));
  const auto stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // A result-affecting change is a different entry...
  QueryRequest q2 = q;
  q2.threshold = 0.4;
  const auto other = session.submit(q2);
  ASSERT_TRUE(other.is_ok());
  EXPECT_FALSE(other->from_cache);
  EXPECT_FALSE(other->same_answer(*cold));

  // ...and clear_cache invalidates: the next submit recomputes.
  session.clear_cache();
  const auto recomputed = session.submit(q);
  ASSERT_TRUE(recomputed.is_ok());
  EXPECT_FALSE(recomputed->from_cache);
  EXPECT_TRUE(recomputed->same_answer(*cold));
}

TEST(Session, DeadlineZeroReturnsDeadlineExceededWithoutWork) {
  Session session(SessionOptions{1, 64});
  QueryRequest q;
  q.l = 2.0e-6;
  q.deadline_seconds = 0.0;
  const auto r = session.submit(q);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // No partial write: the cache never saw the request.
  EXPECT_EQ(session.cache_stats().hits + session.cache_stats().misses, 0u);
  // The same request with the deadline lifted computes normally (the
  // deadline is not part of the cache key, so nothing stale can surface).
  q.deadline_seconds = Session::kNoDeadline;
  const auto ok = session.submit(q);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_FALSE(ok->from_cache);
}

TEST(Session, TinyDeadlineExpiresDuringTheRequest) {
  // A 1 ns budget can expire before the solve starts or at the first
  // checkpoint inside it; either way the typed code is the same and no
  // partial result leaks out.
  Session session(SessionOptions{1, 0});
  QueryRequest q;
  q.l = 2.0e-6;
  q.with_exact_delay = true;
  q.deadline_seconds = 1.0e-9;
  const auto r = session.submit(q);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(Session, PreCancelledTokenShortCircuits) {
  Session session(SessionOptions{1, 64});
  CancelSource src;
  src.request_cancel();
  QueryRequest q;
  q.l = 2.0e-6;
  const auto r = session.submit(q, src.token());
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(session.cache_stats().hits + session.cache_stats().misses, 0u);
}

TEST(Session, MidBatchCancellationStopsCleanly) {
  // Cancel from another thread while a batch is in flight: every element
  // must come back either ok or cancelled — no crash, no torn result, and
  // (under TSan) no race.  Which elements finish is timing-dependent by
  // design; only the outcome set is pinned.
  Session session(SessionOptions{4, 0});
  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 64; ++i) {
    QueryRequest q;
    q.l = 5.0e-6 * i / 63;
    q.with_exact_delay = true;  // slow enough for the cancel to land inside
    reqs.push_back(q);
  }
  CancelSource src;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    src.request_cancel();
  });
  const auto results = session.submit_batch(reqs, src.token());
  canceller.join();
  ASSERT_EQ(results.size(), reqs.size());
  int cancelled = 0;
  for (const auto& r : results) {
    if (r.is_ok()) {
      EXPECT_GT(r->delay_per_length, 0.0);
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
          << r.status().to_string();
      ++cancelled;
    }
  }
  // 64 exact-engine solves on 4 threads take far longer than 5 ms, so at
  // least the tail of the batch must have been cancelled.
  EXPECT_GT(cancelled, 0);
}

TEST(Session, CoupledQueryCarriesExactVictimNoise) {
  Session session(SessionOptions{1, 0});
  const QueryRequest q = coupled_request("100nm", 2);
  const auto r = session.submit(q);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(r->has_noise);
  EXPECT_GT(r->peak_noise, 0.0);
  EXPECT_LT(r->peak_noise, 1.0);
  EXPECT_GT(r->noise_width, 0.0);
  EXPECT_FALSE(r->constraint_active);

  // The quiet-neighbour effective line is heavier than the bare line, so
  // the coupled sizing must differ from the scalar answer.
  QueryRequest scalar;
  scalar.technology = q.technology;
  scalar.l = q.l;
  const auto s = session.submit(scalar);
  ASSERT_TRUE(s.is_ok());
  EXPECT_FALSE(s->has_noise);
  EXPECT_NE(r->h, s->h);
  EXPECT_NE(r->delay_per_length, s->delay_per_length);

  // A wider bus doubles the quiet-neighbour Miller load: different answer,
  // different cache entry.
  const auto wide = session.submit(coupled_request("100nm", 3));
  ASSERT_TRUE(wide.is_ok());
  EXPECT_NE(wide->h, r->h);
}

TEST(Session, NoiseConstrainedQueryMeetsTheBudget) {
  Session session(SessionOptions{1, 0});
  const QueryRequest free_q = coupled_request("100nm", 2);
  const auto free_r = session.submit(free_q);
  ASSERT_TRUE(free_r.is_ok()) << free_r.status().to_string();
  ASSERT_GT(free_r->peak_noise, 0.0);

  // Budget below the unconstrained peak: the active-set solve must bind,
  // meet the budget, and upsize the repeaters to get there.
  QueryRequest tight = free_q;
  tight.noise_vmax = 0.6 * free_r->peak_noise;
  const auto tight_r = session.submit(tight);
  ASSERT_TRUE(tight_r.is_ok()) << tight_r.status().to_string();
  EXPECT_TRUE(tight_r->constraint_active);
  EXPECT_TRUE(tight_r->has_noise);
  EXPECT_LE(tight_r->peak_noise, tight.noise_vmax * (1.0 + 1e-6));
  EXPECT_GT(tight_r->k, free_r->k);
  EXPECT_GE(tight_r->delay_per_length, free_r->delay_per_length);

  // A budget above the free-running peak is inactive: bit-identical sizing.
  QueryRequest loose = free_q;
  loose.noise_vmax = 2.0 * free_r->peak_noise;
  const auto loose_r = session.submit(loose);
  ASSERT_TRUE(loose_r.is_ok()) << loose_r.status().to_string();
  EXPECT_FALSE(loose_r->constraint_active);
  EXPECT_EQ(loose_r->h, free_r->h);
  EXPECT_EQ(loose_r->k, free_r->k);
  EXPECT_EQ(loose_r->peak_noise, free_r->peak_noise);
}

TEST(Session, InvalidRequestAndUnknownTechnologyAreTypedErrors) {
  Session session(SessionOptions{1, 0});
  QueryRequest bad;
  bad.threshold = 2.0;
  EXPECT_EQ(session.submit(bad).status().code(),
            StatusCode::kInvalidArgument);
  QueryRequest unknown;
  unknown.technology = "7nm_finfet_magic";
  EXPECT_EQ(session.submit(unknown).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Session, UnrealizableBusIsInvalidArgumentNamingTheBound) {
  // A 3-conductor bus is realizable only for |km| < 1/sqrt2: past it the
  // inductance matrix is not positive definite.  The answer is a typed
  // invalid_argument that names the bound, and just inside it is ok.
  Session session(SessionOptions{1, 0});
  QueryRequest q = coupled_request("100nm", 3);
  q.coupling_km = 0.75;
  const auto bad = session.submit(q);
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("|km| * 2cos(pi/(n+1)) < 1"),
            std::string::npos)
      << bad.status().message();
  q.coupling_km = 0.70;
  const auto ok = session.submit(q);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
}

TEST(Session, RunScenarioHonorsRegistryAndDeadline) {
  Session session(SessionOptions{2, 0});
  scenario::ScenarioSpec spec;
  spec.scenario = "does_not_exist";
  EXPECT_EQ(session.run_scenario(spec).status().code(),
            StatusCode::kNotFound);

  const scenario::Scenario* fig5 =
      scenario::ScenarioRegistry::global().find("fig5");
  ASSERT_NE(fig5, nullptr);
  scenario::ScenarioSpec quick = scenario::quick_spec(fig5->defaults);

  EXPECT_EQ(session.run_scenario(quick, 0.0).status().code(),
            StatusCode::kDeadlineExceeded);

  const auto r = session.run_scenario(quick);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->name, "fig5");
  EXPECT_FALSE(r->tables.empty());
}

TEST(Session, RunScenarioMapsNumericFailureToNoConvergence) {
  // A scenario body whose numerics fail (rlc::NoConvergenceError) is a
  // typed no_convergence at the boundary, never internal.
  Session session(SessionOptions{1, 0});  // registers the real scenarios
  const std::string name = "test_session_no_convergence";
  auto& reg = scenario::ScenarioRegistry::global();
  if (reg.find(name) == nullptr) {
    scenario::Scenario sc;
    sc.name = name;
    sc.title = "always fails to converge";
    sc.group = "extension";
    sc.fn = [](const scenario::ScenarioSpec&, scenario::ScenarioContext&)
        -> scenario::ScenarioResult {
      throw NoConvergenceError("root solve failed");
    };
    reg.add(std::move(sc));
  }
  const auto r = session.run_scenario(reg.find(name)->defaults);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNoConvergence)
      << r.status().to_string();
  EXPECT_NE(r.status().message().find("root solve failed"), std::string::npos)
      << r.status().to_string();
}

}  // namespace
}  // namespace rlc::svc
