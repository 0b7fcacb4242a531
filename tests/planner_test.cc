#include "core/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/kpj_instance.h"
#include "core/kpj_query.h"
#include "gen/road_gen.h"
#include "index/landmark_index.h"
#include "util/rng.h"

namespace kpj {
namespace {

Graph TestGraph(uint32_t nodes = 3000, uint64_t seed = 55) {
  RoadGenOptions opt;
  opt.target_nodes = nodes;
  opt.seed = seed;
  return GenerateRoadNetwork(opt).graph;
}

KpjInstance MakeInstance(bool landmarks, uint32_t nodes = 3000) {
  Result<KpjInstance> made = KpjInstance::Make(TestGraph(nodes));
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  KpjInstance instance = std::move(made).value();
  if (landmarks) {
    LandmarkIndexOptions opt;
    opt.num_landmarks = 4;
    EXPECT_TRUE(instance
                    .AttachLandmarks(LandmarkIndex::Build(
                        instance.graph(), instance.reverse(), opt))
                    .ok());
  }
  return instance;
}

KpjQuery MakeQuery(NodeId num_nodes, uint64_t seed, size_t num_targets = 4,
                   uint32_t k = 6) {
  Rng rng(seed);
  KpjQuery q;
  q.sources = {static_cast<NodeId>(rng.NextBounded(num_nodes))};
  for (uint64_t t : rng.SampleDistinct(num_targets, num_nodes)) {
    q.targets.push_back(static_cast<NodeId>(t));
  }
  q.k = k;
  return q;
}

/// Byte-level canonical rendering of one answer: lengths and node
/// sequences in rank order.
std::string CanonicalPaths(const Result<KpjResult>& result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "<error>";
  std::string out;
  for (const Path& p : result.value().paths) {
    out += " [" + std::to_string(p.length) + ":";
    for (NodeId v : p.nodes) out += " " + std::to_string(v);
    out += "]";
  }
  return out;
}

KpjEngineOptions AutoOptions(unsigned workers, size_t cache_mb,
                             unsigned intra = 1) {
  KpjEngineOptions opt;
  opt.threads = workers;
  opt.clamp_to_hardware = false;  // determinism at any core count
  opt.intra_threads = intra;
  opt.cache_mb = cache_mb;
  opt.solver.algorithm = Algorithm::kAuto;
  return opt;
}

TEST(PlannerProfileTest, StaticPriorEncodesBenchOrdering) {
  PlannerProfile p = PlannerProfile::StaticPrior();
  for (Algorithm a : kAllAlgorithms) {
    EXPECT_EQ(p.samples[PlannerIndex(a)], 0u);
    EXPECT_GT(p.latency_ewma_x16us[PlannerIndex(a)], 0u);
  }
  // IterBound_I fastest cold, DA slowest; the resident DA-SPT prior
  // undercuts every forward prior so the first residency hit is taken
  // (and immediately measured).
  uint64_t spti = p.latency_ewma_x16us[PlannerIndex(Algorithm::kIterBoundSptI)];
  EXPECT_LT(spti, p.latency_ewma_x16us[PlannerIndex(Algorithm::kIterBound)]);
  EXPECT_LT(p.latency_ewma_x16us[PlannerIndex(Algorithm::kIterBound)],
            p.latency_ewma_x16us[PlannerIndex(Algorithm::kDA)]);
  EXPECT_LT(p.dasp_resident_ewma_x16us, spti);
  EXPECT_EQ(p.scale_x256, 256u);
}

TEST(QueryPlannerTest, PinnedPlanIsPureAndRecordLatencyIsANoOp) {
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjOptions base;
  base.algorithm = Algorithm::kAuto;
  QueryPlanner planner(instance, base);
  planner.PinProfile(PlannerProfile::StaticPrior());
  PlannerProfile pinned = planner.ProfileSnapshot();

  KpjQuery query = MakeQuery(instance.NumNodes(), 7);
  PlannerDecision first = planner.Plan(query, nullptr, 0);
  for (int i = 0; i < 32; ++i) {
    // Try hard to perturb the frozen profile between plans.
    planner.RecordLatency(first.algorithm, false, 0, 1000.0 * (i + 1));
    planner.RecordLatency(Algorithm::kDaSpt, true, 12345, 0.001);
    PlannerDecision again = planner.Plan(query, nullptr, 0);
    EXPECT_EQ(again.algorithm, first.algorithm);
    EXPECT_STREQ(again.reason, first.reason);
  }
  EXPECT_EQ(planner.ProfileSnapshot(), pinned);
}

TEST(QueryPlannerTest, ColdArgminFollowsRecordedLatencies) {
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjOptions base;
  base.algorithm = Algorithm::kAuto;
  QueryPlanner planner(instance, base);

  KpjQuery query = MakeQuery(instance.NumNodes(), 13);
  // Under the static prior the cold argmin is IterBound_I.
  EXPECT_EQ(planner.Plan(query, nullptr, 0).algorithm,
            Algorithm::kIterBoundSptI);

  // The first real sample replaces the prior outright (the prior's scale
  // is arbitrary) and re-anchors every still-unmeasured prior, so a single
  // slow sample scales the whole profile up without reordering it. Only
  // *relative* evidence moves the argmin: measure IterBound_I slow and
  // IterBound_P fast, and the argmin must flip to IterBound_P.
  planner.RecordLatency(Algorithm::kIterBoundSptI, false, 0, 50.0);
  PlannerProfile after = planner.ProfileSnapshot();
  size_t spti = PlannerIndex(Algorithm::kIterBoundSptI);
  EXPECT_EQ(after.samples[spti], 1u);
  EXPECT_EQ(after.latency_ewma_x16us[spti], 50u * 1000 * 16);
  EXPECT_NE(after.scale_x256, 256u);
  EXPECT_EQ(planner.Plan(query, nullptr, 0).algorithm,
            Algorithm::kIterBoundSptI);

  planner.RecordLatency(Algorithm::kIterBoundSptP, false, 0, 5.0);
  PlannerDecision d = planner.Plan(query, nullptr, 0);
  EXPECT_EQ(d.algorithm, Algorithm::kIterBoundSptP);
  EXPECT_STREQ(d.reason, "cold_profile_best");
}

TEST(QueryPlannerTest, ResidentDaSptSamplesFeedTheResidentEwma) {
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjOptions base;
  base.algorithm = Algorithm::kAuto;
  QueryPlanner planner(instance, base);

  planner.RecordLatency(Algorithm::kDaSpt, /*resident=*/true, 0, 2.0);
  PlannerProfile p = planner.ProfileSnapshot();
  EXPECT_EQ(p.dasp_resident_samples, 1u);
  EXPECT_EQ(p.dasp_resident_ewma_x16us, 2u * 1000 * 16);
  // Resident samples must not pollute the cold DA-SPT estimate.
  EXPECT_EQ(p.samples[PlannerIndex(Algorithm::kDaSpt)], 0u);
}

TEST(QueryPlannerTest, ExplorationStreamIsAPureFunctionOfTheSeed) {
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjOptions base;
  base.algorithm = Algorithm::kAuto;
  PlannerOptions popt;
  popt.explore_one_in = 3;
  popt.seed = 42;

  QueryPlanner a(instance, base, popt);
  QueryPlanner b(instance, base, popt);
  std::vector<KpjQuery> queries;
  for (uint64_t i = 0; i < 64; ++i) {
    queries.push_back(MakeQuery(instance.NumNodes(), 100 + i));
  }
  bool explored = false;
  for (const KpjQuery& q : queries) {
    PlannerDecision da = a.Plan(q, nullptr, 0);
    PlannerDecision db = b.Plan(q, nullptr, 0);
    EXPECT_EQ(da.algorithm, db.algorithm);
    EXPECT_STREQ(da.reason, db.reason);
    if (std::string(da.reason) == "explore") explored = true;
  }
  EXPECT_TRUE(explored);
}

// --- Engine-level behavior --------------------------------------------------

TEST(PlannerEngineTest, FixedAlgorithmEnginesBypassThePlanner) {
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjEngineOptions opt = AutoOptions(2, /*cache_mb=*/16);
  opt.solver.algorithm = Algorithm::kIterBoundSptI;
  KpjEngine engine(instance, opt);

  for (uint64_t i = 0; i < 8; ++i) {
    Result<KpjResult> r =
        engine.Submit(MakeQuery(instance.NumNodes(), 200 + i)).get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().algorithm_used, Algorithm::kIterBoundSptI);
    EXPECT_STREQ(r.value().planner_reason, "");
  }
  EngineMetricsSnapshot m = engine.MetricsSnapshot();
  for (uint64_t c : m.planner_choice) EXPECT_EQ(c, 0u);
}

TEST(PlannerEngineTest, PerQueryAutoOverrideEngagesThePlanner) {
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjEngineOptions opt = AutoOptions(1, /*cache_mb=*/16);
  opt.solver.algorithm = Algorithm::kIterBoundSptP;  // fixed engine
  KpjEngine engine(instance, opt);

  QueryContext auto_ctx;
  auto_ctx.algorithm = Algorithm::kAuto;
  Result<KpjResult> r =
      engine.Submit(MakeQuery(instance.NumNodes(), 17), 0.0, auto_ctx).get();
  ASSERT_TRUE(r.ok());
  EXPECT_STRNE(r.value().planner_reason, "");

  uint64_t chosen = 0;
  for (uint64_t c : engine.MetricsSnapshot().planner_choice) chosen += c;
  EXPECT_EQ(chosen, 1u);
}

TEST(PlannerEngineTest, CategoryJoinWalksTheMeasurementLadder) {
  // The paper's join shape: one 40-target category queried from distinct
  // sources. The planner must (1) seed the reverse SPT via DA-SPT on
  // first sight, (2) measure the resident DA-SPT path, (3) probe the
  // best forward algorithm once, (4) commit to the measured winner.
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjEngine engine(instance, AutoOptions(1, /*cache_mb=*/32));

  Rng rng(29);
  std::vector<NodeId> category;
  for (uint64_t t : rng.SampleDistinct(40, instance.NumNodes())) {
    category.push_back(static_cast<NodeId>(t));
  }
  // Sources must stay outside the category: a source inside it would be
  // dropped from the canonical target set, which changes both the cache
  // key and the recurrence fingerprint.
  auto pick_source = [&](uint64_t seed) {
    Rng source_rng(seed);
    for (;;) {
      NodeId s =
          static_cast<NodeId>(source_rng.NextBounded(instance.NumNodes()));
      if (std::find(category.begin(), category.end(), s) == category.end()) {
        return s;
      }
    }
  };
  auto run = [&](uint64_t source_seed) {
    KpjQuery q;
    q.sources = {pick_source(source_seed)};
    q.targets = category;
    q.k = 6;
    Result<KpjResult> r = engine.Submit(q).get();
    EXPECT_TRUE(r.ok());
    return std::string(r.value().planner_reason);
  };

  EXPECT_EQ(run(300), "category_targets_seed_spt");
  EXPECT_EQ(run(301), "resident_measure_dasp");
  EXPECT_EQ(run(302), "resident_probe_forward");
  std::string committed = run(303);
  EXPECT_TRUE(committed == "resident_best_dasp" ||
              committed == "resident_best_forward")
      << committed;

  // k at or above large_k disqualifies the residency routing even with
  // the tree resident: the query falls through to the cold profile rule.
  KpjQuery big;
  big.sources = {pick_source(304)};
  big.targets = category;
  big.k = engine.options().planner.large_k;
  Result<KpjResult> r = engine.Submit(big).get();
  ASSERT_TRUE(r.ok());
  EXPECT_STREQ(r.value().planner_reason, "cold_profile_best");
}

TEST(PlannerEngineTest, AutoAnswersAreByteIdenticalToTheChosenSolver) {
  // The planner's core guarantee: it only changes WHICH solver runs.
  // Whatever it picks, the answer must be byte-identical to that solver
  // run standalone on a fresh engine.
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  KpjEngine auto_engine(instance, AutoOptions(1, /*cache_mb=*/32));
  KpjEngine fixed_engine(instance, AutoOptions(1, /*cache_mb=*/0));

  // Mixed workload: ad-hoc queries plus a recurring 36-target category so
  // every rung of the decision ladder fires at least once.
  std::vector<KpjQuery> workload;
  Rng rng(59);
  std::vector<NodeId> category;
  for (uint64_t t : rng.SampleDistinct(36, instance.NumNodes())) {
    category.push_back(static_cast<NodeId>(t));
  }
  for (uint64_t i = 0; i < 18; ++i) {
    if (i % 3 == 0) {
      KpjQuery q;
      q.sources = {static_cast<NodeId>(Rng(400 + i).NextBounded(
          instance.NumNodes()))};
      q.targets = category;
      q.k = 6;
      workload.push_back(std::move(q));
    } else {
      workload.push_back(MakeQuery(instance.NumNodes(), 400 + i));
    }
  }
  // GKPJ climbs the same ladder: the category from a 3-source set, twice
  // (the repeat is served from the answer cache), and an ad-hoc 2-source
  // query. Sources stay outside their target sets.
  auto gkpj = [&](std::vector<NodeId> targets, size_t num_sources,
                  uint64_t seed) {
    Rng source_rng(seed);
    KpjQuery q;
    while (q.sources.size() < num_sources) {
      NodeId s =
          static_cast<NodeId>(source_rng.NextBounded(instance.NumNodes()));
      if (std::count(targets.begin(), targets.end(), s) == 0 &&
          std::count(q.sources.begin(), q.sources.end(), s) == 0) {
        q.sources.push_back(s);
      }
    }
    q.targets = std::move(targets);
    q.k = 6;
    return q;
  };
  workload.push_back(gkpj(category, 3, 500));
  workload.push_back(workload.back());
  workload.push_back(gkpj(MakeQuery(instance.NumNodes(), 501).targets, 2, 502));

  for (size_t i = 0; i < workload.size(); ++i) {
    Result<KpjResult> chosen = auto_engine.Submit(workload[i]).get();
    ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
    QueryContext force;
    force.algorithm = chosen.value().algorithm_used;
    Result<KpjResult> standalone =
        fixed_engine.Submit(workload[i], 0.0, force).get();
    EXPECT_EQ(CanonicalPaths(chosen), CanonicalPaths(standalone))
        << "query " << i << " chosen "
        << AlgorithmName(chosen.value().algorithm_used) << " ("
        << chosen.value().planner_reason << ")";
  }
}

TEST(PlannerEngineTest, PinnedChoicesAreIdenticalAcrossExecutionPoints) {
  // With a pinned profile and a workload of distinct ad-hoc queries (no
  // repeats, sub-category target sets), every decision is a pure function
  // of the query features — so both the answers and the per-algorithm
  // choice counters must be byte-identical at any (workers,
  // intra_threads, cache) point.
  KpjInstance instance = MakeInstance(/*landmarks=*/true);
  std::vector<KpjQuery> workload;
  for (uint64_t i = 0; i < 16; ++i) {
    workload.push_back(MakeQuery(instance.NumNodes(), 700 + i));
  }

  auto run = [&](unsigned workers, unsigned intra, size_t cache_mb) {
    KpjEngine engine(instance, AutoOptions(workers, cache_mb, intra));
    engine.planner().PinProfile(PlannerProfile::StaticPrior());
    std::vector<Result<KpjResult>> results = engine.RunBatch(workload);
    std::string canon;
    for (const auto& r : results) canon += CanonicalPaths(r) + "\n";
    return std::make_pair(canon, engine.MetricsSnapshot().planner_choice);
  };

  auto [ref_paths, ref_choices] = run(1, 1, 0);
  uint64_t total = 0;
  for (uint64_t c : ref_choices) total += c;
  EXPECT_EQ(total, workload.size());

  for (auto [workers, intra, cache_mb] :
       {std::tuple<unsigned, unsigned, size_t>{1u, 1u, 16},
        {2u, 1u, 0},
        {4u, 2u, 16},
        {3u, 1u, 16}}) {
    auto [paths, choices] = run(workers, intra, cache_mb);
    EXPECT_EQ(paths, ref_paths)
        << "workers=" << workers << " intra=" << intra
        << " cache=" << cache_mb;
    EXPECT_EQ(choices, ref_choices)
        << "workers=" << workers << " intra=" << intra
        << " cache=" << cache_mb;
  }
}

}  // namespace
}  // namespace kpj
