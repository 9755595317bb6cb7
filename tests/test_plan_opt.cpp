// Unit tests for the locality-aware plan optimizer (core/plan_opt.hpp):
// the plan-opt-off identity guarantee, the hoist/merge/sink scheduling
// wins, the Belady cost forecast, and the elide-before-partition ordering.
#include "core/plan_opt.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/workloads.hpp"
#include "common/prng.hpp"
#include "core/engine.hpp"
#include "core/memq_engine.hpp"
#include "core/partitioner.hpp"

namespace memq::core {
namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

PlanOptOptions opts_for(qubit_t chunk_qubits, qubit_t n,
                        std::uint64_t cache_chunks = 0) {
  PlanOptOptions opt;
  opt.chunk_qubits = chunk_qubits;
  opt.chunk_raw_bytes = sizeof(amp_t) << chunk_qubits;
  opt.n_chunks = index_t{1} << (n - chunk_qubits);
  opt.cache_budget_bytes = cache_chunks * opt.chunk_raw_bytes;
  return opt;
}

std::size_t total_gates(const StagePlan& plan) {
  std::size_t n = 0;
  for (const Stage& s : plan.stages) n += s.gates.size();
  return n;
}

bool plans_identical(const StagePlan& a, const StagePlan& b) {
  if (a.stages.size() != b.stages.size()) return false;
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    const Stage &sa = a.stages[i], &sb = b.stages[i];
    if (sa.kind != sb.kind || sa.pair_qubit != sb.pair_qubit ||
        sa.gates.size() != sb.gates.size())
      return false;
    for (std::size_t g = 0; g < sa.gates.size(); ++g) {
      const Gate &ga = sa.gates[g], &gb = sb.gates[g];
      if (ga.kind != gb.kind || ga.targets != gb.targets ||
          ga.controls != gb.controls || ga.params != gb.params)
        return false;
    }
  }
  return true;
}

// --- plan-opt off: the legacy plan, gate for gate --------------------------

TEST(PlanOptOff, EngineReproducesLegacyPartitionExactly) {
  for (std::uint64_t seed = 300; seed < 310; ++seed) {
    Prng rng(seed);
    const qubit_t n = static_cast<qubit_t>(5 + rng.uniform_index(5));
    const qubit_t chunk = static_cast<qubit_t>(
        2 + rng.uniform_index(static_cast<std::uint64_t>(n - 2)));
    const Circuit circ = circuit::make_random_circuit(n, 4, seed, true);

    EngineConfig cfg;
    cfg.chunk_qubits = chunk;
    cfg.plan_opt = false;
    MemQSimEngine engine(n, cfg);
    engine.run(circ);
    ASSERT_TRUE(engine.last_plan().has_value());

    const StagePlan legacy = partition(circ, chunk);
    EXPECT_TRUE(plans_identical(*engine.last_plan(), legacy))
        << "seed=" << seed << ": --plan-opt off must match the legacy plan";
  }
}

// --- scheduling wins -------------------------------------------------------

TEST(PlanOpt, HoistsCommutingLocalsAcrossPairStages) {
  // Written order: h(5) x(0) h(6) x(1) h(5) -> legacy gives pair(5),
  // pair(6), pair(5) = 3 pair stages (locals absorbed). The DAG lets both
  // h(5)s merge: 2 pair stages.
  Circuit c(8);
  c.h(5).x(0).h(6).x(1).h(5);
  const StagePlan legacy = partition(c, 4);
  const StagePlan opt = build_optimized_plan(c, opts_for(4, 8));
  EXPECT_EQ(legacy.stats.pair_stages, 3u);
  EXPECT_EQ(opt.stats.pair_stages, 2u);
  EXPECT_EQ(total_gates(opt), 5u);
}

TEST(PlanOpt, MergesSameQubitPairStages) {
  Circuit c(8);
  c.h(6).h(5).h(6);
  const StagePlan legacy = partition(c, 4);
  const StagePlan opt = build_optimized_plan(c, opts_for(4, 8));
  EXPECT_EQ(legacy.stats.pair_stages, 3u);
  EXPECT_EQ(opt.stats.pair_stages, 2u);
}

TEST(PlanOpt, PermutesSinkBelowLocals) {
  // x(7) is a pure permutation; legacy splits h(0) | permute | h(1) into
  // three stages, the scheduler keeps the locals together.
  Circuit c(8);
  c.h(0).x(7).h(1);
  const StagePlan legacy = partition(c, 4);
  const StagePlan opt = build_optimized_plan(c, opts_for(4, 8));
  EXPECT_EQ(legacy.stages.size(), 3u);
  EXPECT_EQ(opt.stages.size(), 2u);
  EXPECT_EQ(opt.stats.local_stages, 1u);
  EXPECT_EQ(opt.stats.permute_stages, 1u);
}

TEST(PlanOpt, GroupsIndependentPairWork) {
  // h(5) h(6) rx(5) rx(6): all independent; one stage per pair qubit
  // instead of four.
  Circuit c(8);
  c.h(5).h(6).rx(5, 0.3).rx(6, 0.4);
  const StagePlan legacy = partition(c, 4);
  const StagePlan opt = build_optimized_plan(c, opts_for(4, 8));
  EXPECT_EQ(legacy.stats.pair_stages, 4u);
  EXPECT_EQ(opt.stats.pair_stages, 2u);
}

TEST(PlanOpt, QftNeedsFewerPairStages) {
  // The QFT's cp gates are diagonal on both wires, so the bit-reversal
  // tail's lowered CXs hoist into the per-qubit pair stages.
  const qubit_t n = 10, chunk = 5;
  const Circuit qft = circuit::make_qft(n);
  const StagePlan legacy = partition(qft, chunk);
  const StagePlan opt = build_optimized_plan(qft, opts_for(chunk, n));
  EXPECT_LT(opt.stats.pair_stages, legacy.stats.pair_stages);
  EXPECT_GT(opt.stats.gates_per_codec_pass(),
            legacy.stats.gates_per_codec_pass());
  EXPECT_EQ(total_gates(opt), total_gates(legacy));
}

TEST(PlanOpt, MeasurementsStayOrdered) {
  Circuit c(8);
  c.h(5).measure(0).h(5);
  const StagePlan opt = build_optimized_plan(c, opts_for(4, 8));
  // The fence keeps three stages: pair, measure, pair.
  ASSERT_EQ(opt.stages.size(), 3u);
  EXPECT_EQ(opt.stages[1].kind, StageKind::kMeasure);
}

// --- stats guards ----------------------------------------------------------

TEST(PartitionStats, GatesPerCodecPassGuardsZeroStages) {
  PartitionStats empty{};
  EXPECT_EQ(empty.gates_per_codec_pass(), 0.0);
  const StagePlan plan = partition(Circuit(4), 2);
  EXPECT_EQ(plan.stats.gates_per_codec_pass(), 0.0);
}

// --- cost forecast ---------------------------------------------------------

TEST(PlanCostForecast, CachelessCountsAreExact) {
  // 3 pair stages on 8 chunks, no cache: every stage decodes and
  // re-encodes all 8 chunks (4 pairs x 2 loads / 2 stores each).
  Circuit c(8);
  c.h(6).h(7).h(6);  // alternating pair qubits: no stage merging
  const StagePlan plan = partition(c, 5);  // 8 chunks
  ASSERT_EQ(plan.stages.size(), 3u);
  const PlanCost cost = estimate_plan_cost(plan, opts_for(5, 8, 0));
  EXPECT_TRUE(cost.exact);
  EXPECT_EQ(cost.chunk_loads, 24u);
  EXPECT_EQ(cost.chunk_stores, 24u);
  EXPECT_EQ(cost.cache_hits, 0u);
  EXPECT_EQ(cost.cache_misses, 24u);
  EXPECT_EQ(cost.codec_encodes, 24u);
}

TEST(PlanCostForecast, FullCacheBudgetElidesRepeatPasses) {
  Circuit c(8);
  c.h(6).h(7).h(6);
  const StagePlan plan = partition(c, 5);
  const PlanCost cold = estimate_plan_cost(plan, opts_for(5, 8, 0));
  const PlanCost warm = estimate_plan_cost(plan, opts_for(5, 8, 8));
  EXPECT_TRUE(warm.exact);
  // All 8 chunks fit: each misses once, then hits; dirty flush at the end.
  EXPECT_EQ(warm.cache_misses, 8u);
  EXPECT_EQ(warm.cache_hits, 16u);
  EXPECT_EQ(warm.codec_encodes, 8u);
  EXPECT_LT(warm.codec_passes(), cold.codec_passes());
}

TEST(PlanCostForecast, PartialBudgetLandsBetween) {
  const Circuit qft = circuit::make_qft(10);
  const StagePlan plan = partition(qft, 5);
  const double cold =
      estimate_plan_cost(plan, opts_for(5, 10, 0)).codec_passes();
  const double half =
      estimate_plan_cost(plan, opts_for(5, 10, 16)).codec_passes();
  const double full =
      estimate_plan_cost(plan, opts_for(5, 10, 32)).codec_passes();
  EXPECT_LE(full, half);
  EXPECT_LE(half, cold);
  EXPECT_LT(full, cold);
}

// The forecast replays the live cache's own policy, so on a dense state
// (no zero-chunk skips), unpipelined, with no codec or dedup shortcuts, its
// load/hit/miss counts must equal what the run actually did — including
// across permute stages, where the cache's residents move with their blobs.
TEST(PlanCostForecast, EqualsLiveCacheOnDenseState) {
  const qubit_t n = 14, chunk = 8;
  Prng rng(2024);
  std::vector<amp_t> dense(index_t{1} << n);
  for (amp_t& a : dense) a = rng.normal_amp();
  for (const char* name : {"qft", "random", "qaoa"}) {
    const Circuit c = std::string(name) == "qft"
                          ? circuit::make_qft(n)
                          : circuit::make_workload(name, n, 3);
    for (const std::uint64_t divisor : {4ull, 2ull}) {
      for (const bool plan_opt : {false, true}) {
        EngineConfig cfg;
        cfg.chunk_qubits = chunk;
        cfg.codec.compressor = "null";
        cfg.dedup = false;
        cfg.pipelined = false;
        cfg.plan_opt = plan_opt;
        cfg.cache_budget_bytes = (sizeof(amp_t) << n) / divisor;
        MemQSimEngine engine(n, cfg);
        engine.load_dense(dense);
        engine.run(c);
        const StageReport& r = *engine.stage_report();
        const std::string where = std::string(name) + " budget=1/" +
                                  std::to_string(divisor) +
                                  " plan_opt=" + (plan_opt ? "on" : "off");
        ASSERT_TRUE(r.planned.exact) << where;
        EXPECT_EQ(r.planned.chunk_loads,
                  r.total.cache_hits + r.total.cache_misses)
            << where;
        EXPECT_EQ(r.planned.cache_hits, r.total.cache_hits) << where;
        EXPECT_EQ(r.planned.cache_misses, r.total.cache_misses) << where;
        EXPECT_EQ(r.planned.cache_misses, r.total.chunk_loads) << where;
      }
    }
  }
}

TEST(PlanOpt, OptimizedPlanForecastNoWorseOnQft) {
  const qubit_t n = 10, chunk = 5;
  const Circuit qft = circuit::make_qft(n);
  for (const std::uint64_t cache_chunks : {0ull, 8ull, 32ull}) {
    const PlanOptOptions opt = opts_for(chunk, n, cache_chunks);
    StagePlan legacy = partition(qft, chunk);
    legacy.cost = estimate_plan_cost(legacy, opt);
    const StagePlan optimized = build_optimized_plan(qft, opt);
    EXPECT_LE(optimized.cost.codec_passes(), legacy.cost.codec_passes())
        << "cache_chunks=" << cache_chunks;
  }
}

// --- swap elision ordering -------------------------------------------------

TEST(ElideSwaps, RunsBeforePartitionOnEveryPath) {
  // A QFT ends in uncontrolled SWAPs. With elision on, they must be folded
  // into the layout BEFORE partitioning — so no stage may contain a swap
  // lowered to CXs or a swap-driven permute stage.
  const qubit_t n = 8, chunk = 4;
  const Circuit qft = circuit::make_qft(n);
  for (const bool plan_opt : {false, true}) {
    EngineConfig cfg;
    cfg.chunk_qubits = chunk;
    cfg.elide_swaps = true;
    cfg.plan_opt = plan_opt;
    MemQSimEngine engine(n, cfg);
    engine.run(qft);
    ASSERT_TRUE(engine.last_plan().has_value());
    for (const Stage& stage : engine.last_plan()->stages)
      for (const Gate& g : stage.gates)
        EXPECT_NE(g.kind, GateKind::kSwap)
            << "plan_opt=" << plan_opt
            << ": swap survived into the partition";
  }
}

}  // namespace
}  // namespace memq::core
