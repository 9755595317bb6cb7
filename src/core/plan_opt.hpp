// Locality-aware plan optimizer (DESIGN.md §5i): turns the one-shot greedy
// cut of core/partitioner.cpp into a three-phase offline pipeline —
//
//   (1) gate dependency DAG (circuit/gate_dag.hpp) over the
//       physical-coordinate circuit, after the same mixed-swap lowering the
//       partitioner applies;
//   (2) list scheduling over the DAG's ready antichain, preferring gates
//       that EXTEND the current stage's kind: local runs swallow commuting
//       local gates hoisted across pair stages, pair stages on the same
//       pair qubit merge, permute stages sink until nothing else is ready
//       (they cost no codec work but flush the running stage), fences sink
//       likewise; the next pair qubit is chosen by a one-stage rollout
//       (how many ready + unlocked gates one stage on that qubit absorbs);
//   (3) a stage-fusion + reorder pass that swaps adjacent commuting stages
//       when the cache forecast (chunk_cache.hpp's forecast_plan_cost, a
//       replay of the plan through the same CachePolicy the online cache
//       runs) predicts fewer codec passes under the configured
//       --cache-budget, then re-partitions so newly adjacent mergeable
//       stages fuse.
//
// The result flows through the existing StagePlan interface with its
// predicted PlanCost attached; --plan-opt off bypasses all of this and
// reproduces the legacy partition() plan byte-for-byte (test-enforced).
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/types.hpp"
#include "core/chunk_cache.hpp"
#include "core/partitioner.hpp"

namespace memq::core {

struct PlanOptOptions {
  qubit_t chunk_qubits = 16;
  /// Cache budget the Belady forecast scores against (0 = cache off).
  std::uint64_t cache_budget_bytes = 0;
  /// Raw bytes of one decompressed chunk (2^chunk_qubits amplitudes).
  std::uint64_t chunk_raw_bytes = 0;
  /// Number of chunk slots in the state (2^(n - chunk_qubits)).
  index_t n_chunks = 0;
};

/// Applies the partitioner's mixed-locality SWAP lowering (SWAP touching
/// one high qubit, or with local controls, becomes CX·CX·CX) as a
/// standalone pass, so the DAG and scheduler see the gates the stages will
/// actually contain. Pure-permute and pure-local swaps pass through.
circuit::Circuit lower_mixed_swaps(const circuit::Circuit& circuit,
                                   qubit_t chunk_qubits);

/// Phase 2: DAG-legal reorder of `circuit` (already lowered) maximizing
/// stage extension. Returns the scheduled gate order; partition() of it
/// yields the stages the schedule intended.
circuit::Circuit schedule_locality(const circuit::Circuit& circuit,
                                   qubit_t chunk_qubits);

/// The chunk accesses one stage induces: kPermute carries its gate's chunk
/// permutation, kPair the pair-bit mask, kLocal/kMeasure sweep every slot.
/// The optional window [base, base + count) scopes it to one batch member.
StageAccess stage_access(const Stage& stage, qubit_t chunk_qubits,
                         index_t base = 0, index_t count = 0);

/// The access schedule of a whole plan, one stage_access() per stage. The
/// engine installs it on the cache (ChunkCache::set_plan) and the forecast
/// replays it, so both run one CachePolicy over one schedule.
std::vector<StageAccess> plan_accesses(const StagePlan& plan,
                                       qubit_t chunk_qubits);

/// Predicted cost of executing `plan` under `opt`'s cache budget: the
/// forecast_plan_cost replay of plan_accesses(plan).
PlanCost estimate_plan_cost(const StagePlan& plan, const PlanOptOptions& opt);

/// Full pipeline: lower -> DAG-schedule -> partition -> cache-aware stage
/// reorder/fusion -> cost estimate. `circuit` must already be in physical
/// coordinates (layout-mapped, swaps elided/fused as configured).
StagePlan build_optimized_plan(const circuit::Circuit& circuit,
                               const PlanOptOptions& opt);

}  // namespace memq::core
