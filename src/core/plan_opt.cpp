#include "core/plan_opt.hpp"

#include <algorithm>
#include <set>

#include "circuit/gate_dag.hpp"
#include "common/error.hpp"
#include "core/chunk_exec.hpp"

namespace memq::core {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateDag;
using circuit::GateKind;

circuit::Circuit lower_mixed_swaps(const Circuit& circuit,
                                   qubit_t chunk_qubits) {
  Circuit out(circuit.n_qubits());
  for (const Gate& g : circuit.gates()) {
    if (g.kind == GateKind::kSwap &&
        (g.targets[0] >= chunk_qubits || g.targets[1] >= chunk_qubits) &&
        !is_pure_permute(g, chunk_qubits)) {
      // Same three-CX expansion the partitioner applies, so the stages of
      // the scheduled order match what Builder would have produced.
      const qubit_t a = g.targets[0], b = g.targets[1];
      Gate cx_ab{GateKind::kX, {b}, g.controls, {}};
      cx_ab.controls.push_back(a);
      Gate cx_ba{GateKind::kX, {a}, g.controls, {}};
      cx_ba.controls.push_back(b);
      out.append(cx_ab);
      out.append(cx_ba);
      out.append(cx_ab);
      continue;
    }
    out.append(g);
  }
  return out;
}

namespace {

enum class NodeCls : std::uint8_t { kFence, kPermute, kLocal, kPair };

/// Past this size the one-stage rollout falls back to a ready-count score
/// (the rollout copies the indegree array per candidate).
constexpr std::size_t kRolloutCap = 20000;

}  // namespace

circuit::Circuit schedule_locality(const Circuit& circuit,
                                   qubit_t chunk_qubits) {
  const GateDag dag = circuit::build_gate_dag(circuit);
  const std::size_t n = dag.size();

  std::vector<NodeCls> cls(n);
  std::vector<qubit_t> pairq(n, 0);
  std::vector<std::size_t> indeg(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Gate& g = dag.nodes[i].gate;
    indeg[i] = dag.nodes[i].preds.size();
    if (g.is_nonunitary()) {
      cls[i] = NodeCls::kFence;
    } else if (is_pure_permute(g, chunk_qubits)) {
      cls[i] = NodeCls::kPermute;
    } else if (is_chunk_local(g, chunk_qubits)) {
      cls[i] = NodeCls::kLocal;
    } else {
      cls[i] = NodeCls::kPair;
      pairq[i] = pair_high_target(g, chunk_qubits);
    }
  }

  std::set<std::size_t> ready;  // ordered by node index: deterministic picks
  for (std::size_t i = 0; i < n; ++i)
    if (indeg[i] == 0) ready.insert(i);

  Circuit out(circuit.n_qubits());
  enum class Cur : std::uint8_t { kNone, kLocal, kPair };
  Cur cur = Cur::kNone;
  qubit_t cur_q = 0;

  const auto emit = [&](std::size_t i) {
    out.append(dag.nodes[i].gate);
    ready.erase(i);
    for (const std::size_t s : dag.nodes[i].succs)
      if (--indeg[s] == 0) ready.insert(s);
    switch (cls[i]) {
      case NodeCls::kLocal:
        // Joins the running stage whatever its kind (Builder absorbs local
        // gates into pair stages); opens a local stage from nothing.
        if (cur == Cur::kNone) cur = Cur::kLocal;
        break;
      case NodeCls::kPair:
        cur = Cur::kPair;
        cur_q = pairq[i];
        break;
      case NodeCls::kPermute:
      case NodeCls::kFence:
        cur = Cur::kNone;  // flushes the running stage
        break;
    }
  };

  // How many gates one stage on pair qubit `q` would absorb from here:
  // every ready (and transitively unlocked) local or pair-q gate.
  const auto rollout = [&](qubit_t q) -> std::size_t {
    if (n > kRolloutCap) {
      std::size_t count = 0;
      for (const std::size_t i : ready)
        if (cls[i] == NodeCls::kLocal ||
            (cls[i] == NodeCls::kPair && pairq[i] == q))
          ++count;
      return count;
    }
    std::vector<std::size_t> indeg2 = indeg;
    std::vector<std::size_t> work(ready.begin(), ready.end());
    std::size_t count = 0;
    for (std::size_t k = 0; k < work.size(); ++k) {
      const std::size_t i = work[k];
      if (cls[i] != NodeCls::kLocal &&
          (cls[i] != NodeCls::kPair || pairq[i] != q))
        continue;
      ++count;
      for (const std::size_t s : dag.nodes[i].succs)
        if (--indeg2[s] == 0) work.push_back(s);
    }
    return count;
  };

  while (!ready.empty()) {
    // 1. Extend the current pair stage: the earliest ready gate that joins
    //    it (a local, or a pair gate on the same qubit).
    if (cur == Cur::kPair) {
      bool extended = false;
      for (const std::size_t i : ready) {
        if (cls[i] == NodeCls::kLocal ||
            (cls[i] == NodeCls::kPair && pairq[i] == cur_q)) {
          emit(i);
          extended = true;
          break;
        }
      }
      if (extended) continue;
    }
    // 2. Locals are always free to go: they extend a local run or are
    //    absorbed by whatever pair stage they end up adjacent to.
    {
      bool emitted = false;
      for (const std::size_t i : ready) {
        if (cls[i] == NodeCls::kLocal) {
          emit(i);
          emitted = true;
          break;
        }
      }
      if (emitted) continue;
    }
    // 3. Open the pair stage that absorbs the most work (one-stage
    //    rollout); ties go to the earliest ready gate.
    {
      std::size_t best_node = n;
      std::size_t best_score = 0;
      std::set<qubit_t> seen;
      for (const std::size_t i : ready) {
        if (cls[i] != NodeCls::kPair) continue;
        if (!seen.insert(pairq[i]).second) continue;  // first ready of q
        const std::size_t score = rollout(pairq[i]);
        if (best_node == n || score > best_score) {
          best_node = i;
          best_score = score;
        }
      }
      if (best_node != n) {
        emit(best_node);
        continue;
      }
    }
    // 4. Permutes sink: emitted only when no codec-bearing gate is ready
    //    (they cost nothing but flush the running stage).
    // 5. Fences last of all.
    {
      std::size_t fence = n;
      bool emitted = false;
      for (const std::size_t i : ready) {
        if (cls[i] == NodeCls::kPermute) {
          emit(i);
          emitted = true;
          break;
        }
        if (cls[i] == NodeCls::kFence && fence == n) fence = i;
      }
      if (emitted) continue;
      MEMQ_CHECK(fence != n, "plan-opt scheduler stalled with "
                                 << ready.size() << " ready gates");
      emit(fence);
    }
  }
  MEMQ_CHECK(out.size() == n, "plan-opt scheduler dropped gates: " << out.size()
                                                                   << "/" << n);
  return out;
}

StageAccess stage_access(const Stage& stage, qubit_t chunk_qubits,
                         index_t base, index_t count) {
  StageAccess a;
  a.base = base;
  a.count = count;
  switch (stage.kind) {
    case StageKind::kPermute:
      a.kind = StageAccess::Kind::kPermute;
      a.permute = chunk_permutation(stage.gates.at(0), chunk_qubits);
      break;
    case StageKind::kPair:
      a.kind = StageAccess::Kind::kPair;
      a.pair_mask = index_t{1} << (stage.pair_qubit - chunk_qubits);
      break;
    case StageKind::kLocal:
    case StageKind::kMeasure:
      a.kind = StageAccess::Kind::kEvery;
      break;
  }
  return a;
}

std::vector<StageAccess> plan_accesses(const StagePlan& plan,
                                       qubit_t chunk_qubits) {
  std::vector<StageAccess> accesses;
  accesses.reserve(plan.stages.size());
  for (const Stage& stage : plan.stages)
    accesses.push_back(stage_access(stage, chunk_qubits));
  return accesses;
}

PlanCost estimate_plan_cost(const StagePlan& plan, const PlanOptOptions& opt) {
  return forecast_plan_cost(plan_accesses(plan, opt.chunk_qubits),
                            opt.n_chunks, opt.chunk_raw_bytes,
                            opt.cache_budget_bytes);
}

namespace {

/// Adjacent-stage local search: swap commuting neighbors when the Belady
/// forecast predicts fewer codec passes. Returns true if anything moved.
bool reorder_stages_for_cache(StagePlan& plan, const PlanOptOptions& opt) {
  if (opt.chunk_raw_bytes == 0 ||
      opt.cache_budget_bytes < opt.chunk_raw_bytes)
    return false;  // no cache: stage order does not change codec cost
  if (opt.n_chunks == 0 || opt.n_chunks > 4096) return false;
  if (plan.stages.size() < 3 || plan.stages.size() > 64) return false;

  const auto stages_commute = [](const Stage& a, const Stage& b) {
    if (a.kind == StageKind::kMeasure || b.kind == StageKind::kMeasure)
      return false;
    for (const Gate& ga : a.gates)
      for (const Gate& gb : b.gates)
        if (!circuit::gates_commute(ga, gb)) return false;
    return true;
  };

  bool moved = false;
  double best = estimate_plan_cost(plan, opt).codec_passes();
  for (int sweep = 0; sweep < 2; ++sweep) {
    bool improved = false;
    for (std::size_t i = 0; i + 1 < plan.stages.size(); ++i) {
      if (!stages_commute(plan.stages[i], plan.stages[i + 1])) continue;
      std::swap(plan.stages[i], plan.stages[i + 1]);
      const double cand = estimate_plan_cost(plan, opt).codec_passes();
      if (cand < best) {
        best = cand;
        improved = true;
        moved = true;
      } else {
        std::swap(plan.stages[i], plan.stages[i + 1]);
      }
    }
    if (!improved) break;
  }
  return moved;
}

}  // namespace

StagePlan build_optimized_plan(const Circuit& circuit,
                               const PlanOptOptions& opt) {
  const Circuit lowered = lower_mixed_swaps(circuit, opt.chunk_qubits);
  const Circuit scheduled = schedule_locality(lowered, opt.chunk_qubits);
  StagePlan plan = partition(scheduled, opt.chunk_qubits);
  if (reorder_stages_for_cache(plan, opt)) {
    // Re-partition the reordered gate sequence so stages the swap made
    // adjacent (same pair qubit, local next to local) fuse.
    Circuit flat(circuit.n_qubits());
    for (const Stage& stage : plan.stages)
      for (const Gate& g : stage.gates) flat.append(g);
    plan = partition(flat, opt.chunk_qubits);
  }
  plan.cost = estimate_plan_cost(plan, opt);
  return plan;
}

}  // namespace memq::core
