#include "core/batch_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "common/timer.hpp"
#include "core/plan_opt.hpp"

namespace memq::core {

using circuit::Circuit;
using circuit::Gate;

namespace {

bool stage_equal(const Stage& a, const Stage& b) {
  return a.kind == b.kind && a.pair_qubit == b.pair_qubit &&
         a.gates == b.gates;
}

}  // namespace

BatchScheduler::BatchScheduler(qubit_t member_qubits,
                               const EngineConfig& config)
    : member_qubits_(member_qubits), k_(config.batch_size), config_(config) {
  MEMQ_CHECK(k_ >= 1, "batch size must be >= 1");
  MEMQ_CHECK(!config.optimize_layout && !config.elide_swaps,
             "batch mode requires the identity layout: disable "
             "optimize_layout and elide_swaps");
  // Member windows must span at least one whole chunk.
  config_.chunk_qubits = std::min<qubit_t>(config.chunk_qubits, member_qubits);
  index_qubits_ = static_cast<qubit_t>(std::bit_width(k_ - 1));
  span_ = index_t{1} << (member_qubits_ - config_.chunk_qubits);
  engine_ = std::make_unique<MemQSimEngine>(
      static_cast<qubit_t>(member_qubits_ + index_qubits_), config_);
  aborted_.assign(k_, false);
}

std::vector<Circuit> BatchScheduler::expand_members(
    const Circuit& base, const EngineConfig& config,
    const circuit::NoiseModel& noise) {
  const std::uint32_t k = config.batch_size;
  std::vector<Circuit> members;
  members.reserve(k);
  switch (config.batch_mode) {
    case BatchMode::kCircuits:
    case BatchMode::kShots:
      // K identical members; shots mode draws per-member samples with seed
      // config.seed + m after the (fully shared) execution.
      members.assign(k, base);
      break;
    case BatchMode::kSweep:
      // Rotation-parameter sweep: member m scales every parametrized angle
      // by (m + 1) / K, so member K-1 is the base circuit and the members
      // share exactly the non-parametrized prefix of the plan.
      for (std::uint32_t m = 0; m < k; ++m) {
        Circuit variant(base.n_qubits());
        const double scale =
            static_cast<double>(m + 1) / static_cast<double>(k);
        for (const Gate& g : base.gates()) {
          Gate v = g;
          for (double& p : v.params) p *= scale;
          variant.append(std::move(v));
        }
        members.push_back(std::move(variant));
      }
      break;
    case BatchMode::kTrajectories:
      for (std::uint32_t m = 0; m < k; ++m)
        members.push_back(
            circuit::sample_noisy_trajectory(base, noise, config.seed + m));
      break;
  }
  return members;
}

void BatchScheduler::build_script(const std::vector<std::uint32_t>& group,
                                  std::size_t depth) {
  const std::uint32_t rep = group.front();
  const std::vector<Stage>& rep_stages = plans_[rep].stages;

  // Advance while every member still has a stage here and agrees on it.
  const auto all_share = [&](std::size_t s) {
    for (const std::uint32_t m : group) {
      const std::vector<Stage>& st = plans_[m].stages;
      if (s >= st.size() || !stage_equal(st[s], rep_stages[s])) return false;
    }
    return true;
  };
  std::size_t d = depth;
  while (d < rep_stages.size() && all_share(d)) {
    Op op;
    op.kind = Op::Kind::kStage;
    op.member = rep;
    op.stage_index = d;
    op.group_size = static_cast<std::uint32_t>(group.size());
    op.access_index = accesses_.size();
    accesses_.push_back(stage_access(rep_stages[d], config_.chunk_qubits,
                                     member_base(rep), span_));
    script_.push_back(op);
    ++d;
  }

  // Partition: members whose plan ends at d are done; the rest subgroup by
  // their (pairwise-equal) stage d, preserving member order.
  std::vector<std::uint32_t> done;
  std::vector<std::vector<std::uint32_t>> subgroups;
  for (const std::uint32_t m : group) {
    if (plans_[m].stages.size() == d) {
      done.push_back(m);
      continue;
    }
    bool placed = false;
    for (std::vector<std::uint32_t>& sg : subgroups) {
      if (stage_equal(plans_[m].stages[d], plans_[sg.front()].stages[d])) {
        sg.push_back(m);
        placed = true;
        break;
      }
    }
    if (!placed) subgroups.push_back({m});
  }

  // The shared-prefix state lives in the rep's window. Fan it out to every
  // other destination BEFORE the rep's own subgroup mutates it: finished
  // members first, then each diverging subgroup's new representative.
  const auto clone_to = [&](std::uint32_t dst) {
    Op op;
    op.kind = Op::Kind::kClone;
    op.member = rep;
    op.dst = dst;
    script_.push_back(op);
  };
  for (const std::uint32_t m : done)
    if (m != rep) clone_to(m);
  for (const std::vector<std::uint32_t>& sg : subgroups)
    if (sg.front() != rep) clone_to(sg.front());

  for (const std::vector<std::uint32_t>& sg : subgroups) build_script(sg, d);
}

void BatchScheduler::run(const std::vector<Circuit>& members) {
  MEMQ_CHECK(members.size() == k_,
             "batch expects " << k_ << " members, got " << members.size());
  for (const Circuit& c : members) {
    MEMQ_CHECK(c.n_qubits() == member_qubits_,
               "every batch member must have " << member_qubits_
                                               << " qubits, got "
                                               << c.n_qubits());
    MEMQ_CHECK(!c.has_nonunitary(),
               "batch members must be unitary (no measure/reset) — sampling "
               "happens per member window after the run");
  }

  plans_.clear();
  plans_.reserve(k_);
  for (const Circuit& c : members) plans_.push_back(engine_->plan_for(c));

  script_.clear();
  accesses_.clear();
  std::vector<std::uint32_t> root(k_);
  std::iota(root.begin(), root.end(), 0u);
  build_script(root, 0);

  engine_->reset();  // member 0's window holds |0..0>, the rest are zero
  std::fill(aborted_.begin(), aborted_.end(), false);
  stats_ = BatchStats{};
  stats_.members = k_;
  stats_.padded_members = std::uint32_t{1} << index_qubits_;
  stats_.member_index_qubits = index_qubits_;
  for (const StagePlan& p : plans_)
    stats_.total_member_stages += p.stages.size();

  const ChunkStore& store = engine_->pager().store();
  const std::uint64_t loads0 = store.loads();
  const std::uint64_t stores0 = store.stores();
  WallTimer wall;

  if (engine_->pager().cache_enabled()) engine_->install_batch_plan(accesses_);
  for (const Op& op : script_) {
    if (op.kind == Op::Kind::kClone) {
      // Clone sources are always fork-point reps (group size > 1), and the
      // abort site only fires on size-1 groups — a source is never stale.
      engine_->fanout_chunks(member_base(op.member), member_base(op.dst),
                             span_);
      stats_.clone_chunks += span_;
      continue;
    }
    if (aborted_[op.member]) continue;
    // Injected member failure: provably member-local. Fires only while the
    // executing group is this one member, whose window no sibling shares.
    if (op.group_size == 1 && MEMQ_FAULT("batch.member.abort")) {
      aborted_[op.member] = true;
      continue;
    }
    engine_->run_stage_window(plans_[op.member].stages[op.stage_index],
                              member_base(op.member), span_, op.access_index);
    ++stats_.executed_stages;
    if (op.group_size > 1) ++stats_.shared_stages;
  }
  engine_->clear_batch_plan();
  engine_->sync_devices();

  stats_.wall_seconds = wall.seconds();
  stats_.chunk_loads = store.loads() - loads0;
  stats_.chunk_stores = store.stores() - stores0;
  if (stats_.wall_seconds > 0.0) {
    stats_.circuits_per_second =
        static_cast<double>(k_) / stats_.wall_seconds;
    const double member_state_mb =
        static_cast<double>((index_t{1} << member_qubits_) * sizeof(amp_t)) /
        (1024.0 * 1024.0);
    stats_.amortized_mb_per_s =
        static_cast<double>(stats_.total_member_stages) * member_state_mb /
        stats_.wall_seconds;
  }
  ran_ = true;
}

void BatchScheduler::check_member(std::uint32_t m) const {
  MEMQ_CHECK(ran_, "query before run()");
  MEMQ_CHECK(m < k_, "member " << m << " out of range (batch of " << k_
                               << ")");
}

double BatchScheduler::member_norm(std::uint32_t m) {
  check_member(m);
  return engine_->norm_window(member_base(m), span_);
}

std::map<index_t, std::uint64_t> BatchScheduler::member_counts(
    std::uint32_t m, std::size_t shots) {
  return member_counts(m, shots, config_.seed + m);
}

std::map<index_t, std::uint64_t> BatchScheduler::member_counts(
    std::uint32_t m, std::size_t shots, std::uint64_t seed) {
  check_member(m);
  Prng rng(seed);
  return engine_->sample_counts_window(shots, member_base(m), span_, rng);
}

sv::StateVector BatchScheduler::member_dense(std::uint32_t m) {
  check_member(m);
  return engine_->to_dense_window(member_base(m), span_);
}

double BatchScheduler::member_expectation(std::uint32_t m,
                                          const sv::PauliString& pauli) {
  check_member(m);
  return engine_->expectation_window(pauli, member_base(m), span_);
}

std::vector<std::map<index_t, std::uint64_t>> run_batch_serial(
    EngineKind kind, qubit_t member_qubits, const EngineConfig& config,
    const std::vector<Circuit>& members, std::size_t shots) {
  std::vector<std::map<index_t, std::uint64_t>> out;
  out.reserve(members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    EngineConfig cfg = config;
    cfg.batch_size = 1;
    // Mirrors BatchScheduler::member_counts' per-member sampling seed.
    cfg.seed = config.seed + m;
    const std::unique_ptr<Engine> eng =
        make_engine(kind, member_qubits, cfg);
    eng->run(members[m]);
    out.push_back(eng->sample_counts(shots));
  }
  return out;
}

}  // namespace memq::core
