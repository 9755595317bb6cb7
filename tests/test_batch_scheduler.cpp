// Batched throughput mode (ISSUE 10): the fork-tree scheduler's contracts.
// K = 1 is literally a serial run; member windows survive K > chunks-per-
// member geometry; the divergence-point fan-out CoW-shares chunks without
// ever leaking one member's amplitudes into another; member ordering and
// the whole schedule are deterministic; and concurrent batches on separate
// engines cannot clobber each other's cache plans (SweepPlanGuard is
// engine-scoped) or counters (ChunkCache::reset_stats is instance-scoped).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "circuit/workloads.hpp"
#include "common/error.hpp"
#include "core/batch_scheduler.hpp"
#include "core/engine.hpp"

namespace memq::core {
namespace {

// Null codec throughout: lossless, so a batch member and its serial run are
// bit-identical regardless of how the cache changes round-trip counts.
EngineConfig batch_cfg(std::uint32_t k, qubit_t chunk_qubits,
                       std::uint64_t cache_chunks = 0) {
  EngineConfig cfg;
  cfg.chunk_qubits = chunk_qubits;
  cfg.codec.compressor = "null";
  cfg.cache_budget_bytes = cache_chunks * (sizeof(amp_t) << chunk_qubits);
  cfg.batch_size = k;
  return cfg;
}

// The serial oracle arm for member m: a fresh engine with seed + m, exactly
// what run_batch_serial does per member.
sv::StateVector serial_dense(qubit_t n, const EngineConfig& cfg,
                             const circuit::Circuit& c, std::uint32_t m) {
  EngineConfig one = cfg;
  one.batch_size = 1;
  one.seed = cfg.seed + m;
  auto engine = make_engine(EngineKind::kMemQSim, n, one);
  engine->run(c);
  return engine->to_dense();
}

// A shared GHZ prefix, then a member-specific rotation: every plan agrees
// until the divergence point, so the fork tree shares the prefix and fans
// out once.
std::vector<circuit::Circuit> diverging_members(qubit_t n, std::uint32_t k) {
  std::vector<circuit::Circuit> members;
  for (std::uint32_t m = 0; m < k; ++m) {
    circuit::Circuit c = circuit::make_ghz(n);
    c.rz(0, 0.1 + 0.2 * static_cast<double>(m));
    c.h(1);
    members.push_back(std::move(c));
  }
  return members;
}

TEST(BatchScheduler, KOneIsBitIdenticalToSerial) {
  const qubit_t n = 6;
  const EngineConfig cfg = batch_cfg(1, 3);
  const auto circ = circuit::make_random_circuit(n, 5, 31, true);

  BatchScheduler batch(n, cfg);
  batch.run({circ});

  EXPECT_EQ(batch.member_dense(0).max_abs_diff(serial_dense(n, cfg, circ, 0)),
            0.0);
  const BatchStats& s = batch.stats();
  EXPECT_EQ(s.members, 1u);
  EXPECT_EQ(s.member_index_qubits, 0);
  EXPECT_EQ(s.clone_chunks, 0u);
  EXPECT_EQ(s.executed_stages, s.total_member_stages)
      << "K = 1 has nothing to share";
  EXPECT_EQ(s.shared_stages, 0u);
}

// BatchScheduler::run drives the engine stage by stage and never calls
// run(), so the device counters must reach telemetry() through
// sync_devices(); an empty run() afterwards moves no data.
TEST(BatchScheduler, DeviceTelemetryIsCurrentAfterRun) {
  const qubit_t n = 10;
  BatchScheduler batch(n, batch_cfg(4, 4));
  batch.run(std::vector<circuit::Circuit>(4, circuit::make_qft(n)));
  MemQSimEngine& engine = batch.engine();
  const EngineTelemetry after = engine.telemetry();
  EXPECT_GT(after.chunk_loads, 0u);
  EXPECT_GT(after.h2d_bytes, 0u);
  EXPECT_GT(after.d2h_bytes, 0u);
  EXPECT_GT(after.kernel_launches, 0u);
  EXPECT_GT(after.modeled_total_seconds, 0.0);

  engine.run(circuit::Circuit(engine.n_qubits()));
  const EngineTelemetry empty = engine.telemetry();
  EXPECT_EQ(empty.h2d_bytes, after.h2d_bytes);
  EXPECT_EQ(empty.d2h_bytes, after.d2h_bytes);
  EXPECT_EQ(empty.kernel_launches, after.kernel_launches);
  // The empty run charges only its own planning to the modeled clock.
  EXPECT_NEAR(empty.modeled_total_seconds - after.modeled_total_seconds,
              empty.cpu_phases.get("offline_partition") -
                  after.cpu_phases.get("offline_partition"),
              1e-12);
}

TEST(BatchScheduler, MoreMembersThanChunksPerMember) {
  // span = 2 chunks per member, K = 8 members: the member-index qubits
  // dominate the chunk index, so any window-arithmetic slip corrupts a
  // sibling. With a single non-local qubit every member plan is ONE pair
  // stage, so divergent members fork at depth 0 — the whole batch is clone
  // fan-out plus per-member solo stages, the worst case for the window
  // arithmetic.
  const qubit_t n = 5;
  const EngineConfig cfg = batch_cfg(8, 4);
  const auto members = diverging_members(n, 8);

  BatchScheduler batch(n, cfg);
  batch.run(members);

  ASSERT_EQ(batch.member_span(), 2u);
  for (std::uint32_t m = 0; m < 8; ++m)
    EXPECT_EQ(batch.member_dense(m).max_abs_diff(
                  serial_dense(n, cfg, members[m], m)),
              0.0)
        << "member " << m << " diverged from its serial run";
  EXPECT_GT(batch.stats().clone_chunks, 0u)
      << "a depth-0 fork must fan the initial state out to every subgroup";

  // Identical members (shots mode) at the same geometry: the fork tree
  // degenerates to one representative executing everything, so sharing is
  // total even though K is 4x the chunks per member.
  BatchScheduler shots(n, cfg);
  shots.run(std::vector<circuit::Circuit>(8, members[0]));
  EXPECT_GT(shots.stats().shared_stages, 0u);
  EXPECT_EQ(shots.stats().executed_stages,
            shots.stats().total_member_stages / 8);
  for (std::uint32_t m = 0; m < 8; ++m)
    EXPECT_EQ(shots.member_dense(m).max_abs_diff(
                  serial_dense(n, cfg, members[0], m)),
              0.0)
        << "shots member " << m;
}

TEST(BatchScheduler, DivergencePointFanOutSharesChunksUnderDedup) {
  // The fan-out clones byte-identical blobs, so with dedup on the members'
  // shared prefix must coalesce onto one physical copy (dedup hits), and
  // the post-divergence writes must split the shares WITHOUT corrupting any
  // sibling — every member still bit-identical to its own serial run.
  const qubit_t n = 7;
  EngineConfig cfg = batch_cfg(4, 4, /*cache_chunks=*/4);
  ASSERT_TRUE(cfg.dedup);
  const auto members = diverging_members(n, 4);

  BatchScheduler batch(n, cfg);
  batch.run(members);

  for (std::uint32_t m = 0; m < 4; ++m)
    EXPECT_EQ(batch.member_dense(m).max_abs_diff(
                  serial_dense(n, cfg, members[m], m)),
              0.0)
        << "member " << m;
  EXPECT_GT(batch.stats().clone_chunks, 0u);
  EXPECT_GT(batch.engine().store().blob_store().stats().dedup_hits, 0u)
      << "fan-out clones of identical prefixes must share physical blobs";
}

TEST(BatchScheduler, ScheduleAndMemberOrderingAreDeterministic) {
  const qubit_t n = 6;
  const EngineConfig cfg = batch_cfg(4, 3, /*cache_chunks=*/4);
  const auto members = diverging_members(n, 4);

  auto run_once = [&] {
    BatchScheduler batch(n, cfg);
    batch.run(members);
    std::vector<std::map<index_t, std::uint64_t>> counts;
    for (std::uint32_t m = 0; m < 4; ++m)
      counts.push_back(batch.member_counts(m, 64));
    return std::make_pair(counts, batch.stats());
  };
  const auto [counts_a, stats_a] = run_once();
  const auto [counts_b, stats_b] = run_once();
  EXPECT_EQ(counts_a, counts_b);
  EXPECT_EQ(stats_a.executed_stages, stats_b.executed_stages);
  EXPECT_EQ(stats_a.shared_stages, stats_b.shared_stages);
  EXPECT_EQ(stats_a.clone_chunks, stats_b.clone_chunks);
}

TEST(BatchScheduler, MemberCountsMatchSerialSeedConvention) {
  // member_counts(m, shots) samples with Prng(seed + m) — exactly the
  // generator run_batch_serial's per-member engine uses, so the counts are
  // bit-identical, not just statistically close.
  const qubit_t n = 6;
  const EngineConfig cfg = batch_cfg(4, 3);
  const auto members = diverging_members(n, 4);

  BatchScheduler batch(n, cfg);
  batch.run(members);
  const auto serial =
      run_batch_serial(EngineKind::kMemQSim, n, cfg, members, 128);
  ASSERT_EQ(serial.size(), 4u);
  for (std::uint32_t m = 0; m < 4; ++m)
    EXPECT_EQ(batch.member_counts(m, 128), serial[m]) << "member " << m;
}

TEST(BatchScheduler, ConcurrentBatchesDoNotClobberEachOther) {
  // Two schedulers on two threads, both with caches: SweepPlanGuard and the
  // Belady plan are engine-scoped, so neither batch can install a plan into
  // (or reset the counters of) the other's cache. Run under TSan in CI.
  const qubit_t n = 6;
  const EngineConfig cfg = batch_cfg(4, 3, /*cache_chunks=*/4);
  const auto members = diverging_members(n, 4);

  std::vector<sv::StateVector> dense_a, dense_b;
  auto worker = [&](std::vector<sv::StateVector>& out) {
    BatchScheduler batch(n, cfg);
    batch.run(members);
    for (std::uint32_t m = 0; m < 4; ++m)
      out.push_back(batch.member_dense(m));
  };
  std::thread ta(worker, std::ref(dense_a));
  std::thread tb(worker, std::ref(dense_b));
  ta.join();
  tb.join();

  for (std::uint32_t m = 0; m < 4; ++m) {
    const sv::StateVector expected = serial_dense(n, cfg, members[m], m);
    EXPECT_EQ(dense_a[m].max_abs_diff(expected), 0.0) << "batch A member "
                                                      << m;
    EXPECT_EQ(dense_b[m].max_abs_diff(expected), 0.0) << "batch B member "
                                                      << m;
  }
}

TEST(BatchScheduler, SiblingEngineResetLeavesCacheStatsAlone) {
  // ChunkCache::reset_stats is instance-scoped (per-engine baselines over
  // shared registry cells): resetting engine A must not zero B's view or
  // disturb B's state.
  const qubit_t n = 6;
  EngineConfig cfg = batch_cfg(1, 3, /*cache_chunks=*/4);
  cfg.batch_size = 1;
  const auto circ = circuit::make_random_circuit(n, 5, 77, true);

  auto a = make_engine(EngineKind::kMemQSim, n, cfg);
  auto b = make_engine(EngineKind::kMemQSim, n, cfg);
  a->run(circ);
  b->run(circ);
  const auto before = b->to_dense();
  const std::uint64_t b_hits = b->telemetry().cache_hits;
  EXPECT_GT(b_hits + b->telemetry().cache_misses, 0u);

  a->reset();  // re-baselines A's cache counters only
  EXPECT_EQ(b->telemetry().cache_hits, b_hits);
  EXPECT_EQ(b->to_dense().max_abs_diff(before), 0.0);
}

TEST(BatchScheduler, RejectsNonUnitaryMembersAndLayoutOpts) {
  const qubit_t n = 5;
  circuit::Circuit measured(n);
  measured.h(0).measure(0);
  BatchScheduler batch(n, batch_cfg(1, 3));
  EXPECT_THROW(batch.run({measured}), Error)
      << "measure collapses one window against the others — must reject";

  EngineConfig bad = batch_cfg(2, 3);
  bad.optimize_layout = true;
  EXPECT_THROW(BatchScheduler(n, bad), Error);
  bad = batch_cfg(2, 3);
  bad.elide_swaps = true;
  EXPECT_THROW(BatchScheduler(n, bad), Error);
}

TEST(BatchScheduler, ExpandMembersModes) {
  const qubit_t n = 4;
  circuit::Circuit base(n);
  base.h(0).rz(1, 0.8).cx(0, 1);

  EngineConfig cfg = batch_cfg(4, 2);
  cfg.batch_mode = BatchMode::kSweep;
  const auto sweep = BatchScheduler::expand_members(base, cfg, {});
  ASSERT_EQ(sweep.size(), 4u);
  // Member K - 1 is the base circuit (scale (m + 1) / K = 1); earlier
  // members scale the rotation down.
  EXPECT_EQ(sweep[3][1].params[0], 0.8);
  EXPECT_EQ(sweep[0][1].params[0], 0.8 * (1.0 / 4.0));

  cfg.batch_mode = BatchMode::kTrajectories;
  circuit::NoiseModel noise;
  noise.depolarizing_1q = 0.3;
  const auto ta = BatchScheduler::expand_members(base, cfg, noise);
  const auto tb = BatchScheduler::expand_members(base, cfg, noise);
  ASSERT_EQ(ta.size(), 4u);
  for (std::size_t m = 0; m < 4; ++m) {
    ASSERT_EQ(ta[m].size(), tb[m].size()) << "trajectories must be "
                                             "deterministic in the seed";
    for (std::size_t g = 0; g < ta[m].size(); ++g)
      EXPECT_EQ(ta[m][g], tb[m][g]);
  }
}

}  // namespace
}  // namespace memq::core
