// Budgeted write-back chunk cache: budget enforcement, Belady vs. LRU
// eviction on a scripted stage plan, dirty write-back on eviction/flush,
// zero-chunk coherence, Null-codec bit-identity cache-on vs. cache-off, and
// dense-oracle equivalence across budgets x codec_threads (the semantics
// contract of DESIGN.md §5c).
#include "core/chunk_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>

#include "circuit/workloads.hpp"
#include "core/chunk_store.hpp"
#include "core/engine.hpp"
#include "core/memq_engine.hpp"

namespace memq::core {
namespace {

using circuit::Circuit;
using circuit::Gate;

bool bit_identical(const sv::StateVector& a, const sv::StateVector& b) {
  if (a.amplitudes().size() != b.amplitudes().size()) return false;
  return std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                     a.amplitudes().size() * sizeof(amp_t)) == 0;
}

EngineConfig cache_config(std::uint64_t budget, std::uint32_t threads = 1,
                          qubit_t chunk_qubits = 4,
                          const char* codec = "szq") {
  EngineConfig cfg;
  cfg.chunk_qubits = chunk_qubits;
  cfg.codec.compressor = codec;
  cfg.codec.bound = 1e-6;
  cfg.codec_threads = threads;
  cfg.cache_budget_bytes = budget;
  return cfg;
}

/// A 4-chunk store (6 qubits, chunk 2^4) with the Null codec so blob
/// contents can be compared bit for bit, preloaded with distinct data.
struct CacheFixture {
  compress::ChunkCodecConfig codec;
  ChunkStore store;
  BufferPool buffers;
  InFlightLedger ledger;
  std::vector<amp_t> scratch;

  CacheFixture()
      : codec{make_codec()}, store(6, 4, codec), scratch(store.chunk_amps()) {
    store.init_basis(0);
    for (index_t ci = 0; ci < store.n_chunks(); ++ci) {
      fill_pattern(ci, scratch);
      store.store(ci, scratch);
    }
  }
  static compress::ChunkCodecConfig make_codec() {
    compress::ChunkCodecConfig c;
    c.compressor = "null";
    return c;
  }
  void fill_pattern(index_t ci, std::span<amp_t> out) const {
    for (index_t j = 0; j < out.size(); ++j)
      out[j] = amp_t{static_cast<double>(ci + 1),
                     static_cast<double>(j)};
  }
  std::uint64_t chunk_raw() const { return store.chunk_raw_bytes(); }
};

// ---------------------------------------------------------------------------
// Budget enforcement
// ---------------------------------------------------------------------------

TEST(ChunkCacheUnit, BudgetNeverExceeded) {
  CacheFixture fx;
  ChunkCache cache(fx.store, nullptr, fx.buffers, fx.ledger,
                   2 * fx.chunk_raw());
  for (int round = 0; round < 3; ++round) {
    for (index_t ci = 0; ci < fx.store.n_chunks(); ++ci) {
      cache.load(ci, fx.scratch);
      EXPECT_LE(cache.resident_bytes(), cache.budget_bytes());
      cache.store(ci, fx.scratch);
      EXPECT_LE(cache.resident_bytes(), cache.budget_bytes());
    }
  }
  EXPECT_LE(cache.stats().peak_resident_bytes, cache.budget_bytes());
  cache.flush();
}

TEST(ChunkCacheUnit, SubChunkBudgetDegeneratesToPassThrough) {
  CacheFixture fx;
  ChunkCache cache(fx.store, nullptr, fx.buffers, fx.ledger,
                   fx.chunk_raw() - 1);
  cache.load(0, fx.scratch);
  cache.store(0, fx.scratch);
  cache.load(0, fx.scratch);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  cache.flush();
}

// ---------------------------------------------------------------------------
// Eviction policy: Belady (scripted plan) vs. LRU (no plan)
// ---------------------------------------------------------------------------

TEST(ChunkCacheUnit, BeladyBeatsLruOnScriptedPlan) {
  // Two kEvery stages over 4 chunks with a 2-chunk budget. LRU thrashes (it
  // always evicts the entry the next stage needs first); Belady keeps slot
  // 0 across the stage boundary and re-caches slot 3 late, scoring 2 hits.
  CacheFixture fx;
  {
    ChunkCache lru(fx.store, nullptr, fx.buffers, fx.ledger,
                   2 * fx.chunk_raw());
    for (int stage = 0; stage < 2; ++stage)
      for (index_t ci = 0; ci < 4; ++ci) lru.load(ci, fx.scratch);
    EXPECT_EQ(lru.stats().hits, 0u);
    EXPECT_EQ(lru.stats().misses, 8u);
  }
  {
    ChunkCache belady(fx.store, nullptr, fx.buffers, fx.ledger,
                      2 * fx.chunk_raw());
    belady.set_plan({{StageAccess::Kind::kEvery, 0},
                     {StageAccess::Kind::kEvery, 0}});
    for (std::size_t stage = 0; stage < 2; ++stage) {
      belady.begin_stage(stage);
      for (index_t ci = 0; ci < 4; ++ci) belady.load(ci, fx.scratch);
    }
    EXPECT_EQ(belady.stats().hits, 2u);
    EXPECT_EQ(belady.stats().misses, 6u);
  }
}

TEST(ChunkCacheUnit, PairStagePositionsShareTheSlot) {
  // kPair with mask 2: slots {0,2} are touched at position 0, {1,3} at
  // position 1. With budget 2 and a following kEvery stage, Belady keeps
  // the pair whose next use is sooner.
  CacheFixture fx;
  ChunkCache cache(fx.store, nullptr, fx.buffers, fx.ledger,
                   2 * fx.chunk_raw());
  cache.set_plan({{StageAccess::Kind::kPair, 2},
                  {StageAccess::Kind::kEvery, 0}});
  cache.begin_stage(0);
  cache.load(0, fx.scratch);
  cache.load(2, fx.scratch);
  cache.load(1, fx.scratch);  // evicts 2 (next use 6) over 0 (next use 4)
  cache.load(3, fx.scratch);  // evicts 3's worst leftover
  cache.begin_stage(1);
  cache.load(0, fx.scratch);
  EXPECT_GE(cache.stats().hits, 1u);  // slot 0 survived the boundary
}

TEST(ChunkCacheUnit, RelabeledResidentTakesItsNewSlotsNextUse) {
  // Stage 1 swaps chunks 1 and 2; the resident loaded as slot 1 becomes
  // slot 2, which the plan never touches again. When slot 3 arrives at a
  // full cache, Belady must see that and evict it — a next use kept from
  // slot 1 (stage 3) would decline slot 3 and lose its stage-4 hit.
  CacheFixture fx;
  ChunkCache cache(fx.store, nullptr, fx.buffers, fx.ledger,
                   2 * fx.chunk_raw());
  cache.set_plan({StageAccess{.base = 0, .count = 2},
                  StageAccess{.kind = StageAccess::Kind::kPermute},
                  StageAccess{.base = 3, .count = 1},
                  StageAccess{.base = 0, .count = 2},
                  StageAccess{.base = 3, .count = 1}});
  const std::vector<std::vector<index_t>> loads = {{0, 1}, {}, {3}, {0, 1},
                                                   {3}};
  for (std::size_t stage = 0; stage < loads.size(); ++stage) {
    cache.begin_stage(stage);
    if (stage == 1) {
      cache.on_swap(1, 2);
      fx.store.swap_chunks(1, 2);
    }
    for (const index_t ci : loads[stage]) cache.load(ci, fx.scratch);
  }
  EXPECT_EQ(cache.stats().hits, 2u);  // slot 0 in stage 3, slot 3 in stage 4
}

// ---------------------------------------------------------------------------
// Write-back semantics
// ---------------------------------------------------------------------------

TEST(ChunkCacheUnit, DirtyEntryWritesBackOnFlushNotBefore) {
  CacheFixture fx;
  ChunkCache cache(fx.store, nullptr, fx.buffers, fx.ledger,
                   4 * fx.chunk_raw());
  std::vector<amp_t> data(fx.store.chunk_amps(), amp_t{7.5, -2.5});
  cache.store(2, data);
  EXPECT_TRUE(cache.dirty(2));

  // The blob still holds the old pattern (Null codec = exact bytes).
  fx.store.load(2, fx.scratch);
  EXPECT_EQ(fx.scratch[0], (amp_t{3.0, 0.0}));

  cache.flush();
  EXPECT_FALSE(cache.dirty(2));
  EXPECT_EQ(cache.stats().writebacks, 1u);
  fx.store.load(2, fx.scratch);
  EXPECT_EQ(fx.scratch[0], (amp_t{7.5, -2.5}));

  // Flushed entries stay resident and serve hits.
  cache.load(2, fx.scratch);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ChunkCacheUnit, DirtyEvictionWritesBackCleanEvictionSkipsEncode) {
  CacheFixture fx;
  ChunkCache cache(fx.store, nullptr, fx.buffers, fx.ledger,
                   1 * fx.chunk_raw());
  std::vector<amp_t> data(fx.store.chunk_amps(), amp_t{9.0, 9.0});
  const std::uint64_t stores_before = fx.store.stores();
  cache.store(0, data);            // dirty resident
  cache.load(1, fx.scratch);       // evicts 0 -> write-back
  EXPECT_EQ(cache.stats().writebacks, 1u);
  EXPECT_EQ(fx.store.stores(), stores_before + 1);
  fx.store.load(0, fx.scratch);
  EXPECT_EQ(fx.scratch[0], (amp_t{9.0, 9.0}));

  cache.load(2, fx.scratch);       // evicts clean 1 -> no encode
  EXPECT_EQ(cache.stats().clean_evictions, 1u);
  EXPECT_EQ(fx.store.stores(), stores_before + 1);
  cache.flush();
}

TEST(ChunkCacheUnit, DropDiscardsWithoutWriteBack) {
  CacheFixture fx;
  ChunkCache cache(fx.store, nullptr, fx.buffers, fx.ledger,
                   4 * fx.chunk_raw());
  std::vector<amp_t> data(fx.store.chunk_amps(), amp_t{1.0, 1.0});
  cache.store(3, data);
  cache.drop(3);
  cache.flush();
  fx.store.load(3, fx.scratch);
  EXPECT_EQ(fx.scratch[0], (amp_t{4.0, 0.0}));  // original pattern intact
}

TEST(ChunkCacheUnit, OnSwapFollowsTheBlobs) {
  CacheFixture fx;
  ChunkCache cache(fx.store, nullptr, fx.buffers, fx.ledger,
                   4 * fx.chunk_raw());
  std::vector<amp_t> data(fx.store.chunk_amps(), amp_t{5.0, 5.0});
  cache.store(0, data);
  cache.on_swap(0, 1);
  fx.store.swap_chunks(0, 1);
  EXPECT_TRUE(cache.dirty(1));
  EXPECT_FALSE(cache.dirty(0));
  cache.load(1, fx.scratch);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(fx.scratch[0], (amp_t{5.0, 5.0}));
  cache.flush();
  fx.store.load(1, fx.scratch);
  EXPECT_EQ(fx.scratch[0], (amp_t{5.0, 5.0}));
}

// ---------------------------------------------------------------------------
// Zero-chunk coherence
// ---------------------------------------------------------------------------

TEST(ChunkCacheUnit, DirtyChunkNeverReportsZeroFromStaleBlob) {
  compress::ChunkCodecConfig codec = CacheFixture::make_codec();
  ChunkStore store(6, 4, codec);
  store.init_basis(0);  // chunks 1..3 are zero blobs
  BufferPool buffers;
  InFlightLedger ledger;
  ChunkCache cache(store, nullptr, buffers, ledger,
                   4 * store.chunk_raw_bytes());
  ASSERT_TRUE(store.is_zero_chunk(2));
  std::vector<amp_t> data(store.chunk_amps(), amp_t{0.5, 0.0});
  cache.store(2, data);
  EXPECT_TRUE(store.is_zero_chunk(2));  // blob is stale...
  EXPECT_FALSE(cache.is_zero(2));       // ...but the cache knows better
  cache.flush();
  EXPECT_FALSE(store.is_zero_chunk(2));
  EXPECT_FALSE(cache.is_zero(2));
}

// ---------------------------------------------------------------------------
// Engine-level: Null-codec bit-identity, dense-oracle tolerance, telemetry
// ---------------------------------------------------------------------------

class CacheBitIdentity : public ::testing::TestWithParam<EngineKind> {};

TEST_P(CacheBitIdentity, NullCodecCacheOnEqualsCacheOff) {
  // qft exercises permute stages (cache entries must follow blob swaps);
  // random mixes local/pair stages and measurements stay out of the way.
  for (const char* workload : {"qft", "random"}) {
    const Circuit c = circuit::make_workload(workload, 8, 23);
    const std::uint64_t raw = dim_of(8) * kAmpBytes;
    for (const std::uint64_t budget : {raw / 4, raw}) {
      // Fresh baseline per budget: sample_counts consumes engine RNG, so
      // the two engines must be at the same draw.
      auto off = make_engine(GetParam(), 8, cache_config(0, 1, 4, "null"));
      auto on =
          make_engine(GetParam(), 8, cache_config(budget, 1, 4, "null"));
      off->run(c);
      on->run(c);
      EXPECT_TRUE(bit_identical(off->to_dense(), on->to_dense()))
          << workload << " budget " << budget;
      EXPECT_EQ(off->sample_counts(100), on->sample_counts(100))
          << workload << " budget " << budget;
    }
  }
}

TEST_P(CacheBitIdentity, MeasurementsMatchWithNullCodec) {
  Circuit c(8);
  for (qubit_t q = 0; q < 8; ++q) c.append(Gate::h(q));
  c.append(Gate::cx(0, 7));
  c.measure(0);
  c.measure(6);
  auto off = make_engine(GetParam(), 8, cache_config(0, 1, 4, "null"));
  auto on = make_engine(GetParam(), 8,
                        cache_config(dim_of(8) * kAmpBytes / 2, 1, 4,
                                     "null"));
  off->run(c);
  on->run(c);
  EXPECT_TRUE(bit_identical(off->to_dense(), on->to_dense()));
}

INSTANTIATE_TEST_SUITE_P(Engines, CacheBitIdentity,
                         ::testing::Values(EngineKind::kMemQSim,
                                           EngineKind::kWu));

TEST(ChunkCacheEngine, DenseOracleHoldsAcrossBudgetsAndThreads) {
  const Circuit c = circuit::make_workload("random", 10, 5);
  auto oracle = make_engine(EngineKind::kDense, 10);
  oracle->run(c);
  const sv::StateVector want = oracle->to_dense();
  const std::uint64_t raw = dim_of(10) * kAmpBytes;

  for (const std::uint64_t budget : {raw / 8, raw / 4, raw / 2, raw}) {
    std::vector<amp_t> first;
    for (const std::uint32_t threads : {1u, 4u}) {
      auto engine = make_engine(EngineKind::kMemQSim, 10,
                                cache_config(budget, threads));
      engine->run(c);
      const sv::StateVector got = engine->to_dense();
      for (index_t i = 0; i < want.amplitudes().size(); ++i) {
        EXPECT_NEAR(want.amplitudes()[i].real(), got.amplitudes()[i].real(),
                    1e-4)
            << "budget " << budget << " threads " << threads << " amp " << i;
        EXPECT_NEAR(want.amplitudes()[i].imag(), got.amplitudes()[i].imag(),
                    1e-4)
            << "budget " << budget << " threads " << threads << " amp " << i;
      }
      // At a fixed budget the result must not depend on codec_threads: all
      // cache decisions happen on the coordinator in access order.
      if (first.empty()) {
        first.assign(got.amplitudes().begin(), got.amplitudes().end());
      } else {
        EXPECT_EQ(0, std::memcmp(first.data(), got.amplitudes().data(),
                                 first.size() * sizeof(amp_t)))
            << "budget " << budget;
      }
    }
  }
}

TEST(ChunkCacheEngine, BudgetZeroKeepsHistoricalPathAndCountsCodecWork) {
  const Circuit c = circuit::make_workload("qft", 10, 3);
  auto off = make_engine(EngineKind::kMemQSim, 10, cache_config(0));
  off->run(c);
  const auto& t_off = off->telemetry();
  EXPECT_EQ(t_off.cache_hits, 0u);
  EXPECT_EQ(t_off.cache_misses, 0u);
  EXPECT_EQ(t_off.cache_writebacks, 0u);
  EXPECT_EQ(t_off.peak_cache_resident_bytes, 0u);

  auto on = make_engine(EngineKind::kMemQSim, 10,
                        cache_config(dim_of(10) * kAmpBytes / 4));
  on->run(c);
  const auto& t_on = on->telemetry();
  EXPECT_GT(t_on.cache_hits, 0u);
  EXPECT_GT(t_on.cache_codec_bytes_avoided, 0u);
  // The cache's whole point: strictly less codec traffic than the
  // historical path on a stage-heavy circuit.
  EXPECT_LT(t_on.chunk_loads + t_on.chunk_stores,
            t_off.chunk_loads + t_off.chunk_stores);
}

TEST(ChunkCacheEngine, ResidentBytesChargedToInFlightLedger) {
  EngineConfig cfg = cache_config(dim_of(10) * kAmpBytes / 4, 4);
  auto engine = make_engine(EngineKind::kMemQSim, 10, cfg);
  engine->run(circuit::make_workload("random", 10, 11));
  (void)engine->norm();
  const auto& t = engine->telemetry();
  EXPECT_LE(t.peak_cache_resident_bytes, cfg.cache_budget_bytes);
  // Ledger peak covers cache residency + the bounded pipeline window.
  const std::uint64_t chunk_raw = (index_t{1} << cfg.chunk_qubits) * kAmpBytes;
  const std::uint64_t depth = cfg.device_count * cfg.device_slots + 1;
  const std::uint64_t window = (depth + cfg.codec_threads) * 2 * chunk_raw;
  EXPECT_GE(t.peak_inflight_bytes, t.peak_cache_resident_bytes);
  EXPECT_LE(t.peak_inflight_bytes, cfg.cache_budget_bytes + window);
}

TEST(ChunkCacheEngine, CheckpointFlushesDirtyEntries) {
  const std::string path = "test_chunk_cache.ckpt";
  const Circuit c = circuit::make_workload("qft", 8, 17);
  auto engine = make_engine(EngineKind::kMemQSim, 8,
                            cache_config(dim_of(8) * kAmpBytes, 1, 4,
                                         "null"));
  engine->run(c);  // with a full-state budget, every chunk ends dirty
  const sv::StateVector want = engine->to_dense();
  engine->save_state(path);

  auto restored = make_engine(EngineKind::kMemQSim, 8,
                              cache_config(0, 1, 4, "null"));
  restored->load_state(path);
  EXPECT_TRUE(bit_identical(want, restored->to_dense()));
  std::remove(path.c_str());
}

TEST(ChunkCacheEngine, ResetAndLoadDenseInvalidate) {
  auto engine = make_engine(EngineKind::kMemQSim, 8,
                            cache_config(dim_of(8) * kAmpBytes, 1, 4,
                                         "null"));
  engine->run(circuit::make_workload("qft", 8, 9));
  engine->reset();
  // After reset the state must be |0..0> with no cache leftovers.
  EXPECT_EQ(engine->amplitude(0), (amp_t{1.0, 0.0}));
  EXPECT_DOUBLE_EQ(engine->norm(), 1.0);
  EXPECT_EQ(engine->telemetry().cache_writebacks, 0u);

  engine->run(circuit::make_workload("random", 8, 9));
  std::vector<amp_t> basis(dim_of(8), amp_t{0, 0});
  basis[5] = amp_t{1.0, 0.0};
  engine->load_dense(basis);
  EXPECT_EQ(engine->amplitude(5), (amp_t{1.0, 0.0}));
  EXPECT_DOUBLE_EQ(engine->norm(), 1.0);
}

}  // namespace
}  // namespace memq::core
