// Budgeted write-back cache of *decompressed* chunks, layered between the
// engines and ChunkStore — the answer to paper challenge 2 (compression
// *frequency*): a stage that reloads a chunk the previous stage just wrote
// should not pay a lossy encode/decode round trip for it.
//
//   * Hits skip decode entirely; the cached amplitudes are served as-is.
//   * Stores are absorbed into the cache (entry marked dirty); the encode is
//     deferred until the entry is evicted or flush() is called. A chunk that
//     is rewritten k times while resident pays ONE encode instead of k.
//   * Clean evictions skip recompression altogether — the blob is still
//     accurate.
//   * Admission and eviction are CachePolicy's: Belady (farthest next use)
//     over the offline stage plan the engine installs, LRU for sweeps with
//     no plan (norm, sampling, observables...). The same policy replays the
//     plan offline in forecast_plan_cost, so planner and cache share one
//     rule.
//
// Budget accounting: every resident entry charges chunk_raw_bytes to the
// budget AND to the shared InFlightLedger, so peak_inflight_bytes /
// peak_host_state_bytes stay honest. resident_bytes() never exceeds
// budget_bytes(); a budget smaller than one chunk degenerates to
// pass-through (every access goes straight to the store).
//
// Semantics note (documented in DESIGN.md §5c and asserted by
// tests/test_chunk_cache.cpp): with a lossy codec, cache hits AVOID lossy
// round trips, so results may differ from — be at least as accurate as —
// the cache-off path. Bit-identical results are only guaranteed with the
// Null codec. Results never depend on codec_threads: all cache decisions
// (hit/miss/evict) are taken on the coordinator thread in access order.
//
// Threading contract: all public methods are coordinator-only. Dirty
// write-backs fan out through the shared CodecPool (bounded backlog) when
// one is available; a pending-write-back guard drains the backlog before
// any operation that would read or rewrite a blob still being encoded.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.hpp"
#include "common/types.hpp"
#include "core/chunk_exec.hpp"
#include "core/codec_pool.hpp"
#include "core/stage_report.hpp"

namespace memq::core {

class ChunkStore;

/// Counters surfaced through EngineTelemetry.
struct ChunkCacheStats {
  std::uint64_t hits = 0;             ///< loads served from the cache
  std::uint64_t misses = 0;           ///< loads that had to decode
  std::uint64_t alias_hits = 0;       ///< misses served by copying a resident
                                      ///< entry of a dedup-shared blob
  std::uint64_t evictions = 0;        ///< entries displaced by the budget
  std::uint64_t writebacks = 0;       ///< deferred encodes actually paid
  std::uint64_t clean_evictions = 0;  ///< evictions that skipped the encode
  std::uint64_t stores_absorbed = 0;  ///< store() calls deferred in-cache
  std::uint64_t peak_resident_bytes = 0;
  std::uint64_t writeback_retries = 0;  ///< failed write-backs re-submitted
                                        ///< from the resident copy

  /// Raw amplitude bytes whose codec pass was avoided: every hit skips one
  /// decode; absorbed stores minus eventual write-backs are skipped encodes.
  std::uint64_t codec_bytes_avoided(std::uint64_t chunk_raw_bytes) const {
    const std::uint64_t skipped_encodes =
        stores_absorbed > writebacks ? stores_absorbed - writebacks : 0;
    return (hits + skipped_encodes) * chunk_raw_bytes;
  }
};

/// One stage of the offline next-use schedule: which chunk slots the stage
/// touches and at which position of its in-order sweep.
struct StageAccess {
  enum class Kind : std::uint8_t {
    kEvery,    ///< local/measure stage: slot i accessed at position i
    kPair,     ///< pair stage: slots i and i|pair_mask accessed together at
               ///< position (i & ~pair_mask)
    kPermute,  ///< permute stage: no codec access; `permute` moves slots
  };
  Kind kind = Kind::kEvery;
  index_t pair_mask = 0;  ///< kPair only: high bit of the partner chunk
  /// kPermute only (window-local bits). The live cache sees the swaps via
  /// ChunkCache::on_swap; the forecast replays them from here.
  ChunkPermutation permute{};
  /// Optional slot window (batch mode): the stage touches only slots in
  /// [base, base + count), and positions are window-relative — slot s sweeps
  /// at position (s - base) for kEvery, ((s - base) & ~pair_mask) for kPair
  /// (pair_mask is expressed in window-local bits). count == 0 means the
  /// whole store, which reproduces the historical schedule byte-for-byte.
  index_t base = 0;
  index_t count = 0;
};

/// The chunk cache's replacement rule, payload-free, owning the residency
/// set: the plan clock (time = stage * width + sweep position, with each
/// resident's next use memoized and recomputed lazily once the clock passes
/// it, e.g. after a skipped zero chunk); Belady admission (when full, admit
/// only if some resident is needed strictly later); victim choice (farthest
/// next use, ties to the larger slot; LRU without a plan); and relabeling
/// when a permute stage swaps two slots. ChunkCache runs it online around
/// its buffers, forecast_plan_cost offline. Coordinator-only.
class CachePolicy {
 public:
  /// Residency record of one slot. `handle` is the owner's payload index;
  /// the policy never interprets it.
  struct Resident {
    bool dirty = false;
    std::uint32_t handle = 0;
    std::uint64_t last_use = 0;  ///< LRU tick
    /// Belady: memoized next scheduled access; stale (recomputed on demand)
    /// once the clock reaches it, so an access resets it to 0.
    std::uint64_t next_use = 0;
  };

  /// `capacity` = chunks that fit the budget (0 = admit nothing); `width` =
  /// positions per stage (the store's chunk count).
  CachePolicy(std::uint64_t capacity, index_t width)
      : capacity_(capacity), width_(width) {}

  /// Installs the offline stage-access schedule (Belady mode). Stage indices
  /// point into `plan`; call begin_stage() before each stage's accesses.
  void set_plan(std::vector<StageAccess> plan);
  void begin_stage(std::size_t stage_index);
  /// Drops back to LRU mode (plan exhausted / plan-less sweeps).
  void clear_plan();
  bool has_plan() const noexcept { return !plan_.empty(); }

  /// Records an access of `slot` in the current stage: advances the clock
  /// and, if the slot is resident, refreshes its recency and next use.
  /// Returns the resident record, or null on a miss.
  Resident* access(index_t slot);

  /// Admission and eviction for the non-resident `slot`: false when the
  /// policy declines it; otherwise evicts victims, handing each to
  /// evicted(slot, record) after removing it, until one more slot fits.
  template <class Fn>
  bool make_room(index_t slot, Fn&& evicted) {
    if (!admits(slot)) return false;
    while (residents_.size() >= capacity_) {
      const auto victim = pick_victim();
      const index_t vslot = victim->first;
      const Resident record = victim->second;
      residents_.erase(victim);
      evicted(vslot, record);
    }
    return true;
  }

  /// Makes `slot` resident (after make_room() returned true).
  void insert(index_t slot, bool dirty, std::uint32_t handle);
  /// Removes `slot`; returns its record if it was resident.
  std::optional<Resident> erase(index_t slot);
  /// Chunks i and j swapped places: their records follow them.
  void relabel(index_t i, index_t j);
  /// Forgets every resident (the plan and clock stay).
  void clear() { residents_.clear(); }

  const Resident* find(index_t slot) const;
  /// Calls fn(slot, record) for every resident; fn may update `dirty`.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (auto& [slot, record] : residents_) fn(slot, record);
  }

 private:
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  bool plan_active() const noexcept {
    return !plan_.empty() && stage_ < plan_.size();
  }
  /// First scheduled access of `slot` strictly after `from_time`.
  std::uint64_t next_use_of(index_t slot, std::uint64_t from_time) const;
  /// Memoized next use of a resident, recomputed once the clock passed it.
  std::uint64_t next_use(index_t slot, Resident& r);
  bool admits(index_t slot);
  std::unordered_map<index_t, Resident>::iterator pick_victim();

  std::uint64_t capacity_;
  std::uint64_t width_;
  std::unordered_map<index_t, Resident> residents_;
  std::vector<StageAccess> plan_;
  std::size_t stage_ = 0;
  std::uint64_t now_ = 0;  ///< stage_ * width_ + current position
  std::uint64_t lru_tick_ = 0;
};

/// Replays `plan`'s access order through CachePolicy, the live cache's rule,
/// and returns the predicted cost: kEvery loads then stores each slot in
/// ascending order; kPair loads lo, loads hi, stores lo, stores hi per pair;
/// kPermute relabels residents through its swap pairs, as on_swap does
/// live. The plan optimizer scores stage orders with it; --stage-report
/// prints it as "planned". It equals the live counters when the run meets
/// its assumptions: every chunk is nonzero (zero-chunk skips only remove
/// work), the access order is unpipelined (a pipelined stage reads ahead
/// before it stores), and every stage modifies every chunk (an unmodified
/// chunk is not stored). Streams longer than an internal cap skip the replay
/// and report the cache-less bound with PlanCost::exact = false.
PlanCost forecast_plan_cost(const std::vector<StageAccess>& plan,
                            index_t n_chunks, std::uint64_t chunk_raw_bytes,
                            std::uint64_t budget_bytes);

class ChunkCache {
 public:
  /// `pool` may be null (serial mode: write-backs encode synchronously).
  ChunkCache(ChunkStore& store, CodecPool* pool, BufferPool& buffers,
             InFlightLedger& ledger, std::uint64_t budget_bytes);
  /// Flushes dirty entries (best effort — errors are swallowed, as in the
  /// reader/writer destructors). Engines flush explicitly before save().
  ~ChunkCache();

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  std::uint64_t budget_bytes() const noexcept { return budget_bytes_; }
  std::uint64_t resident_bytes() const noexcept {
    return resident_g_.value();
  }

  /// Plan clock of the replacement policy (see CachePolicy).
  void set_plan(std::vector<StageAccess> plan) {
    policy_.set_plan(std::move(plan));
  }
  void begin_stage(std::size_t stage_index) {
    policy_.begin_stage(stage_index);
  }
  void clear_plan() { policy_.clear_plan(); }
  bool has_plan() const noexcept { return policy_.has_plan(); }

  /// Reads chunk `i` into `out` (chunk_amps amplitudes), decoding and
  /// inserting on a miss.
  void load(index_t i, std::span<amp_t> out);

  /// Accepts `in` as the new contents of chunk `i`; the encode is deferred
  /// (write-back). Falls through to an immediate store when the budget
  /// cannot hold even one chunk.
  void store(index_t i, std::span<const amp_t> in);

  /// Cache-aware zero query: a dirty entry means the blob is stale, so the
  /// chunk must be treated as possibly nonzero. Never drains the write-back
  /// backlog (a pending slot conservatively reports false).
  bool is_zero(index_t i) const;

  /// Cache-aware fill query, same conservatism as is_zero(): true only when
  /// the blob's zero/constant tag is authoritative for the current contents.
  bool is_constant(index_t i) const;

  /// True if the cached copy of `i` exists and is dirty (blob stale).
  bool dirty(index_t i) const;

  /// Discards the entry for `i` (no write-back) — callers that are about to
  /// overwrite the chunk in the store directly use this to keep the cache
  /// coherent (e.g. measurement writing zero chunks).
  void drop(index_t i);

  /// Mirrors ChunkStore::swap_chunks so cached entries follow their blobs
  /// through compressed-form permutation stages.
  void on_swap(index_t i, index_t j);

  /// Writes every dirty entry back (entries stay resident, now clean) and
  /// joins the write-back backlog. Required before ChunkStore::save().
  void flush();

  /// Drops everything without write-back (state reset / restore / load_dense
  /// overwrite). Joins the backlog first so no stale encode lands later.
  void invalidate();

  /// Counters since construction or the last reset_stats(), assembled from
  /// this instance's registry cells (by value — the cells are live).
  ChunkCacheStats stats() const noexcept;
  /// Re-baselines the counters (cells stay monotone for the process-wide
  /// registry; only this instance's view restarts from zero) and restarts
  /// the residency high-water mark from the current resident bytes.
  void reset_stats() noexcept;

  /// Codec seconds accumulated inside the cache since the last call:
  /// decode = synchronous miss decodes, encode = write-back encodes (summed
  /// across workers in pool mode), wait = coordinator seconds blocked on
  /// the write-back backlog. Engines drain this into the phase breakdown
  /// and the modeled clock.
  struct Timings {
    double decode_seconds = 0.0;
    double encode_seconds = 0.0;
    double wait_seconds = 0.0;
  };
  Timings take_timings();

 private:
  /// Decoded amplitudes of one resident, at the policy record's handle.
  struct Payload {
    std::vector<amp_t> data;
    /// Provenance: true iff `data` came out of ChunkCodec::decode (miss
    /// decode or alias copy of one). Only such entries may serve dedup
    /// alias hits — a store()-inserted entry holds PRE-codec amplitudes,
    /// which a lossy codec would not reproduce, so copying it would break
    /// bit-identity with the dedup-off path.
    bool from_decode = false;
  };

  /// Drains the write-back backlog if `i` still has an encode in flight.
  void guard_slot(index_t i);
  /// Caches a copy of `data` as slot `i` if the policy admits it, evicting
  /// (and writing back) its victims first.
  bool admit(index_t i, std::span<const amp_t> data, bool dirty,
             bool from_decode);
  /// Releases an evicted or dropped resident's payload.
  std::vector<amp_t> take_payload(const CachePolicy::Resident& r);
  /// Serves a miss of `i` by copying a clean decode-derived entry of a
  /// blob-store-verified identical chunk. False when no such entry exists.
  bool try_alias_load(index_t i, std::span<amp_t> out);
  void writeback(index_t slot, std::vector<amp_t> buf);

  ChunkStore& store_;
  BufferPool& buffers_;
  InFlightLedger& ledger_;
  std::uint64_t budget_bytes_;
  std::uint64_t chunk_raw_bytes_;

  CachePolicy policy_;
  std::vector<Payload> payloads_;  ///< indexed by CachePolicy::Resident::handle
  std::vector<std::uint32_t> free_handles_;

  // Deferred write-backs ride the same bounded-backlog writer the engines
  // use; `pending_wb_` over-approximates the slots still in flight.
  ChunkWriter writer_;
  std::unordered_set<index_t> pending_wb_;

  // Per-instance metrics cells (common/metrics.hpp); stats() subtracts
  // `base_` so reset_stats() re-baselines without breaking monotonicity.
  metrics::Counter& hits_;
  metrics::Counter& misses_;
  metrics::Counter& alias_hits_;
  metrics::Counter& evictions_;
  metrics::Counter& writebacks_;
  metrics::Counter& clean_evictions_;
  metrics::Counter& stores_absorbed_;
  metrics::Counter& writeback_retries_;
  metrics::Gauge& resident_g_;
  ChunkCacheStats base_;
  double decode_seconds_ = 0.0;
  double encode_taken_ = 0.0;  ///< writer encode seconds already reported
  double wait_taken_ = 0.0;    ///< writer wait seconds already reported
};

/// Streams a job list through the cache when one is enabled, else through a
/// plain ChunkReader — the single read path for engine stages and sweeps.
/// Items come out in job order either way.
class CachedReader {
 public:
  CachedReader(ChunkStore& store, CodecPool* pool, BufferPool& buffers,
               InFlightLedger& ledger, ChunkCache* cache,
               std::vector<ChunkJob> jobs, std::size_t window);

  std::optional<ChunkReader::Item> next();
  void recycle(std::vector<amp_t> buf);

  /// Decode/wait seconds of the underlying ChunkReader (zero in cache mode —
  /// cache codec time is reported through ChunkCache::take_timings()).
  double decode_seconds() const noexcept {
    return reader_ ? reader_->decode_seconds() : 0.0;
  }
  double wait_seconds() const noexcept {
    return reader_ ? reader_->wait_seconds() : 0.0;
  }

 private:
  ChunkStore& store_;
  BufferPool& buffers_;
  InFlightLedger& ledger_;
  ChunkCache* cache_;
  std::optional<ChunkReader> reader_;  ///< engaged iff cache_ == nullptr
  std::vector<ChunkJob> jobs_;         ///< cache mode only
  std::size_t next_job_ = 0;
};

/// Scoped plan for a plan-less sweep: installs a one-stage ascending kEvery
/// schedule so eviction during the sweep stays next-use-aware (slots already
/// swept become immediately evictable; upcoming residents survive) instead
/// of LRU, which evicts residents moments before a cyclic scan reaches them.
/// No-op when the cache is off or a run plan is already active — a plan
/// installed by an enclosing scope (an engine run, or another member's guard
/// in a batch) is never clobbered; the inner guard simply rides it.
/// The optional window restricts the one-stage plan to slots
/// [base, base + count) — batch-member sweeps use it so slots belonging to
/// sibling members carry no scheduled next use (they evict first).
class SweepPlanGuard {
 public:
  explicit SweepPlanGuard(ChunkCache* cache, index_t base = 0,
                          index_t count = 0)
      : cache_(cache != nullptr && !cache->has_plan() ? cache : nullptr) {
    if (cache_ != nullptr) {
      cache_->set_plan({StageAccess{.base = base, .count = count}});
      cache_->begin_stage(0);
    }
  }
  ~SweepPlanGuard() {
    if (cache_ != nullptr) cache_->clear_plan();
  }
  SweepPlanGuard(const SweepPlanGuard&) = delete;
  SweepPlanGuard& operator=(const SweepPlanGuard&) = delete;

 private:
  ChunkCache* cache_;
};

/// Write-side twin of CachedReader: routes modified buffers into the cache
/// (deferred encode) when one is enabled, else into a bounded ChunkWriter.
class CachedWriter {
 public:
  CachedWriter(ChunkStore& store, CodecPool* pool, BufferPool& buffers,
               InFlightLedger& ledger, ChunkCache* cache,
               std::size_t max_pending);

  /// Returns synchronous encode seconds (serial direct mode only; zero in
  /// cache and pool modes).
  double put(const ChunkJob& job, std::vector<amp_t> buf);
  void drain();

  double encode_seconds() const noexcept {
    return writer_ ? writer_->encode_seconds() : 0.0;
  }
  double wait_seconds() const noexcept {
    return writer_ ? writer_->wait_seconds() : 0.0;
  }

 private:
  ChunkStore& store_;
  BufferPool& buffers_;
  InFlightLedger& ledger_;
  ChunkCache* cache_;
  std::optional<ChunkWriter> writer_;  ///< engaged iff cache_ == nullptr
};

}  // namespace memq::core
