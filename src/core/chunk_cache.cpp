#include "core/chunk_cache.hpp"

#include <algorithm>
#include <cerrno>

#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/chunk_store.hpp"

namespace memq::core {

// ---------------------------------------------------------------------------
// CachePolicy
// ---------------------------------------------------------------------------

namespace {

/// Position of slot in a stage's sweep, or nullopt if untouched.
std::optional<index_t> position_in(const StageAccess& stage, index_t slot) {
  if (stage.count != 0 &&
      (slot < stage.base || slot >= stage.base + stage.count))
    return std::nullopt;  // windowed stage: slots outside are untouched
  const index_t local = slot - stage.base;
  switch (stage.kind) {
    case StageAccess::Kind::kEvery:
      return local;
    case StageAccess::Kind::kPair:
      return local & ~stage.pair_mask;
    case StageAccess::Kind::kPermute:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

void CachePolicy::set_plan(std::vector<StageAccess> plan) {
  plan_ = std::move(plan);
  stage_ = 0;
  now_ = 0;
  // Memoized distances refer to the previous plan's clock; mark them stale
  // so the next scan recomputes against the new schedule.
  for (auto& [slot, r] : residents_) r.next_use = 0;
}

void CachePolicy::begin_stage(std::size_t stage_index) {
  stage_ = stage_index;
  if (!plan_.empty()) now_ = std::max(now_, stage_index * width_);
}

void CachePolicy::clear_plan() {
  plan_.clear();
  stage_ = 0;
}

std::uint64_t CachePolicy::next_use_of(index_t slot,
                                       std::uint64_t from_time) const {
  if (!plan_active()) return kNever;
  for (std::size_t s = static_cast<std::size_t>(from_time / width_);
       s < plan_.size(); ++s) {
    const std::optional<index_t> pos = position_in(plan_[s], slot);
    if (!pos) continue;
    const std::uint64_t t = s * width_ + *pos;
    if (t > from_time) return t;
  }
  return kNever;
}

std::uint64_t CachePolicy::next_use(index_t slot, Resident& r) {
  if (r.next_use <= now_) r.next_use = next_use_of(slot, now_);
  return r.next_use;
}

CachePolicy::Resident* CachePolicy::access(index_t slot) {
  if (plan_active()) {
    const std::optional<index_t> pos = position_in(plan_[stage_], slot);
    if (pos) now_ = std::max(now_, stage_ * width_ + *pos);
  }
  const auto it = residents_.find(slot);
  if (it == residents_.end()) return nullptr;
  it->second.last_use = ++lru_tick_;
  it->second.next_use = 0;  // recomputed from this access when next needed
  return &it->second;
}

bool CachePolicy::admits(index_t slot) {
  if (capacity_ == 0) return false;
  if (!plan_active()) return true;  // LRU mode: always cache
  if (residents_.size() < capacity_) return true;
  // Belady admits a chunk only when some resident is needed strictly later
  // than the chunk's own next scheduled access — otherwise the eviction it
  // forces discards a sooner-needed entry (or, at the end of the plan,
  // churns a dirty entry through the codec for nothing).
  const std::uint64_t incoming = next_use_of(slot, now_);
  for (auto& [s, r] : residents_)
    if (next_use(s, r) > incoming) return true;
  return false;
}

std::unordered_map<index_t, CachePolicy::Resident>::iterator
CachePolicy::pick_victim() {
  const bool belady = plan_active();
  auto victim = residents_.begin();
  for (auto it = residents_.begin(); it != residents_.end(); ++it) {
    if (belady) {
      // Belady: evict the farthest next use.
      const std::uint64_t nu = next_use(it->first, it->second);
      if (nu > victim->second.next_use ||
          (nu == victim->second.next_use && it->first > victim->first))
        victim = it;
    } else if (it->second.last_use < victim->second.last_use) {
      victim = it;  // LRU fallback for plan-less sweeps
    }
  }
  return victim;
}

void CachePolicy::insert(index_t slot, bool dirty, std::uint32_t handle) {
  const bool inserted =
      residents_.emplace(slot, Resident{dirty, handle, ++lru_tick_}).second;
  MEMQ_ASSERT(inserted);
  (void)inserted;
}

std::optional<CachePolicy::Resident> CachePolicy::erase(index_t slot) {
  auto node = residents_.extract(slot);
  if (!node) return std::nullopt;
  return node.mapped();
}

void CachePolicy::relabel(index_t i, index_t j) {
  if (i == j) return;
  auto ni = residents_.extract(i);
  auto nj = residents_.extract(j);
  for (auto* node : {&ni, &nj}) {
    if (!*node) continue;
    const index_t to = node == &ni ? j : i;
    node->key() = to;
    node->mapped().next_use = 0;
    residents_.insert(std::move(*node));
  }
}

const CachePolicy::Resident* CachePolicy::find(index_t slot) const {
  const auto it = residents_.find(slot);
  return it != residents_.end() ? &it->second : nullptr;
}

// ---------------------------------------------------------------------------
// ChunkCache
// ---------------------------------------------------------------------------

ChunkCache::ChunkCache(ChunkStore& store, CodecPool* pool, BufferPool& buffers,
                       InFlightLedger& ledger, std::uint64_t budget_bytes)
    : store_(store),
      buffers_(buffers),
      ledger_(ledger),
      budget_bytes_(budget_bytes),
      chunk_raw_bytes_(store.chunk_raw_bytes()),
      policy_(chunk_raw_bytes_ != 0 ? budget_bytes / chunk_raw_bytes_ : 0,
              store.n_chunks()),
      writer_(store, pool, buffers, ledger,
              pool != nullptr ? pool->workers() : 0),
      hits_(metrics::Registry::global().counter("cache.hits")),
      misses_(metrics::Registry::global().counter("cache.misses")),
      alias_hits_(metrics::Registry::global().counter("cache.alias_hits")),
      evictions_(metrics::Registry::global().counter("cache.evictions")),
      writebacks_(metrics::Registry::global().counter("cache.writebacks")),
      clean_evictions_(
          metrics::Registry::global().counter("cache.clean_evictions")),
      stores_absorbed_(
          metrics::Registry::global().counter("cache.stores_absorbed")),
      writeback_retries_(
          metrics::Registry::global().counter("cache.writeback_retries")),
      resident_g_(metrics::Registry::global().gauge("cache.resident_bytes")) {}

ChunkCacheStats ChunkCache::stats() const noexcept {
  ChunkCacheStats s;
  s.hits = hits_.value() - base_.hits;
  s.misses = misses_.value() - base_.misses;
  s.alias_hits = alias_hits_.value() - base_.alias_hits;
  s.evictions = evictions_.value() - base_.evictions;
  s.writebacks = writebacks_.value() - base_.writebacks;
  s.clean_evictions = clean_evictions_.value() - base_.clean_evictions;
  s.stores_absorbed = stores_absorbed_.value() - base_.stores_absorbed;
  s.writeback_retries = writeback_retries_.value() - base_.writeback_retries;
  s.peak_resident_bytes = resident_g_.peak();
  return s;
}

void ChunkCache::reset_stats() noexcept {
  base_.hits = hits_.value();
  base_.misses = misses_.value();
  base_.alias_hits = alias_hits_.value();
  base_.evictions = evictions_.value();
  base_.writebacks = writebacks_.value();
  base_.clean_evictions = clean_evictions_.value();
  base_.stores_absorbed = stores_absorbed_.value();
  base_.writeback_retries = writeback_retries_.value();
  resident_g_.reset_peak();
}

ChunkCache::~ChunkCache() {
  try {
    flush();
  } catch (...) {
    // Destructor flush is best effort; engines flush explicitly where the
    // result matters (save_state) and can surface the error there.
  }
}

void ChunkCache::guard_slot(index_t i) {
  if (pending_wb_.empty() || pending_wb_.count(i) == 0) return;
  writer_.drain();
  pending_wb_.clear();
}

void ChunkCache::writeback(index_t slot, std::vector<amp_t> buf) {
  // Injected write-back failures are recoverable by construction: `buf`
  // still holds the amplitudes and the store's previous blob stays intact
  // (blob replacement is atomic at blob granularity), so a retry simply
  // re-submits from the clean resident copy.
  constexpr int kMaxWritebackRetries = 3;
  for (int attempt = 1; MEMQ_FAULT("cache.writeback"); ++attempt) {
    writeback_retries_.add();
    MEMQ_TRACE_INSTANT("fault", "cache.writeback.retry",
                       trace::arg("attempt", std::uint64_t(attempt)));
    if (attempt >= kMaxWritebackRetries) {
      // Persistent failure: undo this write-back's accounting so the
      // typed error surfaces without leaking ledger bytes, leaving the
      // previous blob as the store's (stale but uncorrupted) contents.
      ledger_.release(chunk_raw_bytes_);
      buffers_.put(std::move(buf));
      MEMQ_THROW_IO("cache write-back of chunk "
                              << slot << " failed after "
                              << kMaxWritebackRetries
                              << " attempts (injected); previous blob kept",
                 EIO);
    }
  }
  writer_.put({slot, 0, false}, std::move(buf));
  pending_wb_.insert(slot);
}

std::vector<amp_t> ChunkCache::take_payload(const CachePolicy::Resident& r) {
  resident_g_.sub(static_cast<std::int64_t>(chunk_raw_bytes_));
  free_handles_.push_back(r.handle);
  return std::move(payloads_[r.handle].data);
}

bool ChunkCache::admit(index_t i, std::span<const amp_t> data, bool dirty,
                       bool from_decode) {
  const bool admitted = policy_.make_room(
      i, [&](index_t slot, const CachePolicy::Resident& victim) {
        std::vector<amp_t> evicted = take_payload(victim);
        evictions_.add();
        MEMQ_TRACE_INSTANT("cache", "evict",
                           trace::arg("chunk", std::uint64_t{slot}) + "," +
                               trace::arg("next_use", victim.next_use));
        if (victim.dirty) {
          guard_slot(slot);
          writebacks_.add();
          MEMQ_TRACE_INSTANT("cache", "writeback",
                             trace::arg("chunk", std::uint64_t{slot}));
          writeback(slot, std::move(evicted));  // releases the ledger bytes
        } else {
          clean_evictions_.add();
          ledger_.release(chunk_raw_bytes_);
          buffers_.put(std::move(evicted));
        }
        MEMQ_TRACE_COUNTER("cache_resident_bytes",
                           static_cast<double>(resident_g_.value()));
      });
  if (!admitted) return false;
  std::uint32_t handle = static_cast<std::uint32_t>(payloads_.size());
  if (free_handles_.empty()) {
    payloads_.emplace_back();
  } else {
    handle = free_handles_.back();
    free_handles_.pop_back();
  }
  Payload& p = payloads_[handle];
  p.data = buffers_.get(store_.chunk_amps());
  std::copy(data.begin(), data.end(), p.data.begin());
  p.from_decode = from_decode;
  ledger_.acquire(chunk_raw_bytes_);
  resident_g_.add(static_cast<std::int64_t>(chunk_raw_bytes_));
  policy_.insert(i, dirty, handle);
  return true;
}

void ChunkCache::load(index_t i, std::span<amp_t> out) {
  MEMQ_CHECK(out.size() == store_.chunk_amps(), "cache load span mismatch");
  if (const CachePolicy::Resident* r = policy_.access(i)) {
    const std::vector<amp_t>& data = payloads_[r->handle].data;
    std::copy(data.begin(), data.end(), out.begin());
    hits_.add();
    MEMQ_TRACE_INSTANT("cache", "hit", trace::arg("chunk", std::uint64_t{i}));
    return;
  }
  guard_slot(i);
  if (!try_alias_load(i, out)) {
    MEMQ_TRACE_INSTANT("cache", "miss",
                       trace::arg("chunk", std::uint64_t{i}));
    WallTimer t;
    store_.load(i, out);
    decode_seconds_ += t.seconds();
    misses_.add();
  }
  admit(i, out, /*dirty=*/false, /*from_decode=*/true);
}

bool ChunkCache::try_alias_load(index_t i, std::span<amp_t> out) {
  const std::uint64_t cid = store_.content_id(i);
  if (cid == BlobStore::kNoContentId) return false;
  std::optional<index_t> source;
  policy_.for_each([&](index_t slot, const CachePolicy::Resident& r) {
    // Eligible sources hold exactly decode(blob bytes): clean, no encode in
    // flight, and decode-derived (see Payload::from_decode). Since the blob
    // store byte-verified slot and i onto one physical copy, copying the
    // entry is bit-identical to decoding blob i.
    const Payload& p = payloads_[r.handle];
    if (source || r.dirty || !p.from_decode) return;
    if (!pending_wb_.empty() && pending_wb_.count(slot) != 0) return;
    if (store_.content_id(slot) != cid) return;
    std::copy(p.data.begin(), p.data.end(), out.begin());
    source = slot;
  });
  if (!source) return false;
  alias_hits_.add();
  MEMQ_TRACE_INSTANT("cache", "alias_hit",
                     trace::arg("chunk", std::uint64_t{i}) + "," +
                         trace::arg("source", std::uint64_t{*source}));
  return true;
}

void ChunkCache::store(index_t i, std::span<const amp_t> in) {
  MEMQ_CHECK(in.size() == store_.chunk_amps(), "cache store span mismatch");
  if (CachePolicy::Resident* r = policy_.access(i)) {
    Payload& p = payloads_[r->handle];
    std::copy(in.begin(), in.end(), p.data.begin());
    r->dirty = true;
    p.from_decode = false;  // pre-codec amplitudes from here on
    stores_absorbed_.add();
    return;
  }
  guard_slot(i);
  if (admit(i, in, /*dirty=*/true, /*from_decode=*/false)) {
    stores_absorbed_.add();
    return;
  }
  // Not cacheable (budget below one chunk, or Belady declined the slot):
  // encode immediately — still through the bounded writer so pool mode
  // overlaps the encode.
  std::vector<amp_t> buf = buffers_.get(store_.chunk_amps());
  std::copy(in.begin(), in.end(), buf.begin());
  ledger_.acquire(chunk_raw_bytes_);
  writeback(i, std::move(buf));
}

bool ChunkCache::is_zero(index_t i) const {
  if (dirty(i)) return false;
  // A slot with an encode still in flight has unknown blob state; treat as
  // possibly nonzero rather than racing the write-back worker.
  if (!pending_wb_.empty() && pending_wb_.count(i) != 0) return false;
  return store_.is_zero_chunk(i);
}

bool ChunkCache::is_constant(index_t i) const {
  if (dirty(i)) return false;
  if (!pending_wb_.empty() && pending_wb_.count(i) != 0) return false;
  return store_.is_constant_chunk(i);
}

bool ChunkCache::dirty(index_t i) const {
  const CachePolicy::Resident* r = policy_.find(i);
  return r != nullptr && r->dirty;
}

void ChunkCache::drop(index_t i) {
  guard_slot(i);
  const std::optional<CachePolicy::Resident> r = policy_.erase(i);
  if (!r) return;
  ledger_.release(chunk_raw_bytes_);
  buffers_.put(take_payload(*r));
}

void ChunkCache::on_swap(index_t i, index_t j) {
  if (i == j) return;
  guard_slot(i);
  guard_slot(j);
  policy_.relabel(i, j);
}

void ChunkCache::flush() {
  policy_.for_each([&](index_t slot, CachePolicy::Resident& r) {
    if (!r.dirty) return;
    const std::vector<amp_t>& data = payloads_[r.handle].data;
    std::vector<amp_t> buf = buffers_.get(store_.chunk_amps());
    std::copy(data.begin(), data.end(), buf.begin());
    ledger_.acquire(chunk_raw_bytes_);
    writebacks_.add();
    writeback(slot, std::move(buf));
    r.dirty = false;
  });
  writer_.drain();
  pending_wb_.clear();
}

void ChunkCache::invalidate() {
  writer_.drain();
  pending_wb_.clear();
  policy_.for_each([&](index_t, const CachePolicy::Resident& r) {
    ledger_.release(chunk_raw_bytes_);
    buffers_.put(std::move(payloads_[r.handle].data));
  });
  policy_.clear();
  payloads_.clear();
  free_handles_.clear();
  resident_g_.set(0);
}

ChunkCache::Timings ChunkCache::take_timings() {
  Timings t;
  t.decode_seconds = decode_seconds_;
  decode_seconds_ = 0.0;
  t.encode_seconds = writer_.encode_seconds() - encode_taken_;
  encode_taken_ = writer_.encode_seconds();
  t.wait_seconds = writer_.wait_seconds() - wait_taken_;
  wait_taken_ = writer_.wait_seconds();
  return t;
}

// ---------------------------------------------------------------------------
// CachedReader / CachedWriter
// ---------------------------------------------------------------------------

CachedReader::CachedReader(ChunkStore& store, CodecPool* pool,
                           BufferPool& buffers, InFlightLedger& ledger,
                           ChunkCache* cache, std::vector<ChunkJob> jobs,
                           std::size_t window)
    : store_(store), buffers_(buffers), ledger_(ledger), cache_(cache) {
  if (cache_ == nullptr) {
    reader_.emplace(store, pool, buffers, ledger, std::move(jobs), window);
  } else {
    jobs_ = std::move(jobs);
  }
}

std::optional<ChunkReader::Item> CachedReader::next() {
  if (reader_) return reader_->next();
  if (next_job_ >= jobs_.size()) return std::nullopt;
  const std::size_t half = store_.chunk_amps();
  ChunkReader::Item item;
  item.job = jobs_[next_job_++];
  const std::size_t amps = half * (item.job.has_b ? 2 : 1);
  item.buf = buffers_.get(amps);
  ledger_.acquire(amps * kAmpBytes);
  cache_->load(item.job.a, std::span<amp_t>(item.buf).first(half));
  if (item.job.has_b)
    cache_->load(item.job.b, std::span<amp_t>(item.buf).subspan(half, half));
  return item;
}

void CachedReader::recycle(std::vector<amp_t> buf) {
  if (reader_) {
    reader_->recycle(std::move(buf));
    return;
  }
  ledger_.release(buf.size() * kAmpBytes);
  buffers_.put(std::move(buf));
}

CachedWriter::CachedWriter(ChunkStore& store, CodecPool* pool,
                           BufferPool& buffers, InFlightLedger& ledger,
                           ChunkCache* cache, std::size_t max_pending)
    : store_(store), buffers_(buffers), ledger_(ledger), cache_(cache) {
  if (cache_ == nullptr)
    writer_.emplace(store, pool, buffers, ledger, max_pending);
}

double CachedWriter::put(const ChunkJob& job, std::vector<amp_t> buf) {
  if (writer_) return writer_->put(job, std::move(buf));
  const std::size_t half = store_.chunk_amps();
  cache_->store(job.a, std::span<const amp_t>(buf).first(half));
  if (job.has_b)
    cache_->store(job.b, std::span<const amp_t>(buf).subspan(half, half));
  ledger_.release(buf.size() * kAmpBytes);
  buffers_.put(std::move(buf));
  return 0.0;
}

void CachedWriter::drain() {
  if (writer_) writer_->drain();
}

PlanCost forecast_plan_cost(const std::vector<StageAccess>& plan,
                            index_t n_chunks, std::uint64_t chunk_raw_bytes,
                            std::uint64_t budget_bytes) {
  PlanCost cost;
  const auto stage_count = [n_chunks](const StageAccess& stage) -> index_t {
    return stage.count != 0 ? stage.count : n_chunks;
  };
  for (const StageAccess& stage : plan) {
    if (stage.kind == StageAccess::Kind::kPermute) continue;
    cost.chunk_loads += stage_count(stage);
    cost.chunk_stores += stage_count(stage);
  }
  cost.h2d_bytes = cost.chunk_loads * chunk_raw_bytes;

  const bool cache_on =
      chunk_raw_bytes > 0 && budget_bytes >= chunk_raw_bytes;
  // Replaying very long access streams is not worth the planning time; past
  // the cap, report the cache-less analytic bound and say so.
  constexpr std::uint64_t kReplayCap = 1ull << 23;
  if (!cache_on || cost.chunk_loads > kReplayCap) {
    cost.cache_misses = cost.chunk_loads;
    cost.codec_encodes = cost.chunk_stores;
    cost.exact = !cache_on;
    return cost;
  }

  CachePolicy policy(budget_bytes / chunk_raw_bytes, n_chunks);
  policy.set_plan(plan);
  const auto evicted = [&](index_t, const CachePolicy::Resident& r) {
    if (r.dirty) ++cost.codec_encodes;  // write-back
  };
  const auto load = [&](index_t slot) {
    if (policy.access(slot) != nullptr) {
      ++cost.cache_hits;
      return;
    }
    ++cost.cache_misses;
    if (policy.make_room(slot, evicted)) policy.insert(slot, false, 0);
  };
  const auto store = [&](index_t slot) {
    if (CachePolicy::Resident* r = policy.access(slot)) {
      r->dirty = true;
    } else if (policy.make_room(slot, evicted)) {
      policy.insert(slot, true, 0);
    } else {
      ++cost.codec_encodes;  // pass-through
    }
  };
  for (std::size_t s = 0; s < plan.size(); ++s) {
    const StageAccess& stage = plan[s];
    policy.begin_stage(s);
    if (stage.kind == StageAccess::Kind::kPermute) {
      for_each_swap_pair(stage.permute, stage_count(stage),
                         [&](index_t li, index_t lj) {
                           policy.relabel(stage.base + li, stage.base + lj);
                         });
      continue;
    }
    for (index_t local = 0; local < stage_count(stage); ++local) {
      const index_t i = stage.base + local;
      if (stage.kind == StageAccess::Kind::kEvery) {
        load(i);
        store(i);
      } else if ((local & stage.pair_mask) == 0) {
        const index_t j = stage.base + (local | stage.pair_mask);
        load(i);
        load(j);
        store(i);
        store(j);
      }
    }
  }
  policy.for_each([&](index_t, const CachePolicy::Resident& r) {
    if (r.dirty) ++cost.codec_encodes;  // end-of-run flush
  });
  return cost;
}

}  // namespace memq::core
