// Per-stage metrics report: one row per offline-plan stage with the DELTAS
// of the run counters (chunk loads/stores, cache hits/misses/evictions/
// write-backs, spill I/O, device traffic) plus stall accounting — wall
// seconds the coordinator spent blocked on the codec pipeline, and modeled
// seconds the device(s) sat idle waiting for chunks.
//
// Rows are built by telescoping counter snapshots (each stage's "before" is
// the previous stage's "after"), so per-stage counter deltas sum EXACTLY to
// the whole-run delta in `total`. Seconds-type fields outside the stage loop
// (offline partitioning, the final device drain) belong to `total` only, so
// for those the row sum is a lower bound.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace memq::core {

/// Offline prediction of a stage plan's data-movement cost under the
/// configured cache budget — the plan's access order replayed through the
/// chunk cache's own CachePolicy (forecast_plan_cost, core/chunk_cache.hpp).
/// It assumes every chunk is nonzero, an unpipelined access order and that
/// every stage modifies every chunk; zero-chunk skips only remove accesses,
/// so predicted loads bound the run's from above.
struct PlanCost {
  std::uint64_t chunk_loads = 0;   ///< chunk load ops the plan will issue
  std::uint64_t chunk_stores = 0;  ///< chunk store ops the plan will issue
  std::uint64_t cache_hits = 0;    ///< loads predicted to be served in-cache
  std::uint64_t cache_misses = 0;  ///< loads predicted to pay a decode
  std::uint64_t codec_encodes = 0; ///< stores predicted to pay an encode
                                   ///< (write-backs + pass-throughs + flush)
  std::uint64_t h2d_bytes = 0;     ///< modeled upload traffic (raw bytes)
  /// False when the access stream exceeded the forecast cap and the
  /// cache-less analytic bound was reported instead.
  bool exact = true;
  /// Predicted codec invocations (decodes + encodes).
  double codec_passes() const {
    return static_cast<double>(cache_misses + codec_encodes);
  }
};

struct StageRow {
  std::size_t index = 0;       ///< position in the stage plan
  const char* kind = "";       ///< "local" | "pair" | "permute" | "measure"
  std::size_t gates = 0;

  // ---- counter deltas (telescoped; rows sum exactly to `total`) ----------
  std::uint64_t chunk_loads = 0;
  std::uint64_t chunk_stores = 0;
  /// Raw amplitude bytes through the codec this stage (loads/stores times
  /// the chunk's uncompressed size; with decompress/recompress_seconds
  /// these give per-stage codec MB/s).
  std::uint64_t codec_decode_bytes = 0;
  std::uint64_t codec_encode_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_writebacks = 0;
  std::uint64_t spill_writes = 0;
  std::uint64_t spill_reads = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t kernel_launches = 0;
  std::uint64_t zero_chunks_skipped = 0;

  // ---- seconds deltas ----------------------------------------------------
  double decompress_seconds = 0.0;  ///< real codec decode (summed workers)
  double recompress_seconds = 0.0;  ///< real codec encode (summed workers)
  double cpu_apply_seconds = 0.0;   ///< real CPU gate application
  double stall_seconds = 0.0;       ///< coordinator blocked on the pipeline
  double modeled_seconds = 0.0;     ///< modeled host-clock advance
  double device_busy_seconds = 0.0; ///< modeled busy, all streams/devices
  double kernel_busy_seconds = 0.0; ///< modeled busy, compute streams only
  /// Modeled seconds of compute capacity left idle during this stage:
  /// max(0, modeled_seconds * device_count - kernel_busy_seconds). High
  /// values with high stall_seconds mean the codec pipeline starved the
  /// device.
  double device_idle_seconds = 0.0;
};

struct StageReport {
  std::vector<StageRow> rows;
  /// Whole-run delta (first snapshot to after the final device drain);
  /// kind is "total".
  StageRow total;

  /// Offline prediction for this run's plan (planned-vs-actual in
  /// --stage-report / telemetry). All-zero for engines without a plan.
  PlanCost planned;
  /// True when the locality-aware plan optimizer produced the stage plan
  /// (--plan-opt on); false reproduces the legacy greedy cut.
  bool plan_optimized = false;
  /// Stage-kind census of the executed plan (PartitionStats, surfaced).
  std::uint64_t plan_local_stages = 0;
  std::uint64_t plan_pair_stages = 0;
  std::uint64_t plan_permute_stages = 0;
  std::uint64_t plan_measure_stages = 0;
  /// PartitionStats::gates_per_codec_pass() of the executed plan.
  double plan_gates_per_codec_pass = 0.0;

  /// Latency distribution of one hot-path histogram over the run window
  /// (percentiles are bucket-upper-edge bounds from common/metrics.hpp).
  struct LatencySummary {
    std::uint64_t count = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p95_ns = 0;
    std::uint64_t p99_ns = 0;
    std::uint64_t max_ns = 0;
    double mean_ns = 0.0;
  };
  /// Run-window latency summaries keyed by histogram name (codec.decode_ns,
  /// codec.encode_ns, pager.lease_wait_ns, spill.read_ns, spill.write_ns,
  /// engine.stage_ns). Populated only for histograms that recorded samples —
  /// empty when metrics timing was never armed (see metrics::arm_timing).
  std::map<std::string, LatencySummary> latency;
};

}  // namespace memq::core
