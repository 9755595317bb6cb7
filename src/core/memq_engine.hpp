// MEMQSIM: the paper's engine.
//
// Offline stage — the circuit is partitioned into locality stages
// (partitioner.hpp) and the state vector lives chunked + compressed in CPU
// memory (chunk_store.hpp).
//
// Online stage — per stage, chunks stream through the (simulated) GPU(s):
//   (1) decompress chunk(s) into a CPU buffer            [CPU, real time]
//   (2) transfer amplitudes to device memory             [copy stream]
//   (3) launch the gate kernels asynchronously           [compute stream]
//   (4) return updated amplitudes to the CPU buffer      [copy stream]
//   (5) optionally update a fraction of chunks with idle CPU cores
//   (6) re-compress and store back                       [CPU, real time]
// with double-buffered device slots so step (2) of chunk k+1 overlaps step
// (3) of chunk k, and CPU codec work overlaps device work when
// config.pipelined is set (paper Figure 1/2). With device_count > 1, work
// items fan out round-robin across accelerators whose virtual timelines
// advance in parallel against one shared host clock.
#pragma once

#include <memory>
#include <optional>

#include "common/metrics.hpp"
#include "core/compressed_base.hpp"
#include "core/partitioner.hpp"
#include "device/copy_engine.hpp"
#include "device/stream.hpp"

namespace memq::core {

class MemQSimEngine final : public CompressedEngineBase {
 public:
  MemQSimEngine(qubit_t n_qubits, const EngineConfig& config);

  std::string name() const override { return "memqsim"; }
  void run(const circuit::Circuit& circuit) override;
  void reset() override;

  /// Stage plan of the last run() (benches inspect locality stats).
  const std::optional<StagePlan>& last_plan() const { return plan_; }

  /// Per-stage counter deltas + stall accounting of the last run().
  const StageReport* stage_report() const override { return &report_; }

  // ---- batch execution hooks (core/batch_scheduler.hpp) -----------------
  // The batch scheduler widens one engine over member-index qubits and
  // drives it stage-by-stage through these, so every member's execution
  // reuses exactly the serial stage machinery (same jobs, same kernels,
  // same codec passes) — the foundation of the batch-vs-serial bit-identity
  // oracle.

  /// Builds the stage plan run() would execute for `circuit`, which may be
  /// narrower than the engine (member circuits of a widened batch engine).
  /// Requires the batch-legal config subset — no layout optimization, no
  /// swap elision — so the prepared circuit is exactly what a serial engine
  /// with the same config schedules. Pure: no state or telemetry changes.
  StagePlan plan_for(const circuit::Circuit& circuit);

  /// Executes one stage against the chunk window [base, base + span):
  /// advances the cache's plan cursor to `access_index` (the stage's slot in
  /// the installed StageAccess schedule) and dispatches with member-local
  /// chunk arithmetic. run() drives every stage through here with the whole
  /// store (base = span = 0); measure stages are legal only there.
  void run_stage_window(const Stage& stage, index_t base, index_t span,
                        std::size_t access_index);

  /// Installs / clears the merged batch StageAccess schedule (one entry per
  /// run_stage_window access_index, windows included) on the cache.
  void install_batch_plan(std::vector<StageAccess> accesses) {
    pager_.set_plan(std::move(accesses));
  }
  void clear_batch_plan() { pager_.clear_plan(); }

  /// Member fan-out: blob-level clone of [src_base, src_base + count) onto
  /// [dst_base, ...) with no codec pass (StatePager::fanout).
  void fanout_chunks(index_t src_base, index_t dst_base, index_t count) {
    pager_.fanout(src_base, dst_base, count);
  }

  /// Drains every modeled device stream and folds the device counters and
  /// the modeled clock into telemetry() (run() does this before reporting;
  /// the batch scheduler calls it once after the last member stage).
  void sync_devices();

 private:
  struct Slot {
    device::DeviceBuffer state;
    device::DeviceBuffer staging;
    device::Event free_at;  // previous occupant fully downloaded
  };

  /// One accelerator: its memory space, streams and buffer slots.
  struct DeviceContext {
    std::unique_ptr<device::SimDevice> device;
    std::unique_ptr<device::Stream> h2d;
    std::unique_ptr<device::Stream> compute;
    std::unique_ptr<device::Stream> d2h;
    std::unique_ptr<device::CopyEngine> copy;
    std::vector<Slot> slots;
    std::size_t next_slot = 0;
  };

  void charge_cpu(double seconds) override;

  /// Stage runners. The optional window [base, base + span) scopes the
  /// stage to one batch member's chunk span; kernels see MEMBER-LOCAL chunk
  /// indices (physical - base), so a member executes bit-identically to a
  /// standalone engine of span chunks. base = 0 / span = 0 is the whole
  /// store — the historical serial path, byte for byte.
  void run_local_stage(const Stage& stage, index_t base = 0, index_t span = 0);
  void run_pair_stage(const Stage& stage, index_t base = 0, index_t span = 0);
  void run_permute_stage(const Stage& stage, index_t base = 0,
                         index_t span = 0);

  /// Shared online-stage loop: streams `jobs` decompress -> device round
  /// trip -> recompress, with codec work fanned across the codec pool
  /// (bounded in-flight window) or run inline in serial mode. `base` is
  /// subtracted from each lease's chunk index before it reaches a kernel.
  void run_stream_stage(const Stage& stage, std::vector<ChunkJob> jobs,
                        index_t base = 0);

  /// Streams one work item (a chunk or a chunk pair, already decompressed
  /// into `host_buf`) through upload -> kernels -> download on the next
  /// device (round-robin). With `constant_src` the upload is replaced by a
  /// modeled device-side fill (the chunk is a ~16-byte constant tag — the
  /// device can materialize it without moving the amplitudes over PCIe).
  /// Returns {modified, completion event}.
  std::pair<bool, device::Event> device_round_trip(std::span<amp_t> host_buf,
                                                   const Stage& stage,
                                                   index_t chunk_lo,
                                                   bool constant_src);

  /// CPU path for step (5).
  bool cpu_apply(std::span<amp_t> buf, const Stage& stage, index_t chunk_lo);

  void collect_device_telemetry();
  std::size_t pipeline_depth() const {
    return devices_.size() * devices_.front().slots.size() + 1;
  }

  /// Counter/clock snapshot for the stage report (telescoped deltas).
  struct MetricsSnap;
  MetricsSnap take_metrics_snap();

  std::shared_ptr<device::HostClock> clock_;
  std::vector<DeviceContext> devices_;
  std::size_t next_device_ = 0;

  std::optional<StagePlan> plan_;
  StageReport report_;
  std::uint64_t work_items_ = 0;  // for cpu-offload round-robin

  // Per-instance metrics cells (common/metrics.hpp). The zero-skip cell is
  // monotone for the sampler; `telemetry_.zero_chunks_skipped` subtracts the
  // baseline captured at reset() so engine telemetry keeps reset semantics.
  metrics::Counter& zero_skips_;
  std::uint64_t zero_skips_base_ = 0;
  metrics::Histogram& stage_ns_;
  metrics::Gauge& predicted_passes_g_;
};

}  // namespace memq::core
