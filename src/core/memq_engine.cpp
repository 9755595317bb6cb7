#include "core/memq_engine.hpp"

#include <algorithm>
#include <cstring>
#include <deque>

#include "circuit/transpile.hpp"
#include "common/bit_ops.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"
#include "core/chunk_exec.hpp"
#include "core/plan_opt.hpp"

namespace memq::core {

using circuit::Gate;
using circuit::GateKind;

/// Absolute counter/clock values at a stage boundary; rows are differences
/// of consecutive snaps, so per-stage counters telescope to the run total.
/// Pipeline counters come from one registry snapshot (common/metrics.hpp) —
/// the same cells every other surface reads — so the stage report cannot
/// drift from the CLI summary or telemetry JSON. Modeled-device counters and
/// the seconds-type clocks live outside the registry and ride alongside.
struct MemQSimEngine::MetricsSnap {
  metrics::Snapshot regs;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t kernel_launches = 0;
  double decompress = 0.0;
  double recompress = 0.0;
  double cpu_apply = 0.0;
  double stall = 0.0;
  double modeled = 0.0;
  double device_busy = 0.0;
  double kernel_busy = 0.0;

  static StageRow delta(const MetricsSnap& from, const MetricsSnap& to,
                        std::size_t device_count) {
    StageRow r;
    const auto d = [&](const char* name) {
      return to.regs.counter_delta(from.regs, name);
    };
    r.chunk_loads = d("store.chunk_loads");
    r.chunk_stores = d("store.chunk_stores");
    r.codec_decode_bytes = d("codec.decode_bytes");
    r.codec_encode_bytes = d("codec.encode_bytes");
    r.cache_hits = d("cache.hits");
    r.cache_misses = d("cache.misses");
    r.cache_evictions = d("cache.evictions");
    r.cache_writebacks = d("cache.writebacks");
    r.spill_writes = d("blob.spill_writes");
    r.spill_reads = d("blob.spill_reads");
    r.zero_chunks_skipped = d("engine.zero_chunks_skipped");
    r.h2d_bytes = to.h2d_bytes - from.h2d_bytes;
    r.d2h_bytes = to.d2h_bytes - from.d2h_bytes;
    r.kernel_launches = to.kernel_launches - from.kernel_launches;
    r.decompress_seconds = to.decompress - from.decompress;
    r.recompress_seconds = to.recompress - from.recompress;
    r.cpu_apply_seconds = to.cpu_apply - from.cpu_apply;
    r.stall_seconds = to.stall - from.stall;
    r.modeled_seconds = to.modeled - from.modeled;
    r.device_busy_seconds = to.device_busy - from.device_busy;
    r.kernel_busy_seconds = to.kernel_busy - from.kernel_busy;
    r.device_idle_seconds =
        std::max(0.0, r.modeled_seconds * static_cast<double>(device_count) -
                          r.kernel_busy_seconds);
    return r;
  }
};

MemQSimEngine::MetricsSnap MemQSimEngine::take_metrics_snap() {
  pager_.refresh_telemetry();
  collect_device_telemetry();
  telemetry_.zero_chunks_skipped = zero_skips_.value() - zero_skips_base_;
  MetricsSnap s;
  s.regs = metrics::Registry::global().snapshot();
  s.h2d_bytes = telemetry_.h2d_bytes;
  s.d2h_bytes = telemetry_.d2h_bytes;
  s.kernel_launches = telemetry_.kernel_launches;
  s.decompress = telemetry_.cpu_phases.get("decompress");
  s.recompress = telemetry_.cpu_phases.get("recompress");
  s.cpu_apply = telemetry_.cpu_phases.get("cpu_apply");
  s.stall = telemetry_.pipeline_stall_seconds;
  s.modeled = telemetry_.modeled_total_seconds;
  s.device_busy = telemetry_.device_busy_seconds;
  for (const DeviceContext& ctx : devices_)
    s.kernel_busy += ctx.compute->busy_seconds();
  return s;
}

MemQSimEngine::MemQSimEngine(qubit_t n_qubits, const EngineConfig& config)
    : CompressedEngineBase(n_qubits, config),
      clock_(std::make_shared<device::HostClock>()),
      zero_skips_(
          metrics::Registry::global().counter("engine.zero_chunks_skipped")),
      stage_ns_(metrics::Registry::global().histogram("engine.stage_ns")),
      predicted_passes_g_(
          metrics::Registry::global().gauge("plan.predicted_codec_passes")) {
  MEMQ_CHECK(config.device_slots >= 1, "need at least one device slot");
  MEMQ_CHECK(config.device_count >= 1, "need at least one device");
  const std::uint64_t pair_bytes = chunk_amps() * 2 * kAmpBytes;
  const bool staged =
      config.strategy == device::TransferStrategy::kStagedBuffer;
  const std::uint64_t per_slot = pair_bytes * (staged ? 2 : 1);
  MEMQ_CHECK(per_slot * config.device_slots <= config.device.memory_bytes,
             "device memory too small: "
                 << config.device_slots << " slots x " << per_slot
                 << " B needed, have " << config.device.memory_bytes
                 << " B — lower chunk_qubits or device_slots");

  devices_.resize(config.device_count);
  for (std::uint32_t d = 0; d < config.device_count; ++d) {
    DeviceContext& ctx = devices_[d];
    const std::string tag = "dev" + std::to_string(d);
    ctx.device = std::make_unique<device::SimDevice>(config.device, clock_);
    ctx.h2d = std::make_unique<device::Stream>(*ctx.device, tag + ":h2d");
    ctx.compute =
        std::make_unique<device::Stream>(*ctx.device, tag + ":compute");
    ctx.d2h = std::make_unique<device::Stream>(*ctx.device, tag + ":d2h");
    ctx.copy =
        std::make_unique<device::CopyEngine>(*ctx.device, config.strategy);
    ctx.slots.resize(config.device_slots);
    for (std::uint32_t s = 0; s < config.device_slots; ++s) {
      ctx.slots[s].state =
          ctx.device->alloc(pair_bytes, tag + ":slot" + std::to_string(s));
      if (staged)
        ctx.slots[s].staging =
            ctx.device->alloc(pair_bytes, tag + ":staging" + std::to_string(s));
    }
  }
  collect_device_telemetry();
}

void MemQSimEngine::reset() {
  CompressedEngineBase::reset();
  zero_skips_base_ = zero_skips_.value();
  clock_->reset();
  for (DeviceContext& ctx : devices_) {
    ctx.device->reset_stats();
    ctx.h2d->reset_clock();
    ctx.compute->reset_clock();
    ctx.d2h->reset_clock();
    for (auto& slot : ctx.slots) slot.free_at = {0.0};
    ctx.next_slot = 0;
  }
  next_device_ = 0;
  work_items_ = 0;
  plan_.reset();
  report_ = StageReport{};
}

void MemQSimEngine::charge_cpu(double seconds) { clock_->advance(seconds); }

void MemQSimEngine::run(const circuit::Circuit& circuit) {
  MEMQ_CHECK(circuit.n_qubits() == n_qubits(), "circuit width mismatch");
  WallTimer wall;
  // Layout is chosen once, from the first circuit on the fresh |0..0>
  // state (which is invariant under qubit relabeling).
  const bool fresh_layout_choice =
      config_.optimize_layout && state_is_fresh_ && layout_.is_identity();
  WallTimer offline;
  {
    if (fresh_layout_choice)
      layout_ = QubitLayout::optimize(circuit, chunk_qubits());
    // Swap elision runs strictly BEFORE partitioning on every path, so a
    // SWAP the layout can elide is never lowered to three CXs first.
    const auto prepare = [&] {
      circuit::Circuit mapped = layout_.map_circuit(circuit);
      if (config_.elide_swaps) mapped = elide_swaps(mapped, layout_);
      if (config_.fuse_single_qubit_runs)
        mapped = circuit::fuse_1q_runs(mapped);
      return mapped;
    };
    const PlanOptOptions opt{
        chunk_qubits(), config_.cache_budget_bytes,
        (index_t{1} << chunk_qubits()) * sizeof(amp_t), n_chunks()};
    if (config_.plan_opt) {
      plan_ = build_optimized_plan(prepare(), opt);
      // Layout/schedule co-convergence: re-rank target hotness on the
      // circuit the schedule actually executes. Heat is order-invariant,
      // so a refinement round only differs when swap elision rewired or
      // fusion merged targets; one round converges. Sound only while the
      // state is the relabeling-invariant fresh |0..0> (same condition as
      // the initial layout choice).
      if (fresh_layout_choice &&
          (config_.elide_swaps || config_.fuse_single_qubit_runs)) {
        circuit::Circuit scheduled(circuit.n_qubits());
        for (const Stage& s : plan_->stages)
          for (const Gate& g : s.gates) scheduled.append(g);
        const QubitLayout refine =
            QubitLayout::optimize(scheduled, chunk_qubits());
        if (!refine.is_identity()) {
          std::vector<qubit_t> composed(circuit.n_qubits());
          for (qubit_t l = 0; l < circuit.n_qubits(); ++l)
            composed[l] = refine.physical(layout_.physical(l));
          layout_ = QubitLayout::from_mapping(composed);
          plan_ = build_optimized_plan(prepare(), opt);
        }
      }
    } else {
      // Legacy arm: the pre-plan-opt pipeline, gate for gate. Only the
      // cost forecast (plan metadata) is new.
      plan_ = partition(prepare(), chunk_qubits());
      plan_->cost = estimate_plan_cost(*plan_, opt);
    }
  }
  // Charge this run's planning only; the phase total accumulates across
  // runs of one engine.
  const double offline_seconds = offline.seconds();
  telemetry_.cpu_phases.add("offline_partition", offline_seconds);
  charge_cpu(offline_seconds);
  state_is_fresh_ = false;

  if (pager_.cache_enabled()) {
    // Hand the offline stage schedule to the cache so eviction can be
    // Belady-optimal: per stage, which slots are touched and at which sweep
    // position (pairs share the position of their low chunk).
    pager_.set_plan(plan_accesses(*plan_, chunk_qubits()));
  }

  report_ = StageReport{};
  report_.planned = plan_->cost;
  // Publish the forecast so the metrics sampler's --progress line can show
  // actual vs predicted codec passes without reaching into the engine.
  predicted_passes_g_.set(
      static_cast<std::uint64_t>(plan_->cost.codec_passes()));
  report_.plan_optimized = config_.plan_opt;
  report_.plan_gates_per_codec_pass = plan_->stats.gates_per_codec_pass();
  report_.plan_local_stages = plan_->stats.local_stages;
  report_.plan_pair_stages = plan_->stats.pair_stages;
  report_.plan_permute_stages = plan_->stats.permute_stages;
  report_.plan_measure_stages = plan_->stats.measure_stages;
  report_.rows.reserve(plan_->stages.size());
  const MetricsSnap first_snap = take_metrics_snap();
  MetricsSnap prev_snap = first_snap;

  for (std::size_t si = 0; si < plan_->stages.size(); ++si) {
    const Stage& stage = plan_->stages[si];
    {
      MEMQ_TRACE_SCOPE("stage", stage_kind_name(stage.kind),
                       trace::arg("stage", std::uint64_t{si}) + "," +
                           trace::arg("gates", stage.gates.size()));
      run_stage_window(stage, 0, 0, si);
    }
    MetricsSnap now_snap = take_metrics_snap();
    StageRow row = MetricsSnap::delta(prev_snap, now_snap, devices_.size());
    row.index = si;
    row.kind = stage_kind_name(stage.kind);
    row.gates = stage.gates.size();
    report_.rows.push_back(row);
    prev_snap = now_snap;
  }

  pager_.clear_plan();  // back to LRU for post-run sweeps

  sync_devices();  // drain every device before reporting
  telemetry_.wall_seconds += wall.seconds();
  refresh_footprint_telemetry();
  const MetricsSnap last_snap = take_metrics_snap();
  report_.total = MetricsSnap::delta(first_snap, last_snap, devices_.size());
  report_.total.kind = "total";
  report_.total.gates = circuit.size();
  for (const auto& [name, hist] : last_snap.regs.histograms) {
    metrics::HistogramSnapshot h = hist;
    const auto it = first_snap.regs.histograms.find(name);
    if (it != first_snap.regs.histograms.end()) h = h.minus(it->second);
    if (h.count == 0) continue;  // timing disarmed or site never hit
    StageReport::LatencySummary& l = report_.latency[name];
    l.count = h.count;
    l.p50_ns = h.percentile(0.50);
    l.p95_ns = h.percentile(0.95);
    l.p99_ns = h.percentile(0.99);
    l.max_ns = h.max;
    l.mean_ns = static_cast<double>(h.sum) / static_cast<double>(h.count);
  }
}

StagePlan MemQSimEngine::plan_for(const circuit::Circuit& circuit) {
  MEMQ_CHECK(circuit.n_qubits() >= chunk_qubits() &&
                 circuit.n_qubits() <= n_qubits(),
             "member circuit width " << circuit.n_qubits()
                                     << " out of range for a "
                                     << n_qubits() << "-qubit batch engine");
  MEMQ_CHECK(!config_.optimize_layout && !config_.elide_swaps,
             "batch planning requires the identity layout "
             "(disable optimize_layout / elide_swaps)");
  // Mirrors run()'s prepare(): with the identity layout and swap elision
  // off, the only transform left is 1q-run fusion — so a serial engine with
  // the same config schedules this exact stage sequence.
  circuit::Circuit mapped = circuit;
  if (config_.fuse_single_qubit_runs) mapped = circuit::fuse_1q_runs(mapped);
  const index_t span = index_t{1} << (circuit.n_qubits() - chunk_qubits());
  const PlanOptOptions opt{chunk_qubits(), config_.cache_budget_bytes,
                           (index_t{1} << chunk_qubits()) * sizeof(amp_t),
                           span};
  if (config_.plan_opt) return build_optimized_plan(mapped, opt);
  StagePlan plan = partition(mapped, chunk_qubits());
  plan.cost = estimate_plan_cost(plan, opt);
  return plan;
}

void MemQSimEngine::run_stage_window(const Stage& stage, index_t base,
                                     index_t span, std::size_t access_index) {
  state_is_fresh_ = false;
  pager_.begin_stage(access_index);
  metrics::ScopedTimer stage_timer(stage_ns_);
  switch (stage.kind) {
    case StageKind::kLocal:
      ++telemetry_.stages_local;
      run_local_stage(stage, base, span);
      break;
    case StageKind::kPair:
      ++telemetry_.stages_pair;
      run_pair_stage(stage, base, span);
      break;
    case StageKind::kPermute:
      ++telemetry_.stages_permute;
      run_permute_stage(stage, base, span);
      break;
    case StageKind::kMeasure: {
      if (span != 0)
        MEMQ_THROW(InvalidArgument,
                   "measure stages are not batchable (the scheduler rejects "
                   "measure/reset circuits up front)");
      ++telemetry_.stages_measure;
      const Gate& g = stage.gates.at(0);
      const bool outcome = measure_qubit(g.targets.at(0));
      if (g.kind == GateKind::kReset && outcome) {
        const Gate fix = Gate::x(g.targets[0]);
        if (g.targets[0] >= chunk_qubits()) {
          run_permute_stage({StageKind::kPermute, {fix}, 0});
        } else {
          run_local_stage({StageKind::kLocal, {fix}, 0});
        }
      }
      break;
    }
  }
}

void MemQSimEngine::sync_devices() {
  for (DeviceContext& ctx : devices_) {
    ctx.device->sync_host(*ctx.d2h);
    ctx.device->sync_host(*ctx.compute);
  }
  collect_device_telemetry();
}

void MemQSimEngine::run_permute_stage(const Stage& stage, index_t base,
                                      index_t span) {
  // Compressed-form permutation: only blob pointers move.
  WallTimer t;
  pager_.permute(stage.gates.at(0), base, span);
  const double dt = t.seconds();
  telemetry_.cpu_phases.add("permute", dt);
  charge_cpu(dt / config_.cpu_codec_workers);
}

bool MemQSimEngine::cpu_apply(std::span<amp_t> buf, const Stage& stage,
                              index_t chunk_lo) {
  WallTimer t;
  bool modified = false;
  for (const Gate& g : stage.gates) {
    if (stage.kind == StageKind::kPair)
      modified |= apply_gate_to_pair(buf, chunk_lo, chunk_qubits(),
                                     stage.pair_qubit, g);
    else
      modified |= apply_gate_to_chunk(buf, chunk_lo, chunk_qubits(), g);
  }
  const double dt = t.seconds();
  telemetry_.cpu_phases.add("cpu_apply", dt);
  charge_cpu(dt / config_.cpu_codec_workers);
  return modified;
}

std::pair<bool, device::Event> MemQSimEngine::device_round_trip(
    std::span<amp_t> host_buf, const Stage& stage, index_t chunk_lo,
    bool constant_src) {
  DeviceContext& ctx = devices_[next_device_];
  next_device_ = (next_device_ + 1) % devices_.size();
  Slot& slot = ctx.slots[ctx.next_slot];
  ctx.next_slot = (ctx.next_slot + 1) % ctx.slots.size();

  // The slot must be free: its previous occupant's download must have
  // completed before we overwrite the device buffer.
  ctx.h2d->wait(slot.free_at);

  if (constant_src) {
    // The source chunk(s) are a constant tag: the device materializes the
    // fill itself instead of pulling the full amplitudes over the modeled
    // PCIe link. Charged as a data-movement kernel on the compute stream;
    // no h2d bytes or copy calls are counted. (The real memcpy still runs —
    // the simulated device computes real results.)
    amp_t* dst = slot.state.view<amp_t>().data();
    const amp_t* src = host_buf.data();
    const std::size_t n = host_buf.size();
    ctx.compute->wait(ctx.h2d->record());  // slot-reuse ordering
    ctx.compute->launch(
        "const_fill", n,
        [dst, src, n] { std::memcpy(dst, src, n * sizeof(amp_t)); },
        ctx.device->config().scatter_kernel_throughput);
  } else {
    ctx.copy->upload(*ctx.h2d, slot.state, {host_buf.data(), host_buf.size()},
                     {}, slot.staging.valid() ? &slot.staging : nullptr);
    ctx.compute->wait(ctx.h2d->record());
  }

  // Launch one kernel per gate (paper step 3), operating in device memory.
  bool modified = false;
  auto dev_amps = slot.state.view<amp_t>().first(host_buf.size());
  const qubit_t c = chunk_qubits();
  for (const Gate& g : stage.gates) {
    bool* modified_ptr = &modified;
    ctx.compute->launch(
        g.base_name(), host_buf.size(),
        [&, modified_ptr] {
          if (stage.kind == StageKind::kPair)
            *modified_ptr |=
                apply_gate_to_pair(dev_amps, chunk_lo, c, stage.pair_qubit, g);
          else
            *modified_ptr |= apply_gate_to_chunk(dev_amps, chunk_lo, c, g);
        });
  }
  ctx.d2h->wait(ctx.compute->record());

  ctx.copy->download(*ctx.d2h, host_buf, slot.state, {},
                     slot.staging.valid() ? &slot.staging : nullptr);
  const device::Event done = ctx.d2h->record();
  slot.free_at = done;
  return {modified, done};
}

namespace {

/// Round-robin CPU-offload selector (paper step 5).
struct OffloadPicker {
  double fraction;
  double accum = 0.0;
  bool pick() {
    if (fraction <= 0.0) return false;
    accum += fraction;
    if (accum >= 1.0) {
      accum -= 1.0;
      return true;
    }
    return false;
  }
};

}  // namespace

void MemQSimEngine::run_stream_stage(const Stage& stage,
                                     std::vector<ChunkJob> jobs,
                                     index_t base) {
  struct InFlight {
    StatePager::Lease lease;
    device::Event done;
    bool modified;
  };
  std::deque<InFlight> in_flight;
  OffloadPicker offload{config_.cpu_offload_fraction};

  // The stage stream owns the split decode-ahead window / writer backlog
  // (reader window + writer-resident buffers <= codec_threads work items);
  // together with the device deque the stage keeps <= pipeline_depth +
  // codec_threads decompressed items in flight. All codec timing — serial
  // per-item charges, pool-mode coordinator waits, cache timings — is
  // settled by the stream itself.
  StatePager::StageStream io = pager_.open_stage(std::move(jobs));

  const auto complete_front = [&] {
    InFlight item = std::move(in_flight.front());
    in_flight.pop_front();
    clock_->sync_until(item.done.time);
    io.release(std::move(item.lease), item.modified);
  };

  while (auto lease = io.next()) {
    ++work_items_;
    // Kernels index chunks member-locally: a batch member's window behaves
    // bit-identically to a standalone state (base = 0 on the serial path).
    const index_t chunk_lo = lease->chunk() - base;

    if (offload.pick()) {
      // Step (5): this work item is updated by idle CPU cores.
      const bool modified = cpu_apply(lease->amps(), stage, chunk_lo);
      io.release(std::move(*lease), modified);
      continue;
    }

    // Constant-tagged chunks skip the modeled H2D transfer (the device
    // fills them from the ~16-byte tag). Gated on config.dedup so --dedup
    // off reproduces the historical transfer model exactly.
    const ChunkJob& job = lease->job();
    const bool constant_src =
        config_.dedup && pager_.is_constant(job.a) &&
        (!job.has_b || pager_.is_constant(job.b));

    const auto [modified, done] =
        device_round_trip(lease->amps(), stage, chunk_lo, constant_src);
    in_flight.push_back({std::move(*lease), done, modified});

    if (!config_.pipelined) {
      complete_front();  // serialize every phase
    } else if (in_flight.size() >= pipeline_depth()) {
      complete_front();  // bounded pipeline depth
    }
  }
  while (!in_flight.empty()) complete_front();
  io.finish();
}

void MemQSimEngine::run_local_stage(const Stage& stage, index_t base,
                                    index_t span) {
  const index_t count = span != 0 ? span : n_chunks();
  std::vector<ChunkJob> jobs;
  for (index_t li = 0; li < count; ++li) {
    const index_t ci = base + li;
    if (chunk_is_zero(ci)) {
      zero_skips_.add();
      continue;  // unitary gates keep the zero subspace zero
    }
    jobs.push_back({ci, 0, false});
  }
  run_stream_stage(stage, std::move(jobs), base);
}

void MemQSimEngine::run_pair_stage(const Stage& stage, index_t base,
                                   index_t span) {
  const index_t count = span != 0 ? span : n_chunks();
  const qubit_t pair_bit = stage.pair_qubit - chunk_qubits();
  std::vector<ChunkJob> jobs;
  // Pairing runs on member-local indices: the pair bit is a bit of the
  // member's own chunk address, never of the member-index qubits above it.
  for (index_t li = 0; li < count; ++li) {
    if (bits::test(li, pair_bit)) continue;
    const index_t ci = base + li;
    const index_t cj = base + bits::set(li, pair_bit);
    if (chunk_is_zero(ci) && chunk_is_zero(cj)) {
      zero_skips_.add();
      continue;
    }
    jobs.push_back({ci, cj, true});
  }
  run_stream_stage(stage, std::move(jobs), base);
}

void MemQSimEngine::collect_device_telemetry() {
  telemetry_.h2d_bytes = 0;
  telemetry_.d2h_bytes = 0;
  telemetry_.h2d_calls = 0;
  telemetry_.d2h_calls = 0;
  telemetry_.kernel_launches = 0;
  telemetry_.peak_device_bytes = 0;
  telemetry_.device_busy_seconds = 0.0;
  for (const DeviceContext& ctx : devices_) {
    const auto& st = ctx.device->stats();
    telemetry_.h2d_bytes += st.h2d_bytes;
    telemetry_.d2h_bytes += st.d2h_bytes;
    telemetry_.h2d_calls += st.h2d_calls;
    telemetry_.d2h_calls += st.d2h_calls;
    telemetry_.kernel_launches += st.kernel_launches;
    telemetry_.peak_device_bytes += st.peak_bytes;
    telemetry_.device_busy_seconds += ctx.h2d->busy_seconds() +
                                      ctx.compute->busy_seconds() +
                                      ctx.d2h->busy_seconds();
  }
  telemetry_.modeled_total_seconds = clock_->now();
}

}  // namespace memq::core
