// End-to-end engine equivalence: MemQSim (chunked, compressed, streamed
// through the simulated device) and the Wu-style baseline must reproduce the
// dense oracle's state up to the configured compression error, across
// workloads x chunk sizes x transfer strategies x codecs.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/workloads.hpp"
#include "common/stats.hpp"
#include "core/memq_engine.hpp"

namespace memq::core {
namespace {

using circuit::Circuit;

EngineConfig tight_config(qubit_t chunk_qubits) {
  EngineConfig cfg;
  cfg.chunk_qubits = chunk_qubits;
  cfg.codec.bound = 1e-8;
  return cfg;
}

double run_and_compare(EngineKind kind, const Circuit& c,
                       const EngineConfig& cfg) {
  auto engine = make_engine(kind, c.n_qubits(), cfg);
  engine->run(c);
  auto dense = make_engine(EngineKind::kDense, c.n_qubits(), cfg);
  dense->run(c);
  const sv::StateVector a = engine->to_dense();
  const sv::StateVector b = dense->to_dense();
  return a.max_abs_diff(b);
}

// ---------------------------------------------------------------------------
// Property sweep
// ---------------------------------------------------------------------------

using Param = std::tuple<EngineKind, std::string, qubit_t>;

class EngineEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(EngineEquivalence, MatchesDenseOracle) {
  const auto& [kind, workload, chunk_qubits] = GetParam();
  const Circuit c = circuit::make_workload(workload, 8, 5);
  EngineConfig cfg = tight_config(chunk_qubits);
  // Non-unitary workloads would need aligned RNG draws; none in this list.
  const double err = run_and_compare(kind, c, cfg);
  // Per-store error <= bound * max|amp| <= 1e-8, accumulated over stages.
  EXPECT_LT(err, 1e-4) << workload << " chunk=" << chunk_qubits;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalence,
    ::testing::Combine(
        ::testing::Values(EngineKind::kMemQSim, EngineKind::kWu),
        ::testing::Values("ghz", "qft", "grover", "bv", "qaoa", "random", "w",
                          "qpe"),
        ::testing::Values(qubit_t{3}, qubit_t{5}, qubit_t{7})),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = std::string(engine_kind_name(std::get<0>(info.param))) +
                         "_" + std::get<1>(info.param) + "_c" +
                         std::to_string(std::get<2>(info.param));
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

class StrategySweep
    : public ::testing::TestWithParam<device::TransferStrategy> {};

TEST_P(StrategySweep, MemQSimCorrectUnderEveryTransferStrategy) {
  EngineConfig cfg = tight_config(4);
  cfg.strategy = GetParam();
  const Circuit c = circuit::make_random_circuit(7, 6, 11);
  EXPECT_LT(run_and_compare(EngineKind::kMemQSim, c, cfg), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(All, StrategySweep,
                         ::testing::Values(
                             device::TransferStrategy::kSync,
                             device::TransferStrategy::kAsyncPerElement,
                             device::TransferStrategy::kStagedBuffer),
                         [](const auto& info) {
                           std::string n = device::strategy_name(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

class CodecSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecSweep, MemQSimCorrectUnderEveryCompressor) {
  EngineConfig cfg = tight_config(4);
  cfg.codec.compressor = GetParam();
  const Circuit c = circuit::make_qft(7);
  EXPECT_LT(run_and_compare(EngineKind::kMemQSim, c, cfg), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(All, CodecSweep,
                         ::testing::Values("szq", "bpc", "gorilla", "null"));

// ---------------------------------------------------------------------------
// Pipeline / offload / config variants
// ---------------------------------------------------------------------------

TEST(MemQSim, UnpipelinedMatchesPipelined) {
  const Circuit c = circuit::make_random_circuit(7, 8, 13);
  EngineConfig on = tight_config(4);
  EngineConfig off = tight_config(4);
  off.pipelined = false;
  auto e1 = make_engine(EngineKind::kMemQSim, 7, on);
  auto e2 = make_engine(EngineKind::kMemQSim, 7, off);
  e1->run(c);
  e2->run(c);
  EXPECT_LT(e1->to_dense().max_abs_diff(e2->to_dense()), 1e-9);
  // Modeled time = real CPU charges (noisy) + host waits on the device
  // (deterministic). Pipelining must not increase the wait component.
  const auto wait_of = [](const Engine& e) {
    return std::max(0.0, e.telemetry().modeled_total_seconds -
                             e.telemetry().cpu_phases.total());
  };
  EXPECT_LE(wait_of(*e1), wait_of(*e2) + 1e-4);
}

TEST(MemQSim, CpuOffloadFractionCorrect) {
  const Circuit c = circuit::make_random_circuit(7, 6, 17);
  for (const double f : {0.25, 0.5, 1.0}) {
    EngineConfig cfg = tight_config(3);
    cfg.cpu_offload_fraction = f;
    EXPECT_LT(run_and_compare(EngineKind::kMemQSim, c, cfg), 1e-4) << f;
  }
}

TEST(MemQSim, SingleSlotStillCorrect) {
  EngineConfig cfg = tight_config(4);
  cfg.device_slots = 1;
  const Circuit c = circuit::make_qft(6);
  EXPECT_LT(run_and_compare(EngineKind::kMemQSim, c, cfg), 1e-4);
}

TEST(MemQSim, LooseBoundDegradesGracefully) {
  const Circuit c = circuit::make_qft(8);
  EngineConfig loose = tight_config(4);
  loose.codec.bound = 1e-3;
  EngineConfig tight = tight_config(4);
  const double err_loose = run_and_compare(EngineKind::kMemQSim, c, loose);
  const double err_tight = run_and_compare(EngineKind::kMemQSim, c, tight);
  EXPECT_LT(err_tight, err_loose + 1e-12);
  EXPECT_LT(err_loose, 0.05);  // still a usable state
}

TEST(MemQSim, DeviceTooSmallThrows) {
  EngineConfig cfg = tight_config(10);
  cfg.device.memory_bytes = 1 << 10;  // 1 KiB device cannot hold a pair
  EXPECT_THROW(make_engine(EngineKind::kMemQSim, 12, cfg), Error);
}

// ---------------------------------------------------------------------------
// Measurement and sampling through the engines
// ---------------------------------------------------------------------------

TEST(Engines, MeasurementCollapsesGhzConsistently) {
  for (const EngineKind kind : {EngineKind::kMemQSim, EngineKind::kWu}) {
    EngineConfig cfg = tight_config(3);
    auto engine = make_engine(kind, 6, cfg);
    Circuit c(6);
    c.append(circuit::make_ghz(6));
    c.measure(0);
    engine->run(c);
    // All qubits must agree post-collapse: amplitudes live in |0..0> or
    // |1..1> only.
    const auto dense = engine->to_dense();
    double p_ends = std::norm(dense.amplitude(0)) +
                    std::norm(dense.amplitude(dim_of(6) - 1));
    EXPECT_NEAR(p_ends, 1.0, 1e-6) << engine_kind_name(kind);
    EXPECT_NEAR(engine->norm(), 1.0, 1e-6);
  }
}

TEST(Engines, ResetGateZeroesQubit) {
  for (const EngineKind kind : {EngineKind::kMemQSim, EngineKind::kWu}) {
    EngineConfig cfg = tight_config(3);
    auto engine = make_engine(kind, 5, cfg);
    Circuit c(5);
    c.h(0).h(4);
    c.append(circuit::Gate::reset(4));  // high qubit reset
    c.append(circuit::Gate::reset(0));  // local qubit reset
    engine->run(c);
    const auto dense = engine->to_dense();
    for (index_t i = 0; i < dim_of(5); ++i) {
      if ((i & 1) || (i >> 4))
        EXPECT_LT(std::abs(dense.amplitude(i)), 1e-6);
    }
  }
}

TEST(Engines, SamplingMatchesDistribution) {
  EngineConfig cfg = tight_config(3);
  auto engine = make_engine(EngineKind::kMemQSim, 3, cfg);
  Circuit c(3);
  c.h(0).h(1).h(2);
  engine->run(c);
  const auto counts = engine->sample_counts(16000);
  std::vector<std::uint64_t> observed(8, 0);
  for (const auto& [k, v] : counts) observed[k] = v;
  const std::vector<double> expected(8, 0.125);
  EXPECT_LT(chi_squared(observed, expected), chi_squared_critical(7, 0.001));
}

TEST(Engines, AmplitudeAndNormQueries) {
  EngineConfig cfg = tight_config(3);
  auto engine = make_engine(EngineKind::kMemQSim, 6, cfg);
  engine->run(circuit::make_ghz(6));
  EXPECT_NEAR(engine->norm(), 1.0, 1e-6);
  EXPECT_NEAR(std::abs(engine->amplitude(0)), 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(std::abs(engine->amplitude(dim_of(6) - 1)), 1.0 / std::sqrt(2.0),
              1e-6);
  EXPECT_LT(std::abs(engine->amplitude(5)), 1e-6);
}

TEST(Engines, ResetRestoresInitialState) {
  EngineConfig cfg = tight_config(3);
  auto engine = make_engine(EngineKind::kMemQSim, 5, cfg);
  engine->run(circuit::make_random_circuit(5, 5, 3));
  engine->reset();
  EXPECT_NEAR(std::abs(engine->amplitude(0)), 1.0, 1e-9);
  EXPECT_NEAR(engine->norm(), 1.0, 1e-9);
  EXPECT_EQ(engine->telemetry().kernel_launches, 0u);
}

// ---------------------------------------------------------------------------
// Telemetry honesty
// ---------------------------------------------------------------------------

TEST(Telemetry, MemQSimReportsDeviceTraffic) {
  EngineConfig cfg = tight_config(4);
  auto engine = make_engine(EngineKind::kMemQSim, 8, cfg);
  engine->run(circuit::make_qft(8));
  const auto& t = engine->telemetry();
  EXPECT_GT(t.h2d_bytes, 0u);
  EXPECT_GT(t.d2h_bytes, 0u);
  EXPECT_GT(t.kernel_launches, 0u);
  EXPECT_GT(t.device_busy_seconds, 0.0);
  EXPECT_GT(t.modeled_total_seconds, 0.0);
  // CPU charges enter the modeled clock scaled by the worker model.
  EXPECT_GE(t.modeled_total_seconds * 8.0 + 1e-9,
            t.cpu_phases.get("decompress"));
  EXPECT_GT(t.stages_local + t.stages_pair + t.stages_permute, 0u);
  EXPECT_GT(t.peak_device_bytes, 0u);
  EXPECT_GT(t.final_compression_ratio, 0.0);
}

TEST(Telemetry, WuUsesNoDevice) {
  EngineConfig cfg = tight_config(4);
  auto engine = make_engine(EngineKind::kWu, 8, cfg);
  engine->run(circuit::make_qft(8));
  const auto& t = engine->telemetry();
  EXPECT_EQ(t.h2d_bytes, 0u);
  EXPECT_EQ(t.kernel_launches, 0u);
  EXPECT_GT(t.cpu_phases.get("decompress"), 0.0);
  EXPECT_GT(t.modeled_total_seconds, 0.0);
}

TEST(Telemetry, RepeatedRunsChargePlanningToModeledClockOnce) {
  // An empty circuit does no device or codec work, so the modeled clock is
  // exactly the planning each run charged. Every run must charge only its
  // own share, not the phase total accumulated over earlier runs.
  EngineConfig cfg;
  cfg.chunk_qubits = 3;
  auto engine = make_engine(EngineKind::kMemQSim, 6, cfg);
  for (int run = 1; run <= 4; ++run) {
    engine->run(circuit::Circuit(6));
    const auto& t = engine->telemetry();
    EXPECT_NEAR(t.modeled_total_seconds, t.cpu_phases.get("offline_partition"),
                1e-12)
        << "after run " << run;
  }
}

TEST(Telemetry, CompressedEnginesUseLessPeakStateMemoryOnSparseStates) {
  // GHZ keeps the state 2-sparse: the compressed store must be far below
  // the dense 2^n x 16 B footprint.
  constexpr qubit_t n = 14;
  EngineConfig cfg = tight_config(8);
  auto memq = make_engine(EngineKind::kMemQSim, n, cfg);
  memq->run(circuit::make_ghz(n));
  auto dense = make_engine(EngineKind::kDense, n, cfg);
  dense->run(circuit::make_ghz(n));
  EXPECT_LT(memq->telemetry().peak_host_state_bytes,
            dense->telemetry().peak_host_state_bytes / 2);
}

TEST(Telemetry, ZeroChunksAreSkipped) {
  EngineConfig cfg = tight_config(4);
  auto engine = make_engine(EngineKind::kMemQSim, 10, cfg);
  engine->run(circuit::make_ghz(10));  // state stays extremely sparse
  EXPECT_GT(engine->telemetry().zero_chunks_skipped, 0u);
}

TEST(Telemetry, WallSecondsPopulated) {
  EngineConfig cfg = tight_config(3);
  for (const EngineKind kind :
       {EngineKind::kDense, EngineKind::kWu, EngineKind::kMemQSim}) {
    auto engine = make_engine(kind, 6, cfg);
    engine->run(circuit::make_qft(6));
    EXPECT_GT(engine->telemetry().wall_seconds, 0.0)
        << engine_kind_name(kind);
  }
}

}  // namespace
}  // namespace memq::core
