// Repository benchmark program (perfbench/README.md explains every metric).
//
// One process runs one named workload through the public engine API as a
// closed loop with one client: repetition after repetition of
//   set-up (parse the generated QASM, build the engine) -> run -> read-only
//   queries -> correctness check against a dense oracle,
// until --seconds have been measured. --trace 0 reports the end-to-end
// metrics with the registry's latency clocks disarmed; --trace 1 alternates
// untraced and traced repetitions and splits the time across the
// repository's layers from outside the program: the benchmark's own clocks
// around public calls, plus the counters and timers the program already
// keeps (EngineTelemetry and the metrics::Registry snapshot).
//
// The last stdout line is one JSON object with exactly the keys correct,
// attempted, failed and metrics. Lines before it start with '#' and carry
// the machine context and the human-readable summary.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "circuit/qasm.hpp"
#include "circuit/workloads.hpp"
#include "common/cpu_features.hpp"
#include "common/metrics.hpp"
#include "common/prng.hpp"
#include "common/trace.hpp"
#include "compress/chunk_codec.hpp"
#include "core/batch_scheduler.hpp"
#include "core/blob_store.hpp"
#include "core/dense_engine.hpp"
#include "core/memq_engine.hpp"

namespace {

using namespace memq;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kSetupShare = 0.05;  ///< extra set-up time per repetition
constexpr int kSetupMinExtra = 3;     ///< extra set-ups per repetition, at least

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own timers around its calls into each layer. Each is
// also a memq::trace scope, so while a capture is on (traced repetitions and
// the layer replays) it lands in the same Chrome trace as the engine's own
// spans, and run.py can check that every span was closed inside its parent.
// ---------------------------------------------------------------------------

/// Scoped span that doubles as the stopwatch for the measurement it names.
class Span {
 public:
  explicit Span(const char* name)
      : scope_("perfbench", name), t0_(Clock::now()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Seconds from construction to the first stop() call.
  double stop() {
    if (!stopped_) {
      seconds_ = seconds_since(t0_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  trace::Scope scope_;
  Clock::time_point t0_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

/// Captures memq::trace events into `path` while alive; no-op for an empty
/// path. Declared before the engines it traces, so their worker pools have
/// joined when it stops.
class Capture {
 public:
  explicit Capture(const std::string& path) : on_(!path.empty()) {
    if (on_) trace::start(path);
  }
  ~Capture() {
    // stop() throws only if the file cannot be written, which start()
    // already probed; run.py reports a missing file.
    try {
      if (on_) trace::stop();
    } catch (const std::exception&) {
    }
  }
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

 private:
  bool on_;
};

int nproc() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// OpenMP team size of the calling thread's next parallel region (the sv
/// kernels run on the coordinator thread).
int omp_team() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// OpenMP team of the engine's sv kernels in measured repetitions. The
/// kernels run on the coordinator thread alone, so a run uses at most
/// 1 + codec_threads threads. A wider team beside the codec pool made run_s
/// follow the host's scheduling: on qft-spill its spread over five seeds
/// was 42% with two kernel threads and 10% with one.
constexpr int kKernelThreads = 1;

void set_omp_team(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  qubit_t qubits = 0;
  std::uint32_t members = 1;  ///< > 1 runs through core::BatchScheduler
  core::EngineConfig cfg;
  bool lossless = false;
  std::string accounting;  ///< how modeled_s charges codec work
};

/// The three benchmark workloads; `small` is the reduced-size self-check.
Workload make_spec(const std::string& name, bool small) {
  Workload w;
  w.name = name;
  core::EngineConfig& c = w.cfg;
  c.codec.compressor = "szq";
  c.codec.mode = compress::ErrorMode::kValueRangeRelative;
  c.codec.bound = 1e-5;
  if (name == "rqc-szq") {
    w.qubits = small ? 12 : 16;
    c.chunk_qubits = small ? 8 : 12;
    c.cache_budget_bytes = 0;
    c.store_backend = core::StoreBackend::kRam;
    c.codec_threads = 1;
  } else if (name == "qft-spill") {
    w.qubits = small ? 14 : 20;
    c.chunk_qubits = small ? 10 : 14;
    c.codec.compressor = "null";
    w.lossless = true;
    const std::uint64_t raw = (std::uint64_t{1} << w.qubits) * sizeof(amp_t);
    c.cache_budget_bytes = raw / 4;
    c.store_backend = core::StoreBackend::kFile;
    c.host_blob_budget_bytes = raw / 4;
    c.codec_threads = 2;
  } else if (name == "qaoa-batch") {
    w.qubits = small ? 12 : 16;
    w.members = small ? 4 : 8;
    c.chunk_qubits = small ? 8 : 12;
    const std::uint64_t raw = (std::uint64_t{1} << w.qubits) * sizeof(amp_t);
    c.cache_budget_bytes = raw * w.members / 4;
    c.store_backend = core::StoreBackend::kRam;
    // The inline codec: szq is most of this run, and with a 2-thread
    // CodecPool run_s followed the load on the host's other cores (spread
    // 17% over five seeds against 6% inline).
    c.codec_threads = 1;
    c.batch_size = w.members;
    c.batch_mode = core::BatchMode::kCircuits;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (rqc-szq, qft-spill, qaoa-batch)");
  }
  std::ostringstream acc;
  if (c.codec_threads == 1)
    acc << "inline codec: measured codec cpu seconds / cpu_codec_workers ("
        << c.cpu_codec_workers << ") charged per chunk";
  else
    acc << "CodecPool (" << c.codec_threads
        << " threads): coordinator's measured wait charged as wall time";
  w.accounting = acc.str();
  return w;
}

/// The registry `random` circuit draws its entangling matching from the
/// seed, so its stage plan (and the work) varies by about +-20% between
/// seeds. rqc-szq therefore keeps one gate structure and draws every angle
/// from the workload seed instead: each 1-qubit gate becomes a rotation with
/// the same commutation role (sx -> rx, ry -> ry, t -> phase, h -> u3), with
/// angles kept away from values that would change that role. The plan is the
/// same for every seed; the state is as high-entropy as before.
circuit::Circuit seeded_angles(const circuit::Circuit& structure,
                               std::uint64_t seed) {
  Prng rng(seed);
  const auto angle = [&] { return rng.uniform(0.1 * kPi, 0.9 * kPi); };
  circuit::Circuit c(structure.n_qubits());
  for (const circuit::Gate& g : structure.gates()) {
    if (!g.controls.empty() || g.targets.size() != 1) {
      c.append(g);
      continue;
    }
    const qubit_t q = g.targets[0];
    switch (g.kind) {
      case circuit::GateKind::kSX: c.rx(q, angle()); break;
      case circuit::GateKind::kRY: c.ry(q, angle()); break;
      case circuit::GateKind::kT: c.p(q, 2.0 * angle()); break;
      case circuit::GateKind::kH: {
        // Drawn in a fixed order (the order GCC evaluates the call's
        // arguments in, so inputs match earlier measurements).
        const double lambda = angle();
        const double phi = angle();
        const double theta = angle();
        c.u3(q, theta, phi, lambda);
        break;
      }
      default:
        throw std::logic_error("unexpected gate " + g.to_string());
    }
  }
  return c;
}

/// Noise trajectories for a batch, one seeded Pauli fault per member, at
/// stratified locations: member m's fault follows a 1-qubit gate drawn from
/// the m-th of K equal slices of the circuit's 1-qubit gates, with a random
/// X, Y or Z on that gate's target. Independent per-gate noise (p = 0.01)
/// would let the fork tree's executed stages range from 45 to 202 between
/// seeds (run time CV 35%); stratified faults keep every member diverging
/// and the tree's size steady (CV 6%).
std::vector<circuit::Circuit> stratified_faults(const circuit::Circuit& base,
                                                std::uint32_t members,
                                                std::uint64_t seed) {
  std::vector<std::size_t> one_qubit;
  for (std::size_t i = 0; i < base.size(); ++i)
    if (base[i].controls.empty() && base[i].targets.size() == 1)
      one_qubit.push_back(i);
  Prng rng(seed);
  std::vector<circuit::Circuit> out;
  for (std::uint32_t m = 0; m < members; ++m) {
    const std::size_t lo = one_qubit.size() * m / members;
    const std::size_t hi = one_qubit.size() * (m + 1) / members;
    const std::size_t at = one_qubit[lo + rng.uniform_index(hi - lo)];
    const qubit_t q = base[at].targets[0];
    const std::uint64_t pauli = rng.uniform_index(3);
    circuit::Circuit c(base.n_qubits());
    for (std::size_t i = 0; i < base.size(); ++i) {
      c.append(base[i]);
      if (i != at) continue;
      if (pauli == 0) c.x(q);
      else if (pauli == 1) c.y(q);
      else c.z(q);
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// The workload's inputs, generated from the seed alone: one QASM program,
/// or one per batch member. The program sees only this text.
std::vector<std::string> generate_inputs(const Workload& w,
                                         std::uint64_t seed) {
  std::vector<circuit::Circuit> circuits;
  if (w.name == "rqc-szq") {
    circuits.push_back(
        seeded_angles(circuit::make_workload("random", w.qubits, 1), seed));
  } else if (w.name == "qft-spill") {
    // A seeded basis state first: an odd basis index makes every chunk of
    // the QFT output a phase ramp, never a constant fill.
    Prng rng(seed);
    const index_t basis = rng.uniform_index(index_t{1} << w.qubits) | 1;
    circuit::Circuit c(w.qubits);
    for (qubit_t q = 0; q < w.qubits; ++q)
      if ((basis >> q) & 1) c.x(q);
    c.append(circuit::make_qft(w.qubits));
    circuits.push_back(std::move(c));
  } else {
    // The registry graph drawn for seed 1, so the gate count is the same
    // for every seed; the faults carry the seed.
    circuits = stratified_faults(circuit::make_workload("qaoa", w.qubits, 1),
                                 w.members, seed);
  }
  std::vector<std::string> out;
  for (const circuit::Circuit& c : circuits) out.push_back(circuit::to_qasm(c));
  return out;
}

std::string pauli(qubit_t n, std::initializer_list<std::pair<qubit_t, char>> ops) {
  std::string s(n, 'I');
  for (const auto& [q, op] : ops) s[q] = op;
  return s;
}

/// Read-only queries of each workload (the read path after the run).
struct Queries {
  std::vector<std::string> paulis;   ///< expectation strings
  std::vector<qubit_t> marginal;     ///< marginal qubits (may be empty)
  std::size_t shots = 0;             ///< sample_counts / member_counts
};

Queries make_queries(const Workload& w) {
  const qubit_t n = w.qubits;
  Queries q;
  if (w.name == "rqc-szq") {
    q.paulis = {pauli(n, {{0, 'Z'}}), pauli(n, {{0, 'Z'}, {1, 'Z'}}),
                pauli(n, {{n / 2, 'Z'}}), pauli(n, {{n / 2, 'Z'}, {n - 1, 'Z'}})};
    q.shots = 4096;
  } else if (w.name == "qft-spill") {
    for (qubit_t k = n - 8; k < n; ++k) q.marginal.push_back(k);
    q.paulis = {pauli(n, {{0, 'X'}})};
  } else {
    q.paulis = {pauli(n, {{0, 'Z'}, {1, 'Z'}})};
    q.shots = 1024;
  }
  return q;
}

struct QueryOut {
  std::vector<double> expectations;  ///< per member, per Pauli string
  std::vector<std::vector<double>> marginals;
  bool counts_ok = true;
};

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

/// Set-up product: the parsed circuit(s) and an engine at |0..0>, ready for
/// the first gate.
struct Prepared {
  std::vector<circuit::Circuit> circuits;  ///< 1, or the K batch members
  std::unique_ptr<core::MemQSimEngine> engine;
  std::unique_ptr<core::BatchScheduler> sched;
  double circuit_s = 0.0;
  double total_s = 0.0;

  core::MemQSimEngine& memq() { return engine ? *engine : sched->engine(); }
};

Prepared set_up(const Workload& w, const std::vector<std::string>& inputs) {
  Prepared p;
  Span total("setup");
  {
    Span s("setup/circuit.parse");
    for (const std::string& qasm : inputs)
      p.circuits.push_back(circuit::parse_qasm(qasm).circuit);
    p.circuit_s = s.stop();
  }
  {
    Span s("setup/engine");
    if (w.members > 1)
      p.sched = std::make_unique<core::BatchScheduler>(w.qubits, w.cfg);
    else
      p.engine = std::make_unique<core::MemQSimEngine>(w.qubits, w.cfg);
  }
  p.total_s = total.stop();
  return p;
}

QueryOut run_queries(const Workload& w, const Queries& q, Prepared& p) {
  QueryOut out;
  const index_t dim = index_t{1} << w.qubits;
  const auto check_counts = [&](const std::map<index_t, std::uint64_t>& c) {
    std::uint64_t total = 0;
    for (const auto& [idx, k] : c) {
      total += k;
      if (idx >= dim) out.counts_ok = false;
    }
    if (total != q.shots) out.counts_ok = false;
  };
  if (p.sched) {
    for (std::uint32_t m = 0; m < w.members; ++m) {
      for (const std::string& s : q.paulis)
        out.expectations.push_back(p.sched->member_expectation(m, {s}));
      if (q.shots > 0) check_counts(p.sched->member_counts(m, q.shots));
    }
  } else {
    core::MemQSimEngine& e = *p.engine;
    for (const std::string& s : q.paulis)
      out.expectations.push_back(e.expectation({s}));
    if (!q.marginal.empty())
      out.marginals.push_back(e.marginal_probabilities(q.marginal));
    if (q.shots > 0) check_counts(e.sample_counts(q.shots));
  }
  return out;
}

/// Dense-engine answers for one instance, computed once and outside every
/// timed region. Member m of a batch is compared with the dense run of its own
/// member circuit.
struct Oracle {
  std::vector<std::vector<amp_t>> states;
  QueryOut answers;
  std::vector<std::size_t> member_stages;  ///< plan length per member
};

Oracle build_oracle(const Workload& w, const Queries& q,
                    const std::vector<circuit::Circuit>& circuits) {
  Span span("oracle");
  Oracle o;
  // Nothing else runs while the oracle is built, so it uses every core.
  set_omp_team(nproc());
  core::EngineConfig serial = w.cfg;
  serial.batch_size = 1;
  core::MemQSimEngine planner(w.qubits, serial);
  for (const circuit::Circuit& c : circuits) {
    core::DenseEngine dense(w.qubits, serial);
    dense.run(c);
    const sv::StateVector sv = dense.to_dense();
    o.states.emplace_back(sv.amplitudes().begin(), sv.amplitudes().end());
    for (const std::string& s : q.paulis)
      o.answers.expectations.push_back(dense.expectation({s}));
    if (!q.marginal.empty())
      o.answers.marginals.push_back(dense.marginal_probabilities(q.marginal));
    o.member_stages.push_back(planner.plan_for(c).stages.size());
  }
  set_omp_team(kKernelThreads);
  return o;
}

/// Allowed ||psi - psi_dense||_2 for member m. Lossless: 1e-10. szq: each
/// stage encodes a chunk at most once, with per-value error at most
/// bound * max|value of that chunk| <= bound * ||chunk||_2; errors of
/// different chunks are orthogonal and unitary stages preserve norms, so a
/// stage adds at most sqrt(2 * chunk_amps) * bound. One more pass covers the
/// final cache flush and one the initial state; 1% covers norm drift.
double l2_tolerance(const Workload& w, std::size_t stages) {
  if (w.lossless) return 1e-10;
  const double chunk_amps = std::ldexp(1.0, w.cfg.chunk_qubits);
  return 1.01 * static_cast<double>(stages + 2) * std::sqrt(2.0 * chunk_amps) *
         w.cfg.codec.bound;
}

struct Check {
  bool ok = true;
  double l2 = 0.0;  ///< max over members
  std::string why;
};

Check check_repetition(const Workload& w, const Oracle& o, const QueryOut& got,
                       Prepared& p,
                       std::vector<std::vector<amp_t>>* states_out) {
  Span span("check");
  Check ck;
  double tol_max = 0.0;
  for (std::size_t m = 0; m < o.states.size(); ++m) {
    const sv::StateVector sv =
        p.sched ? p.sched->member_dense(static_cast<std::uint32_t>(m))
                : p.engine->to_dense();
    const std::span<const amp_t> a = sv.amplitudes();
    const std::vector<amp_t>& b = o.states[m];
    if (states_out != nullptr) {
      if (m == 0) states_out->clear();
      states_out->emplace_back(a.begin(), a.end());
    }
    double err2 = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) err2 += std::norm(a[i] - b[i]);
    const double l2 = std::sqrt(err2);
    const double tol = l2_tolerance(w, o.member_stages[m]);
    tol_max = std::max(tol_max, tol);
    ck.l2 = std::max(ck.l2, l2);
    if (!(l2 <= tol)) {
      ck.ok = false;
      ck.why = "member " + std::to_string(m) + " l2 " + std::to_string(l2) +
               " > " + std::to_string(tol);
    }
  }
  // |<a|P|a> - <b|P|b>| and the L1 distance of two outcome distributions
  // are both at most ||a - b|| (||a|| + ||b||).
  const double qtol = 2.02 * tol_max + 1e-9;
  if (got.expectations.size() != o.answers.expectations.size()) {
    ck.ok = false;
    ck.why = "expectation count mismatch";
  } else {
    for (std::size_t i = 0; i < got.expectations.size(); ++i)
      if (!(std::abs(got.expectations[i] - o.answers.expectations[i]) <= qtol)) {
        ck.ok = false;
        ck.why = "expectation " + std::to_string(i) + " off";
      }
  }
  if (got.marginals.size() != o.answers.marginals.size()) {
    ck.ok = false;
    ck.why = "marginal count mismatch";
  } else {
    for (std::size_t i = 0; i < got.marginals.size(); ++i) {
      double l1 = 0.0;
      for (std::size_t k = 0; k < got.marginals[i].size(); ++k)
        l1 += std::abs(got.marginals[i][k] - o.answers.marginals[i][k]);
      if (!(l1 <= qtol)) {
        ck.ok = false;
        ck.why = "marginal off by " + std::to_string(l1);
      }
    }
  }
  if (!got.counts_ok) {
    ck.ok = false;
    ck.why = "sample counts malformed";
  }
  return ck;
}

/// Registry view of one run window (counters and histogram deltas).
struct RunWindow {
  metrics::Snapshot before, after;
  std::uint64_t counter(const char* name) const {
    return after.counter_delta(before, name);
  }
  metrics::HistogramSnapshot hist(const char* name) const {
    const auto a = after.histograms.find(name);
    if (a == after.histograms.end()) return {};
    const auto b = before.histograms.find(name);
    return b == before.histograms.end() ? a->second : a->second.minus(b->second);
  }
};

using Values = std::map<std::string, double>;

struct Repetition {
  double setup_s = 0.0, run_s = 0.0, query_s = 0.0;
  Values e2e;     ///< end-to-end timings of this repetition
  Values sizes;   ///< end-to-end sizes, fixed by the repetition's input
  Values layers;  ///< per-layer values (traced repetitions only)
  std::string trace_file;  ///< Chrome trace of a traced repetition
};

/// Computed, not measured: each unitary gate reads and writes every
/// amplitude of its control subspace, 2^(n - controls).
double amp_updates(const std::vector<circuit::Circuit>& circuits) {
  double total = 0.0;
  for (const circuit::Circuit& c : circuits)
    for (const circuit::Gate& g : c.gates())
      if (!g.is_barrier() && !g.is_nonunitary())
        total += std::ldexp(1.0, static_cast<int>(c.n_qubits()) -
                                     static_cast<int>(g.controls.size()));
  return total;
}

void layer_values(Prepared& p, const RunWindow& win,
                  const core::EngineTelemetry& t, double run_s, Values& v) {
  const auto h_s = [&](const char* name) {
    return static_cast<double>(win.hist(name).sum) * 1e-9;
  };
  const auto c = [&](const char* name) {
    return static_cast<double>(win.counter(name));
  };
  std::size_t gates = 0;
  for (const circuit::Circuit& ci : p.circuits) gates += ci.size();
  v["circuit.gates"] = static_cast<double>(gates);

  const double loads = static_cast<double>(t.chunk_loads);
  const double stores = static_cast<double>(t.chunk_stores);
  v["plan.codec_passes"] = loads + stores;

  const auto dec = win.hist("codec.decode_ns");
  const auto enc = win.hist("codec.encode_ns");
  v["codec.decodes"] = static_cast<double>(dec.count);
  v["codec.encodes"] = static_cast<double>(enc.count);
  v["codec.decode_s"] = static_cast<double>(dec.sum) * 1e-9;
  v["codec.encode_s"] = static_cast<double>(enc.sum) * 1e-9;
  v["codec.memo_hits"] = c("store.codec_memo_hits");
  v["codec.constant_chunks"] = c("store.constant_chunks_stored") +
                               c("store.constant_chunks_materialized");

  v["store.spill_read_mib"] = c("blob.spill_bytes_read") / kMiB;
  v["store.spill_write_mib"] = c("blob.spill_bytes_written") / kMiB;
  v["store.spill_s"] = h_s("spill.read_ns") + h_s("spill.write_ns");
  v["store.dedup_hits"] = c("blob.dedup_hits");
  v["store.cow_breaks"] = c("blob.cow_breaks");
  v["store.peak_resident_blob_mib"] =
      static_cast<double>(t.peak_resident_blob_bytes) / kMiB;

  const double hits = c("cache.hits"), misses = c("cache.misses");
  v["cache.hits"] = hits;
  v["cache.misses"] = misses;
  v["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  v["cache.evictions"] = c("cache.evictions");
  v["cache.writebacks"] = c("cache.writebacks");
  v["cache.alias_hits"] = c("cache.alias_hits");
  v["cache.peak_resident_mib"] =
      static_cast<double>(t.peak_cache_resident_bytes) / kMiB;

  v["pager.lease_wait_s"] = h_s("pager.lease_wait_ns");
  v["pager.stall_s"] = t.pipeline_stall_seconds;
  v["pager.peak_inflight_mib"] = static_cast<double>(t.peak_inflight_bytes) / kMiB;

  v["kernel.launches"] = static_cast<double>(t.kernel_launches);
  const double updates = amp_updates(p.circuits);
  v["kernel.amp_updates"] = updates;
  v["kernel.computed_gib"] =
      updates * 2.0 * sizeof(amp_t) / (1024.0 * 1024.0 * 1024.0);

  v["device.h2d_mib"] = static_cast<double>(t.h2d_bytes) / kMiB;
  v["device.d2h_mib"] = static_cast<double>(t.d2h_bytes) / kMiB;
  v["device.h2d_calls"] = static_cast<double>(t.h2d_calls);
  v["device.busy_s"] = t.device_busy_seconds;
  const core::StageReport* rep = p.memq().stage_report();
  v["device.idle_s"] = rep != nullptr ? rep->total.device_idle_seconds : 0.0;

  if (p.sched) {
    const core::BatchStats& bs = p.sched->stats();
    v["batch.executed_stages"] = static_cast<double>(bs.executed_stages);
    v["batch.shared_stages"] = static_cast<double>(bs.shared_stages);
    v["batch.share_ratio"] =
        bs.executed_stages > 0 ? static_cast<double>(bs.shared_stages) /
                                     static_cast<double>(bs.executed_stages)
                               : 0.0;
    v["batch.clone_chunks"] = static_cast<double>(bs.clone_chunks);
  } else {
    v["batch.executed_stages"] = 0.0;
    v["batch.shared_stages"] = 0.0;
    v["batch.share_ratio"] = 0.0;
    v["batch.clone_chunks"] = 0.0;
  }

  // Residual, first part: run_s minus planning, which runs inside run()
  // without a span of its own. For a plain run that is the engine's
  // offline_partition phase; the batch scheduler plans its members through
  // plan_for, timed by the benchmark as plan.build_s and subtracted by the
  // caller. The coordinator's codec, store and pager time is subtracted
  // once the repetition's trace is written (coordinator_layer_seconds).
  v["engine.unattributed_s"] = run_s - t.cpu_phases.get("offline_partition");
}

/// Seconds the coordinator spent inside the layers' timers during run(),
/// read back from a traced repetition's Chrome trace: the union, on the
/// thread that called run(), of its lease waits, stalls, codec and spill
/// spans, so time that two timers share counts once. Lease waits and
/// evictions nest encodes and spill I/O inside them, which is why a sum of
/// the layers' seconds would overstate the layer time. The trace writer
/// puts one event per line, with its fields in a fixed order.
double coordinator_layer_seconds(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read the trace " + path);
  const auto text = [](const std::string& line, const char* key) {
    const std::string k = std::string("\"") + key + "\":\"";
    const std::size_t at = line.find(k);
    if (at == std::string::npos) return std::string{};
    const std::size_t from = at + k.size();
    return line.substr(from, line.find('"', from) - from);
  };
  const auto number = [](const std::string& line, const char* key) {
    const std::string k = std::string("\"") + key + "\":";
    const std::size_t at = line.find(k);
    if (at == std::string::npos)
      throw std::runtime_error(std::string("trace event without ") + key);
    return std::stod(line.substr(at + k.size()));
  };
  const auto is_layer = [](const std::string& cat, const std::string& name) {
    if (cat == "codec" || cat == "spill" || cat == "stall") return true;
    return cat == "pager" &&
           (name == "acquire_read" || name == "acquire_write" ||
            name == "stage_next" || name == "read_next");
  };
  struct Open {
    std::string cat, name;
    double ts;
  };
  std::map<long, std::vector<Open>> open;  // per wall-clock thread
  std::vector<std::pair<long, std::pair<double, double>>> layer;
  long run_tid = -1;
  double run_b = 0.0, run_e = 0.0;
  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = text(line, "ph");
    if ((ph != "B" && ph != "E") || number(line, "pid") != 0) continue;
    const long tid = static_cast<long>(number(line, "tid"));
    const double ts = number(line, "ts");
    std::vector<Open>& stack = open[tid];
    if (ph == "B") {
      stack.push_back({text(line, "cat"), text(line, "name"), ts});
      continue;
    }
    if (stack.empty()) throw std::runtime_error("unbalanced trace " + path);
    const Open b = stack.back();
    stack.pop_back();
    if (b.cat == "perfbench" && b.name == "run") {
      run_tid = tid;
      run_b = b.ts;
      run_e = ts;
    } else if (is_layer(b.cat, b.name)) {
      layer.push_back({tid, {b.ts, ts}});
    }
  }
  if (run_tid < 0) throw std::runtime_error("no run span in " + path);
  std::vector<std::pair<double, double>> spans;  // clipped to the run
  for (const auto& [tid, span] : layer) {
    const double b = std::max(span.first, run_b);
    const double e = std::min(span.second, run_e);
    if (tid == run_tid && b < e) spans.emplace_back(b, e);
  }
  std::sort(spans.begin(), spans.end());
  double covered_us = 0.0, reach = run_b;
  for (const auto& [b, e] : spans) {
    if (e > reach) covered_us += e - std::max(b, reach);
    reach = std::max(reach, e);
  }
  return covered_us * 1e-6;
}

/// Set-up, run and queries of one repetition; the engine is kept for the
/// correctness check, which runs after the oracle exists.
struct Executed {
  Repetition r;
  Prepared p;
  QueryOut answers;
};

Executed execute_repetition(const Workload& w,
                            const std::vector<std::string>& inputs,
                            const Queries& q, bool traced) {
  Executed x;
  Repetition& r = x.r;
  Span span(traced ? "repetition.traced" : "repetition");
  x.p = set_up(w, inputs);
  Prepared& p = x.p;
  r.setup_s = p.total_s;

  RunWindow win;
  if (traced) win.before = metrics::Registry::global().snapshot();
  {
    Span s("run");
    if (p.sched)
      p.sched->run(p.circuits);
    else
      p.engine->run(p.circuits.front());
    r.run_s = s.stop();
  }
  if (traced) win.after = metrics::Registry::global().snapshot();
  if (p.sched) {
    // BatchScheduler::run drains the devices but does not fold their
    // counters into the engine telemetry; an empty run() on the widened
    // engine does, and touches no amplitude. Outside the timed region.
    p.sched->engine().run(circuit::Circuit(p.sched->engine().n_qubits()));
  }
  // Telemetry of the run alone: the queries below add loads of their own.
  const core::EngineTelemetry t = p.memq().telemetry();
  {
    Span s("query");
    x.answers = run_queries(w, q, p);
    r.query_s = s.stop();
  }

  r.e2e["run_s"] = r.run_s;
  r.e2e["query_s"] = r.query_s;
  r.e2e["circuits_per_s"] = static_cast<double>(w.members) / r.run_s;
  r.e2e["modeled_s"] = t.modeled_total_seconds;
  r.sizes["peak_state_mib"] =
      static_cast<double>(t.peak_host_state_bytes) / kMiB;
  r.sizes["compression_ratio"] = t.final_compression_ratio;
  if (traced) {
    r.layers["circuit.build_s"] = p.circuit_s;
    layer_values(p, win, t, r.run_s, r.layers);
  }
  return x;
}

// ---------------------------------------------------------------------------
// Layer replays (traced run only)
// ---------------------------------------------------------------------------

/// Re-encodes the workload's own final-state chunks through ChunkCodec at
/// the workload's chunk size and bound, then replays the blobs through the
/// configured blob backend.
void replay_codec_and_store(const Workload& w,
                            const std::vector<std::vector<amp_t>>& states,
                            Values& v) {
  const std::size_t chunk = std::size_t{1} << w.cfg.chunk_qubits;
  std::vector<std::span<const amp_t>> chunks;
  for (const auto& s : states)
    for (std::size_t off = 0; off + chunk <= s.size(); off += chunk)
      chunks.emplace_back(s.data() + off, chunk);
  const double raw_bytes =
      static_cast<double>(chunks.size() * chunk * sizeof(amp_t));

  compress::ChunkCodec codec(w.cfg.codec);
  std::vector<compress::ByteBuffer> blobs(chunks.size());
  std::vector<amp_t> scratch(chunk);
  double enc_s = 0.0, dec_s = 0.0;
  std::size_t passes = 0;
  {
    Span span("replay/codec");
    const auto t0 = Clock::now();
    do {
      {
        Span s("replay/codec.encode");
        for (std::size_t i = 0; i < chunks.size(); ++i)
          codec.encode(chunks[i], blobs[i]);
        enc_s += s.stop();
      }
      {
        Span s("replay/codec.decode");
        for (std::size_t i = 0; i < chunks.size(); ++i)
          codec.decode(blobs[i], scratch);
        dec_s += s.stop();
      }
      ++passes;
    } while (seconds_since(t0) < 0.5 && passes < 50);
  }
  double compressed = 0.0;
  for (const auto& b : blobs) compressed += static_cast<double>(b.size());
  const double n_ops = static_cast<double>(chunks.size() * passes);
  v["codec.encode_us_per_chunk"] = enc_s / n_ops * 1e6;
  v["codec.decode_us_per_chunk"] = dec_s / n_ops * 1e6;
  v["codec.encode_mbps"] = raw_bytes * static_cast<double>(passes) / enc_s / 1e6;
  v["codec.decode_mbps"] = raw_bytes * static_cast<double>(passes) / dec_s / 1e6;
  v["codec.ratio"] = raw_bytes / compressed;

  // The same backend stack the engine builds for this configuration.
  std::unique_ptr<core::BlobStore> store;
  if (w.cfg.store_backend == core::StoreBackend::kFile)
    store = std::make_unique<core::FileBlobStore>(w.cfg.host_blob_budget_bytes);
  else
    store = std::make_unique<core::RamBlobStore>();
  if (w.cfg.dedup)
    store = std::make_unique<core::DedupBlobStore>(std::move(store));
  store->resize(static_cast<index_t>(blobs.size()));
  double write_s = 0.0, read_s = 0.0;
  std::size_t store_passes = 0;
  std::uint64_t sink = 0;
  {
    Span span("replay/store");
    const auto t0 = Clock::now();
    do {
      std::vector<compress::ByteBuffer> copies = blobs;
      {
        Span s("replay/store.write");
        for (std::size_t i = 0; i < copies.size(); ++i)
          store->write(static_cast<index_t>(i), std::move(copies[i]));
        write_s += s.stop();
      }
      {
        Span s("replay/store.read");
        compress::ByteBuffer buf;
        for (std::size_t i = 0; i < blobs.size(); ++i)
          sink += store->read(static_cast<index_t>(i), buf).size();
        read_s += s.stop();
      }
      ++store_passes;
    } while (seconds_since(t0) < 0.3 && store_passes < 50);
  }
  if (sink == 0) throw std::runtime_error("store replay read nothing");
  const double n_blob_ops = static_cast<double>(blobs.size() * store_passes);
  v["store.blob_write_us"] = write_s / n_blob_ops * 1e6;
  v["store.blob_read_us"] = read_s / n_blob_ops * 1e6;
}

/// memcpy bandwidth on arrays of 4x the last-level cache (bytes copied per
/// second, median of three copies).
double copy_gbps(std::size_t& array_bytes, std::size_t& llc_bytes) {
  Span span("machine.copy");
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  llc_bytes = static_cast<std::size_t>(llc);
  array_bytes = 4 * llc_bytes;
  std::unique_ptr<char[]> src(new char[array_bytes]);
  std::unique_ptr<char[]> dst(new char[array_bytes]);
  std::memset(src.get(), 1, array_bytes);
  std::memset(dst.get(), 0, array_bytes);
  std::vector<double> rates;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    std::memcpy(dst.get(), src.get(), array_bytes);
    rates.push_back(static_cast<double>(array_bytes) / seconds_since(t0) / 1e9);
  }
  if (dst[array_bytes - 1] != 1) throw std::runtime_error("memcpy check");
  return median(rates);
}

// ---------------------------------------------------------------------------
// Metric tables (BENCHMARK.json lists the same names and units)
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"run_s", "s"},          {"query_s", "s"},        {"setup_s", "s"},
    {"circuits_per_s", "1/s"}, {"modeled_s", "s"},    {"peak_state_mib", "MiB"},
    {"peak_rss_mib", "MiB"}, {"compression_ratio", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"circuit.build_s", "s"},
    {"circuit.gates", "count"},
    {"plan.build_s", "s"},
    {"plan.stages", "count"},
    {"plan.pair_stages", "count"},
    {"plan.predicted_codec_passes", "count"},
    {"plan.codec_passes", "count"},
    {"plan.forecast_ratio", "ratio"},
    {"codec.encode_us_per_chunk", "us"},
    {"codec.decode_us_per_chunk", "us"},
    {"codec.encode_mbps", "MB/s"},
    {"codec.decode_mbps", "MB/s"},
    {"codec.ratio", "ratio"},
    {"codec.encodes", "count"},
    {"codec.decodes", "count"},
    {"codec.encode_s", "s"},
    {"codec.decode_s", "s"},
    {"codec.memo_hits", "count"},
    {"codec.constant_chunks", "count"},
    {"store.blob_write_us", "us"},
    {"store.blob_read_us", "us"},
    {"store.spill_read_mib", "MiB"},
    {"store.spill_write_mib", "MiB"},
    {"store.spill_s", "s"},
    {"store.dedup_hits", "count"},
    {"store.cow_breaks", "count"},
    {"store.peak_resident_blob_mib", "MiB"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"cache.writebacks", "count"},
    {"cache.alias_hits", "count"},
    {"cache.peak_resident_mib", "MiB"},
    {"pager.lease_wait_s", "s"},
    {"pager.stall_s", "s"},
    {"pager.peak_inflight_mib", "MiB"},
    {"kernel.dense_run_s", "s"},
    {"kernel.launches", "count"},
    {"kernel.amp_updates", "count"},
    {"kernel.computed_gib", "GiB"},
    {"device.h2d_mib", "MiB"},
    {"device.d2h_mib", "MiB"},
    {"device.h2d_calls", "count"},
    {"device.busy_s", "s"},
    {"device.idle_s", "s"},
    {"batch.executed_stages", "count"},
    {"batch.shared_stages", "count"},
    {"batch.share_ratio", "ratio"},
    {"batch.clone_chunks", "count"},
    {"engine.unattributed_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"machine.copy_gbps", "GB/s"},
    {"machine.nproc", "count"},
    {"machine.simd_level", "level"},
    {"check.l2_error", "l2"},
    {"check.error_rate", "ratio"},
};

std::string json_number(double x) {
  if (!std::isfinite(x)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

template <std::size_t N>
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const MetricDef (&defs)[N], const Values& v) {
  for (const MetricDef& d : defs)
    std::cout << "# " << d.name << " = " << json_number(v.at(d.name)) << " "
              << d.unit << "\n";
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i)
    js << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": "
       << json_number(v.at(defs[i].name)) << ", \"unit\": \"" << defs[i].unit
       << "\"}";
  js << "}}";
  std::cout << js.str() << std::endl;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  bool small = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val()) != 0;
    else if (k == "--scale") a.small = val() == "small";
    else if (k == "--spans") a.spans = val();
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0))
    throw std::invalid_argument("--seconds is required and must be > 0");
  if (a.trace && a.spans.empty())
    throw std::invalid_argument(
        "--trace 1 needs --spans DIR: engine.unattributed_s is read from the "
        "traced repetitions' spans");
  return a;
}

/// Highest percentile with at least ten samples above it, or -1 when fewer
/// than twenty samples make that percentile fall below the median.
double tail_percentile(std::vector<double> v, double& pct) {
  if (v.size() < 20) return -1.0;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() - 11;
  pct = 100.0 * static_cast<double>(k + 1) / static_cast<double>(v.size());
  return v[k];
}

/// Per-key median (or mean) of one field over repetitions.
Values aggregate(const std::vector<Repetition>& reps, Values Repetition::*field,
                 bool use_mean = false) {
  std::map<std::string, std::vector<double>> all;
  for (const Repetition& r : reps)
    for (const auto& [k, x] : r.*field) all[k].push_back(x);
  Values out;
  for (const auto& [k, xs] : all)
    out[k] = use_mean ? std::accumulate(xs.begin(), xs.end(), 0.0) /
                            static_cast<double>(xs.size())
                      : median(xs);
  return out;
}

int run(const Args& a) {
  const Workload w = make_spec(a.workload, a.small);
  const Queries q = make_queries(w);
  set_omp_team(kKernelThreads);
  std::cout << "# context {\"workload\": \"" << w.name
            << "\", \"seed\": " << a.seed << ", \"qubits\": " << w.qubits
            << ", \"members\": " << w.members << ", \"chunk_qubits\": "
            << static_cast<unsigned>(w.cfg.chunk_qubits) << ", \"codec\": \""
            << w.cfg.codec.compressor << "\", \"nproc\": " << nproc()
            << ", \"omp_threads\": " << omp_team()
            << ", \"codec_threads\": " << w.cfg.codec_threads
            << ", \"dense_baseline_threads\": 1"
            << ", \"simd\": \"" << simd::name(simd::active())
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"modeled_accounting\": \"" << w.accounting
            << "\", \"loop\": \"closed, 1 client\"}\n";

  // Instance k is the workload with its own input, drawn from (seed, k).
  // Repetition i runs instance i (i / 2 in a traced run, so each instance
  // runs once untraced and once traced): an input's cost varies with its
  // seed (the faults' positions, the state's compressibility), and a run's
  // medians then cover several inputs instead of one. The instance seeds
  // are independent draws: member m samples with seed + m, so consecutive
  // seeds would share sampling streams.
  const auto instance = [&](std::size_t k) {
    Workload wk = w;
    wk.cfg.seed = Prng(a.seed + 0x9E3779B97F4A7C15ull * k).next_u64();
    return std::make_pair(wk, generate_inputs(wk, wk.cfg.seed));
  };
  const auto [w0, inputs0] = instance(0);

  // Warm-up, not measured: one repetition of instance 0 and its oracle.
  // glibc raises its mmap and trim thresholds once large blocks are freed;
  // before that, every large buffer is mmap'd and trimmed afresh and a run
  // pays up to 50% more in page faults. The warm-up frees the largest
  // blocks a repetition and an oracle allocate, so every measured
  // repetition sees the same settled allocator.
  std::unique_ptr<Oracle> oracle;  // of instance oracle_instance
  std::size_t oracle_instance = 0;
  double rss_mib = 0.0;
  {
    Executed x = execute_repetition(w0, inputs0, q, false);
    rss_mib = peak_rss_mib();  // one repetition, before any dense state
    oracle = std::make_unique<Oracle>(build_oracle(w0, q, x.p.circuits));
  }

  std::vector<double> setup_samples;
  std::vector<Repetition> plain, traced;
  std::size_t attempted = 0, failed = 0, checked = 0;
  double l2_max = 0.0;
  std::vector<std::vector<amp_t>> final_states;  // last traced repetition
  const auto loop_start = Clock::now();
  double outside = 0.0;  // oracles and extra set-ups, not measured time
  const std::size_t min_reps = a.trace ? 4 : 3;
  double longest = 0.0;  // longest measured repetition so far
  for (std::size_t i = 0;; ++i) {
    // Stop before a repetition that would end past the measured window.
    const double measured = seconds_since(loop_start) - outside;
    if (i >= min_reps && measured + longest > a.seconds) break;
    const auto rep_start = Clock::now();
    const double outside_before = outside;
    const bool is_traced = a.trace && i % 2 == 1;
    const std::size_t k = a.trace ? i / 2 : i;
    ++attempted;
    try {
      const auto [wk, inputs] = instance(k);
      const std::string trace_file =
          is_traced ? a.spans + "/rep-" + std::to_string(i) + ".json"
                    : std::string{};
      const Capture capture(trace_file);
      if (is_traced) metrics::arm_timing();
      Executed x = execute_repetition(wk, inputs, q, is_traced);
      metrics::disarm_timing();
      if (oracle_instance != k) {
        const auto t0 = Clock::now();
        oracle = std::make_unique<Oracle>(build_oracle(wk, q, x.p.circuits));
        oracle_instance = k;
        outside += seconds_since(t0);
      }
      const Check ck = check_repetition(wk, *oracle, x.answers, x.p,
                                        is_traced ? &final_states : nullptr);
      ++checked;
      l2_max = std::max(l2_max, ck.l2);
      if (!ck.ok) {
        std::cerr << "# repetition " << i << " failed its check: " << ck.why
                  << "\n";
        ++failed;
      }
      const double rep_s =
          seconds_since(rep_start) - (outside - outside_before);
      longest = std::max(longest, rep_s);
      setup_samples.push_back(x.r.setup_s);
      // Set-up takes milliseconds, so its median needs far more samples
      // than the repetitions give. Set-up alone runs again after every
      // repetition, for a fixed share of its time, so that setup_s samples
      // the same stretch of the host's time as run_s. Not measured time.
      const auto extra_start = Clock::now();
      for (int n = 0; n < kSetupMinExtra ||
                      seconds_since(extra_start) < kSetupShare * rep_s;
           ++n)
        setup_samples.push_back(set_up(wk, inputs).total_s);
      outside += seconds_since(extra_start);
      x.r.trace_file = trace_file;
      (is_traced ? traced : plain).push_back(std::move(x.r));
    } catch (const std::exception& e) {
      metrics::disarm_timing();
      std::cerr << "# repetition " << i << " threw: " << e.what() << "\n";
      ++failed;
    }
  }
  std::cout << "# repetitions: " << plain.size() << " untraced, "
            << traced.size() << " traced, " << checked << " checked, "
            << failed << " failed\n";
  std::cout << "# error_rate = " << json_number(static_cast<double>(failed) /
                                                static_cast<double>(attempted))
            << " (" << failed << "/" << attempted << ")\n";
  std::cout << "# l2_error = " << json_number(l2_max)
            << " (max over repetitions and members)\n";
  if (plain.empty()) throw std::runtime_error("no untraced repetition completed");

  std::cout << "# setup_s samples: n=" << setup_samples.size() << ", min "
            << *std::min_element(setup_samples.begin(), setup_samples.end())
            << ", median " << median(setup_samples) << ", max "
            << *std::max_element(setup_samples.begin(), setup_samples.end())
            << "\n";
  std::vector<double> run_samples;
  for (const Repetition& r : plain) run_samples.push_back(r.run_s);
  std::cout << "# run_s samples:";
  for (const double s : run_samples) std::cout << " " << s;
  std::cout << "\n";
  double pct = 0.0;
  const double tail = tail_percentile(run_samples, pct);
  if (tail >= 0.0)
    std::cout << "# run_s p" << pct << " = " << json_number(tail) << " s (n="
              << run_samples.size() << ")\n";
  else
    std::cout << "# run_s tail: n=" << run_samples.size()
              << " < 20, no percentile above the median has ten samples "
                 "beyond it\n";

  const bool correct = failed == 0 && checked == attempted;
  // Timings are medians. Sizes depend only on the instance's input, and the
  // instances of a workload can fall into distinct modes (qaoa-batch's
  // compression ratio clusters near 1.64 and 1.80), so a median would jump
  // between modes from run to run; their mean over the instances does not.
  Values e2e = aggregate(plain, &Repetition::e2e);
  e2e.merge(aggregate(plain, &Repetition::sizes, true));
  e2e["setup_s"] = median(setup_samples);
  e2e["peak_rss_mib"] = rss_mib;
  if (!a.trace) {
    print_result(correct, attempted, failed, kEndToEnd, e2e);
    return 0;
  }

  if (traced.empty()) throw std::runtime_error("no traced repetition completed");
  // Each repetition's capture has stopped and written its trace.
  for (Repetition& r : traced)
    r.layers["engine.unattributed_s"] -= coordinator_layer_seconds(r.trace_file);
  Values v = aggregate(traced, &Repetition::layers);
  const Capture capture(a.spans + "/layers.json");
  // The plan and kernel layers run on instance 0's circuit(s), one member
  // at a time.
  core::EngineConfig serial = w.cfg;
  serial.batch_size = 1;
  const std::vector<circuit::Circuit> circuits = set_up(w0, inputs0).circuits;
  // Plan layer: the benchmark's own calls into plan_for with the workload's
  // options (the same plans run() and BatchScheduler::run build).
  {
    core::MemQSimEngine planner(w.qubits, serial);
    std::vector<double> build;
    double stages = 0, pairs = 0, predicted = 0;
    for (int rep = 0; rep < 5; ++rep) {
      Span s("plan.build");
      stages = pairs = predicted = 0;
      for (const circuit::Circuit& c : circuits) {
        const core::StagePlan plan = planner.plan_for(c);
        stages += static_cast<double>(plan.stages.size());
        pairs += static_cast<double>(plan.stats.pair_stages);
        predicted += plan.cost.codec_passes();
      }
      build.push_back(s.stop());
    }
    v["plan.build_s"] = median(build);
    v["plan.stages"] = stages;
    v["plan.pair_stages"] = pairs;
    v["plan.predicted_codec_passes"] = predicted;
    v["plan.forecast_ratio"] =
        v["plan.codec_passes"] > 0 ? predicted / v["plan.codec_passes"] : 0.0;
  }
  if (w.members > 1) {
    // The batch scheduler plans its members inside run(); that time is
    // plan.build_s, not part of the engine's own offline phase.
    v["engine.unattributed_s"] -= v["plan.build_s"];
  }
  // Kernel layer: the HPC baseline, the plain dense run on the kernels' one
  // OpenMP thread (median of 3).
  {
    std::vector<double> runs;
    for (int rep = 0; rep < 3; ++rep) {
      double total = 0.0;
      for (const circuit::Circuit& c : circuits) {
        core::DenseEngine dense(w.qubits, serial);
        Span s("kernel.dense_run");
        dense.run(c);
        total += s.stop();
      }
      runs.push_back(total);
    }
    v["kernel.dense_run_s"] = median(runs);
  }
  replay_codec_and_store(w, final_states, v);
  std::size_t array_bytes = 0, llc_bytes = 0;
  v["machine.copy_gbps"] = copy_gbps(array_bytes, llc_bytes);
  std::cout << "# machine.copy_gbps measured with memcpy of " << array_bytes
            << " B arrays (last-level cache " << llc_bytes << " B)\n";
  v["machine.nproc"] = nproc();
  v["machine.simd_level"] = static_cast<double>(simd::active());
  std::vector<double> traced_run;
  for (const Repetition& r : traced) traced_run.push_back(r.run_s);
  v["trace.overhead_ratio"] = median(traced_run) / median(run_samples);
  v["check.l2_error"] = l2_max;
  v["check.error_rate"] =
      static_cast<double>(failed) / static_cast<double>(attempted);
  print_result(correct, attempted, failed, kPerLayer, v);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "memq_perfbench: " << e.what() << "\n";
    return 2;
  }
}
