#include "core/chunk_exec.hpp"

#include <limits>

#include "common/bit_ops.hpp"
#include "common/error.hpp"
#include "core/chunk_cache.hpp"
#include "core/chunk_store.hpp"
#include "sv/kernels.hpp"

namespace memq::core {

using circuit::Gate;
using circuit::GateKind;

bool is_chunk_local(const Gate& gate, qubit_t chunk_qubits) {
  if (gate.is_barrier()) return true;
  if (gate.is_nonunitary()) return false;  // measurement is a global flow
  if (gate.is_diagonal()) return true;     // any target: per-chunk scalar
  for (const qubit_t t : gate.targets)
    if (t >= chunk_qubits) return false;
  return true;
}

namespace {

/// No pair qubit: `buf` is a single chunk.
constexpr qubit_t kNoPair = std::numeric_limits<qubit_t>::max();

/// Shared body of apply_gate_to_chunk / apply_gate_to_pair. Local targets
/// and controls keep their bit, the pair qubit (if any) maps to bit c, and
/// any other high control tests against the chunk index.
bool apply_to_buffer(std::span<amp_t> buf, index_t chunk_lo, qubit_t c,
                     qubit_t pair_qubit, const Gate& gate) {
  index_t local_mask = 0;
  index_t chunk_mask = 0;
  for (const qubit_t q : gate.controls) {
    if (q < c)
      local_mask |= index_t{1} << q;
    else if (q == pair_qubit)
      local_mask |= index_t{1} << c;
    else
      chunk_mask |= index_t{1} << (q - c);
  }
  if ((chunk_lo & chunk_mask) != chunk_mask) return false;

  // Diagonal gate on a high qubit other than the pair qubit: that bit is
  // constant across the buffer, so the gate scales the (control-satisfying
  // part of the) buffer by d0 or d1.
  const qubit_t t0 = gate.targets.at(0);
  if (gate.is_diagonal() && t0 >= c && t0 != pair_qubit) {
    const circuit::Mat2 m = gate.matrix1q();
    const amp_t d = bits::test(chunk_lo, t0 - c) ? m[3] : m[0];
    if (d == amp_t{1.0, 0.0}) return false;
    if (local_mask == 0) {
      for (amp_t& a : buf) a *= d;
    } else {
      for (index_t i = 0; i < buf.size(); ++i)
        if ((i & local_mask) == local_mask) buf[i] *= d;
    }
    return true;
  }

  const auto local_of = [&](qubit_t q) -> qubit_t {
    if (q < c) return q;
    MEMQ_CHECK(q == pair_qubit, "gate " << gate.to_string()
                                        << " touches a second high qubit "
                                        << q);
    return c;
  };
  if (gate.kind == GateKind::kSwap) {
    sv::apply_swap(buf, local_of(gate.targets[0]), local_of(gate.targets[1]),
                   local_mask);
    return true;
  }
  const qubit_t t = local_of(t0);
  if (gate.kind == GateKind::kX) {
    sv::apply_x(buf, t, local_mask);
    return true;
  }
  if (gate.is_diagonal()) {
    const circuit::Mat2 m = gate.matrix1q();
    sv::apply_diagonal1(buf, t, m[0], m[3], local_mask);
    return true;
  }
  sv::apply_matrix1(buf, t, gate.matrix1q(), local_mask);
  return true;
}

}  // namespace

bool apply_gate_to_chunk(std::span<amp_t> chunk, index_t chunk_index,
                         qubit_t chunk_qubits, const Gate& gate) {
  if (gate.is_barrier() || gate.kind == GateKind::kI) return false;
  MEMQ_CHECK(is_chunk_local(gate, chunk_qubits),
             "gate " << gate.to_string() << " is not chunk-local at c="
                     << chunk_qubits);
  MEMQ_CHECK(chunk.size() == (index_t{1} << chunk_qubits),
             "chunk buffer size mismatch");
  return apply_to_buffer(chunk, chunk_index, chunk_qubits, kNoPair, gate);
}

bool apply_gate_to_pair(std::span<amp_t> pair, index_t chunk_lo,
                        qubit_t chunk_qubits, qubit_t pair_qubit,
                        const Gate& gate) {
  if (gate.is_barrier() || gate.kind == GateKind::kI) return false;
  MEMQ_CHECK(pair.size() == (index_t{1} << (chunk_qubits + 1)),
             "pair buffer size mismatch");
  MEMQ_CHECK(pair_qubit >= chunk_qubits, "pair qubit must be non-local");
  MEMQ_CHECK(!bits::test(chunk_lo, pair_qubit - chunk_qubits),
             "chunk_lo must have the pair bit clear");
  return apply_to_buffer(pair, chunk_lo, chunk_qubits, pair_qubit, gate);
}

ChunkPermutation chunk_permutation(const Gate& gate, qubit_t chunk_qubits) {
  const qubit_t c = chunk_qubits;
  ChunkPermutation perm;
  for (const qubit_t ctrl : gate.controls) {
    MEMQ_CHECK(ctrl >= c, "permutation gate has a local control");
    perm.set |= index_t{1} << (ctrl - c);
  }
  if (gate.kind == GateKind::kX) {
    const qubit_t q = gate.targets.at(0);
    MEMQ_CHECK(q >= c, "permutation X must target a high qubit");
    perm.clear = perm.flip = index_t{1} << (q - c);
    return perm;
  }
  if (gate.kind == GateKind::kSwap) {
    const qubit_t a = gate.targets.at(0), b = gate.targets.at(1);
    MEMQ_CHECK(a >= c && b >= c, "permutation swap must be on high qubits");
    perm.set |= index_t{1} << (a - c);
    perm.clear = index_t{1} << (b - c);
    perm.flip = (index_t{1} << (a - c)) | perm.clear;
    return perm;
  }
  MEMQ_THROW(InvalidArgument,
             "gate " << gate.to_string() << " is not a chunk permutation");
}

void apply_chunk_permutation(ChunkStore& store, const circuit::Gate& gate,
                             ChunkCache* cache, index_t window_base,
                             index_t window_count) {
  // The bit arithmetic runs on WINDOW-LOCAL chunk indices so a batch member
  // occupying [base, base + count) permutes exactly as a standalone state of
  // `count` chunks would; 0/0 covers the whole store (historical behavior).
  const index_t count = window_count != 0 ? window_count : store.n_chunks();
  MEMQ_CHECK(window_base + count <= store.n_chunks(),
             "permutation window out of range");
  for_each_swap_pair(
      chunk_permutation(gate, store.chunk_qubits()), count,
      [&](index_t li, index_t lj) {
        // The cache is notified first: on_swap drains any write-back still
        // in flight for either slot before the blobs move underneath it.
        if (cache != nullptr) cache->on_swap(window_base + li, window_base + lj);
        store.swap_chunks(window_base + li, window_base + lj);
      });
}

}  // namespace memq::core
