// Applying circuit gates to chunk buffers — the code that runs inside the
// simulated device's kernels AND on CPU co-execution workers.
//
// Chunk addressing: with chunk size 2^c, amplitude index = (chunk << c) |
// local. A gate is *chunk-local* when all its targets are < c (controls may
// be anywhere: control bits >= c are constant within a chunk and resolve to
// a go/no-go per chunk). Diagonal gates are local for ANY target since a
// high target only selects a per-chunk scalar.
#pragma once

#include <span>

#include "circuit/gate.hpp"
#include "common/types.hpp"

namespace memq::core {

/// True if the gate can be applied one chunk at a time.
bool is_chunk_local(const circuit::Gate& gate, qubit_t chunk_qubits);

/// Applies a chunk-local gate to the amplitudes of chunk `chunk_index`.
/// Returns false when the gate was skipped because a control bit >= c is
/// not satisfied by this chunk (the buffer is untouched).
bool apply_gate_to_chunk(std::span<amp_t> chunk, index_t chunk_index,
                         qubit_t chunk_qubits, const circuit::Gate& gate);

/// Applies a gate with exactly one target qubit >= c to a *pair buffer*
/// [chunk_lo | chunk_hi] of 2^(c+1) amplitudes, where chunk_hi = chunk_lo
/// with chunk-bit (pair_qubit - c) set. Local targets stay at their bit,
/// the pair qubit maps to bit c. Returns false if skipped by high controls.
bool apply_gate_to_pair(std::span<amp_t> pair, index_t chunk_lo,
                        qubit_t chunk_qubits, qubit_t pair_qubit,
                        const circuit::Gate& gate);

/// A chunk permutation as a set of disjoint slot swaps: every index li with
/// all `set` bits and no `clear` bit swaps with li ^ flip. X on chunk bit b
/// is clear = flip = 2^b; SWAP of chunk bits a, b is set = 2^a, clear = 2^b,
/// flip = 2^a | 2^b; controls (all high) add their chunk bits to `set`.
struct ChunkPermutation {
  index_t set = 0;
  index_t clear = 0;
  index_t flip = 0;
};

/// The chunk permutation of a pure-permute gate (X or SWAP on high qubits,
/// every control high). Throws InvalidArgument for any other gate.
ChunkPermutation chunk_permutation(const circuit::Gate& gate,
                                   qubit_t chunk_qubits);

/// Calls fn(li, lj) for each swap pair of `perm` over indices [0, count),
/// in ascending li — the one enumeration both the compressed-store
/// permutation and the cache forecast's slot relabeling walk.
template <class Fn>
void for_each_swap_pair(const ChunkPermutation& perm, index_t count, Fn&& fn) {
  for (index_t li = 0; li < count; ++li)
    if ((li & perm.set) == perm.set && (li & perm.clear) == 0)
      fn(li, li ^ perm.flip);
}

class ChunkStore;
class ChunkCache;

/// Executes a pure chunk-permutation gate (X or SWAP on high qubits with no
/// local controls) directly on the compressed store — zero codec work.
/// When a chunk cache is active, pass it so cached entries follow their
/// blobs through the permutation. An optional window [base, base + count)
/// scopes the permutation to one batch member's chunk span: the gate's
/// chunk-bit arithmetic runs on window-local indices, so the member behaves
/// exactly like a standalone state of `count` chunks. count == 0 = whole
/// store.
void apply_chunk_permutation(ChunkStore& store, const circuit::Gate& gate,
                             ChunkCache* cache = nullptr,
                             index_t window_base = 0,
                             index_t window_count = 0);

}  // namespace memq::core
