#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "qstate/pool.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/gates.hpp"
#include "sim/random.hpp"

/// \file state_store.hpp
/// The quantum-state store behind quantum::QuantumRegistry.
///
/// The registry owns *which* qubits exist; the store holds their joint
/// states. Groups of entangled qubits carry one of three
/// representations:
///
///  - kSingle: an unentangled qubit's 2x2 density matrix, stored inline
///    (no heap traffic at all — this covers the per-cycle electron
///    initialisation that dominated the historical profile);
///  - kPair: a two-qubit Bell-diagonal state as 4 coefficients
///    {Phi+, Phi-, Psi+, Psi-} (BackendKind::kBellDiagonal only);
///  - kDense: a pooled d*d density-matrix buffer with in-place gate /
///    channel kernels (no operator expansion, no temporaries).
///
/// BackendKind::kDense keeps every multi-qubit state kDense: the
/// reference semantics, matching the historical registry exactly
/// (including its Random consumption). BackendKind::kBellDiagonal takes
/// the kPair fast path for two-qubit installs that are Bell-diagonal —
/// heralded NV pairs are, exactly in the Pauli-frame scenarios — where
/// decay, Pauli-frame corrections and entanglement swapping have closed
/// forms on the 4 coefficients. Any operation that leaves the
/// structured manifold (a non-Clifford unitary on a pair half, a
/// cross-pair merge, a non-Bell-diagonal install) *promotes* the group
/// to kDense; see DESIGN.md "Quantum-state store" for the promotion
/// table. The kind is chosen per scenario (core::LinkConfig::backend).

namespace qlink::qstate {

/// Opaque handle to a live qubit. Id 0 is never valid.
using QubitId = std::uint64_t;

enum class BackendKind { kDense, kBellDiagonal };

/// User-facing name of a kind: "dense" or "bell-diagonal".
const char* backend_kind_name(BackendKind kind) noexcept;

/// Parse a user-facing backend name ("dense", "bell",
/// "bell-diagonal") into a kind; nullopt for anything unknown.
std::optional<BackendKind> parse_backend_kind(std::string_view name);

/// Counters the store maintains; benches report them so the effect of
/// the structured fast path and the buffer pool is observable.
struct BackendStats {
  std::uint64_t fast_ops = 0;    ///< ops served by a closed-form path
  std::uint64_t dense_ops = 0;   ///< ops that ran dense linear algebra
  std::uint64_t promotions = 0;  ///< structured groups escalated to dense
  std::uint64_t demotions = 0;   ///< dense groups rebuilt as Bell pairs
                                 ///< by a fresh Bell-diagonal install
  std::uint64_t pool_hits = 0;   ///< dense buffers reused from the pool
  std::uint64_t pool_misses = 0; ///< dense buffers newly allocated
};

/// All operations use the same conventions as the historical registry
/// code: qubit 0 of a group is the leftmost tensor factor, measurement
/// draws exactly one Random::bernoulli(P(outcome == 1)) per measured
/// qubit, and measured qubits stay allocated in their post-measurement
/// product state.
class StateStore {
 public:
  StateStore(sim::Random& random, BackendKind kind);

  const char* name() const noexcept { return backend_kind_name(kind_); }

  /// Allocate a fresh qubit in |0>.
  QubitId create();
  /// Destroy a qubit: it is traced out of its group.
  void discard(QubitId q);
  bool exists(QubitId q) const;
  std::size_t live_qubits() const { return live_; }
  /// Number of qubits sharing a state with q (including q).
  std::size_t group_size(QubitId q) const;

  /// Apply a unitary on the listed qubits (groups merged as needed).
  void apply_unitary(const quantum::Matrix& u,
                     std::span<const QubitId> qubits);
  /// Apply a Kraus channel on the listed qubits. On a Bell pair a
  /// single-qubit channel that is not a Pauli channel (finite-T1
  /// amplitude damping) is approximated by its Pauli twirl: exact for
  /// every Pauli channel, O(gamma) otherwise.
  void apply_kraus(std::span<const quantum::Matrix> kraus,
                   std::span<const QubitId> qubits);

  /// Dephasing channel rho -> (1-p) rho + p Z rho Z on one qubit.
  void dephase(QubitId q, double p);
  /// Depolarising channel with keep-weight f (channels::depolarizing).
  void depolarize(QubitId q, double f);
  /// Combined T1/T2 decay over t_ns (channels::t1t2 semantics;
  /// t1/t2 <= 0 means infinite). Twirled like apply_kraus on a pair.
  void decay(QubitId q, double t_ns, double t1_ns, double t2_ns);

  /// Measure one qubit in the given basis (collapses and separates it
  /// from its group; it stays allocated). Returns 0 or 1.
  int measure(QubitId q, quantum::gates::Basis basis);

  /// Bell measurement: CNOT(control -> target), H(control), then both
  /// qubits measured in Z. Returns {m1 = control, m2 = target} with the
  /// same Random consumption as four separate calls would have.
  std::pair<int, int> bell_measure(QubitId control, QubitId target);

  /// Overwrite the joint state of the listed qubits (old correlations
  /// are severed, the state is renormalised).
  void set_state(std::span<const QubitId> qubits,
                 const quantum::DensityMatrix& dm);
  /// Reset a single qubit to |0> (traced out of its group first).
  void reset(QubitId q);

  /// Reduced density matrix of the listed qubits, in request order
  /// (simulator privilege; diagnostics only).
  quantum::DensityMatrix peek(std::span<const QubitId> qubits) const;

  const BackendStats& stats() const noexcept {
    stats_.pool_hits = pool_.hits();
    stats_.pool_misses = pool_.misses();
    return stats_;
  }

 private:
  enum class Rep : std::uint8_t { kSingle, kPair, kDense };

  struct Group {
    Rep rep = Rep::kSingle;
    std::array<Complex, 4> c2{};   // kSingle: 2x2 row-major
    std::array<double, 4> bell{};  // kPair: Bell-diagonal coefficients
    std::vector<Complex> rho;      // kDense: d*d row-major (pooled)
    int nq = 1;
    std::vector<QubitId> members;  // position i <-> qubit index i
  };

  static constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;

  struct Slot {
    std::uint32_t group = kNoGroup;
    std::uint32_t index = 0;
  };

  // --- slot / group bookkeeping -------------------------------------
  const Slot& slot(QubitId q) const;
  Group& group_of(QubitId q) { return groups_[slot(q).group]; }
  const Group& group_of(QubitId q) const { return groups_[slot(q).group]; }
  std::uint32_t alloc_group();
  void free_group(std::uint32_t gi);
  /// Make q a fresh singleton kSingle group in state |0><0|.
  void make_singleton(QubitId q);

  /// Remove q from its group by tracing it out; q ends in a fresh
  /// singleton |0> group. No-op when q is already alone.
  void extract(QubitId q);

  /// Merge all listed qubits into one kDense group (first-seen group
  /// order, like the historical registry); fills `indices` with each
  /// qubit's in-group index.
  std::uint32_t merge(std::span<const QubitId> qubits,
                      std::vector<int>& indices);

  /// Escalate a structured group to kDense storage.
  void promote(std::uint32_t gi);

  /// Dense buffer of a group's state (materialising kSingle/kPair
  /// without changing the group's representation).
  std::vector<Complex> materialize(const Group& g) const;
  quantum::DensityMatrix materialize_dm(const Group& g) const;

  // --- dense in-place kernels (operate on Group::rho) ---------------
  void dense_apply_1q(Group& g, const quantum::Matrix& u, int qubit);
  void dense_apply_2q(Group& g, const quantum::Matrix& u, int q0, int q1);
  void dense_apply_generic(Group& g, const quantum::Matrix& u,
                           std::span<const int> targets);
  void dense_kraus(Group& g, std::span<const quantum::Matrix> kraus,
                   std::span<const int> targets);
  void dense_dephase(Group& g, int qubit, double p);
  void dense_depolarize(Group& g, int qubit, double f);
  void dense_decay(Group& g, int qubit, double gamma, double pd);
  int dense_measure(Group& g, QubitId q, quantum::gates::Basis basis);
  /// Partial-trace one qubit out of a dense group (shrinks it; the
  /// group may collapse to kSingle).
  void dense_remove_qubit(std::uint32_t gi, int qubit);

  // --- structured helpers --------------------------------------------
  void pair_measure_collapse(std::uint32_t gi, QubitId q,
                             quantum::gates::Basis basis, int outcome);
  bool try_set_pair(std::uint32_t gi, const quantum::DensityMatrix& dm);

  sim::Random& random_;
  const BackendKind kind_;
  /// Bell-diagonal mode: two-qubit states may take the kPair path.
  const bool structured_;

  mutable BackendStats stats_;
  BufferPool pool_;
  std::vector<Group> groups_;
  std::vector<std::uint32_t> free_groups_;
  std::vector<Slot> slots_;  // indexed by QubitId
  QubitId next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace qlink::qstate
