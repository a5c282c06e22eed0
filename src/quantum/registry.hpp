#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "qstate/state_store.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/gates.hpp"
#include "sim/random.hpp"

/// \file registry.hpp
/// Shared-state qubit registry: the quantum-memory backing store for all
/// simulated devices.
///
/// Qubits at *different nodes* can be entangled, so their joint state
/// must live in one store. The registry is a thin facade over a
/// qstate::StateStore (see src/qstate/): the store tracks groups of
/// qubits sharing a state, merges groups when a joint operation spans
/// them, and shrinks groups when qubits are measured or discarded —
/// mirroring the "qstate" sharing NetSquid uses. Whether two-qubit
/// groups may be held as Bell-diagonal coefficients instead of dense
/// density matrices is a per-scenario qstate::BackendKind
/// (core::LinkConfig::backend).

namespace qlink::quantum {

/// Opaque handle to a live qubit. Id 0 is never valid.
using QubitId = qstate::QubitId;

class QuantumRegistry {
 public:
  /// Default kind: dense density matrices (reference semantics).
  explicit QuantumRegistry(sim::Random& random);
  QuantumRegistry(sim::Random& random, qstate::BackendKind kind);

  QuantumRegistry(const QuantumRegistry&) = delete;
  QuantumRegistry& operator=(const QuantumRegistry&) = delete;

  /// The deterministic random source behind all quantum sampling.
  sim::Random& random() noexcept { return random_; }

  /// The state store in use.
  qstate::StateStore& backend() noexcept { return store_; }
  const qstate::StateStore& backend() const noexcept { return store_; }

  /// Allocate a fresh qubit in |0>.
  QubitId create() { return store_.create(); }

  /// Destroy a qubit: it is traced out of its group.
  void discard(QubitId q) { store_.discard(q); }

  bool exists(QubitId q) const { return store_.exists(q); }
  std::size_t live_qubits() const { return store_.live_qubits(); }

  /// Number of qubits sharing a state with q (including q).
  std::size_t group_size(QubitId q) const { return store_.group_size(q); }

  /// Apply a unitary on the listed qubits (groups merged as needed).
  void apply_unitary(const Matrix& u, std::span<const QubitId> qubits) {
    store_.apply_unitary(u, qubits);
  }

  /// Apply a Kraus channel on the listed qubits.
  void apply_kraus(std::span<const Matrix> kraus,
                   std::span<const QubitId> qubits) {
    store_.apply_kraus(kraus, qubits);
  }

  /// Structured noise: dephasing with probability p on one qubit
  /// (equivalent to apply_kraus(channels::dephasing(p)) but closed-form
  /// in every representation — no Kraus construction on the hot path).
  void dephase(QubitId q, double p) { store_.dephase(q, p); }

  /// Depolarising channel with keep-weight f (channels::depolarizing).
  void depolarize(QubitId q, double f) { store_.depolarize(q, f); }

  /// Combined T1/T2 decay over t_ns (channels::t1t2 semantics).
  void decay(QubitId q, double t_ns, double t1_ns, double t2_ns) {
    store_.decay(q, t_ns, t1_ns, t2_ns);
  }

  /// Measure one qubit in the given basis. The qubit collapses, is
  /// separated from its group, and remains allocated in the post-
  /// measurement product state (callers typically discard it next).
  /// Returns 0 or 1.
  int measure(QubitId q, gates::Basis basis) {
    return store_.measure(q, basis);
  }

  /// Bell measurement: CNOT(control -> target), H(control), then two
  /// Z measurements. Returns {m1 = control outcome, m2 = target
  /// outcome}. On Bell-diagonal pairs the store implements the
  /// entanglement swap behind this in closed form.
  std::pair<int, int> bell_measure(QubitId control, QubitId target) {
    return store_.bell_measure(control, target);
  }

  /// Overwrite the joint state of the listed qubits with a given density
  /// matrix (used by the herald model to install fresh entanglement).
  /// Each qubit must currently be unentangled with anything outside the
  /// list; their old state is dropped.
  void set_state(std::span<const QubitId> qubits, const DensityMatrix& dm) {
    store_.set_state(qubits, dm);
  }

  /// Reset a single qubit to |0> (dropping correlations: it is traced
  /// out of its group first). Models (re-)initialisation.
  void reset(QubitId q) { store_.reset(q); }

  /// Reduced density matrix of the listed qubits, in the given order.
  /// Read-only diagnostic used by metrics/tests; a real device cannot do
  /// this, the simulator can.
  DensityMatrix peek(std::span<const QubitId> qubits) const {
    return store_.peek(qubits);
  }

  /// Fidelity of the listed qubits' reduced state to a pure state.
  double fidelity(std::span<const QubitId> qubits,
                  std::span<const Complex> psi) const;

 private:
  sim::Random& random_;
  qstate::StateStore store_;
};

}  // namespace qlink::quantum
