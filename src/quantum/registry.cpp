#include "quantum/registry.hpp"

namespace qlink::quantum {

QuantumRegistry::QuantumRegistry(sim::Random& random)
    : QuantumRegistry(random, qstate::BackendKind::kDense) {}

QuantumRegistry::QuantumRegistry(sim::Random& random,
                                 qstate::BackendKind kind)
    : random_(random), store_(random, kind) {}

double QuantumRegistry::fidelity(std::span<const QubitId> qubits,
                                 std::span<const Complex> psi) const {
  return peek(qubits).fidelity(psi);
}

}  // namespace qlink::quantum
