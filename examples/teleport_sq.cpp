// Qubit transmission via teleportation (the SQ use case of Section 3.3).
//
// A requests one stored pair through the EGP, prepares a data qubit in an
// arbitrary state, Bell-measures it against its pair half and sends the
// two classical correction bits to B, which recovers the state. The
// example prints the teleported-state fidelity against the prepared one.

#include <cmath>
#include <cstdio>
#include <optional>

#include "core/network.hpp"
#include "quantum/bell.hpp"
#include "quantum/protocols.hpp"

using namespace qlink;
using namespace qlink::core;
namespace gates = qlink::quantum::gates;
namespace protocols = qlink::quantum::protocols;

int main() {
  LinkConfig config;
  config.scenario = hw::ScenarioParams::lab();
  config.seed = 7;
  Link link(config);

  std::optional<OkMessage> ok_a;
  std::optional<OkMessage> ok_b;
  link.egp_a().set_ok_handler([&](const OkMessage& ok) { ok_a = ok; });
  link.egp_b().set_ok_handler([&](const OkMessage& ok) { ok_b = ok; });
  link.start();

  CreateRequest request;
  request.type = RequestType::kCreateKeep;
  request.num_pairs = 1;
  request.min_fidelity = 0.65;
  request.priority = Priority::kCreateKeep;
  request.consecutive = true;
  request.store_in_memory = true;
  link.egp_a().create(request);

  std::printf("requesting one K pair (F_min = %.2f)...\n",
              request.min_fidelity);
  // Act quickly once delivered: stored pairs decay (T2* carbon = 3.5 ms).
  for (int i = 0; i < 200000 && !(ok_a && ok_b); ++i) {
    link.run_for(sim::duration::microseconds(100));
  }
  if (!ok_a || !ok_b) {
    std::printf("no pair delivered in time\n");
    return 1;
  }
  std::printf("pair delivered (ent #%u), goodness %.3f\n",
              ok_a->ent_id.seq_mhp, ok_a->goodness);

  auto& reg = link.registry();
  // A prepares |psi> = cos(t/2)|0> + e^{i phi} sin(t/2)|1>.
  const double theta = 1.1;
  const double phi = 0.6;
  const quantum::QubitId data = reg.create();
  const quantum::QubitId d[] = {data};
  reg.apply_unitary(gates::ry(theta), d);
  reg.apply_unitary(gates::rz(phi), d);
  std::vector<quantum::Complex> psi{
      std::cos(theta / 2) * std::exp(quantum::Complex{0, -phi / 2}),
      std::sin(theta / 2) * std::exp(quantum::Complex{0, phi / 2})};

  // Bell measurement at A across (data, pair half).
  const quantum::QubitId qa = ok_a->qubit;
  const quantum::QubitId qb = ok_b->qubit;
  link.device_a().touch(qa);
  link.device_b().touch(qb);
  const protocols::BellMeasurement m = protocols::bell_measure(reg, data, qa);
  std::printf("Bell measurement at A: m1=%d m2=%d (2 classical bits to B)\n",
              m.m1, m.m2);

  // B: delivered state is |Psi+> = (I (x) X)|Phi+>; undo the X, then the
  // standard corrections X^m2 Z^m1.
  protocols::apply_teleport_corrections(reg, qb, m,
                                        quantum::bell::BellState::kPsiPlus);
  const quantum::QubitId b[] = {qb};

  const double fidelity = reg.peek(b).fidelity(psi);
  std::printf("teleported-state fidelity at B: %.4f\n", fidelity);
  std::printf("(bounded by the delivered pair quality; 1.0 = perfect)\n");

  reg.discard(data);
  link.egp_a().release_delivered(*ok_a);
  link.egp_b().release_delivered(*ok_b);
  return fidelity > 0.5 ? 0 : 1;
}
