#pragma once

#include <deque>
#include <map>
#include <optional>

#include "core/requests.hpp"
#include "hw/herald_model.hpp"
#include "hw/nv_params.hpp"
#include "quantum/gates.hpp"

/// \file feu.hpp
/// Fidelity Estimation Unit (Section 5.2.3 and Appendix B).
///
/// Two responsibilities:
///  1. Translate a requested minimum fidelity F_min into generation
///     parameters: the largest bright-state population alpha whose
///     *delivered* fidelity estimate still meets F_min, together with an
///     expected completion time per pair (used for UNSUPP decisions and
///     WFQ bookkeeping). Delivered fidelity = heralded fidelity from the
///     physical model degraded by the decoherence the pair provably
///     suffers before the higher layer can touch it (REPLY wait, and the
///     move to a memory qubit for K-type requests).
///  2. Maintain a running estimate of link quality from interspersed
///     test rounds (Appendix B): QBER per basis over a sliding window,
///     recombined into a fidelity estimate via Eq. 16.

namespace qlink::core {

class FidelityEstimationUnit {
 public:
  struct Advice {
    bool feasible = false;
    double alpha = 0.0;
    double estimated_fidelity = 0.0;
    /// Expected wall time to produce one pair at this alpha, including
    /// the per-type attempt-rate limits.
    sim::SimTime expected_time_per_pair = 0;
    std::uint32_t est_cycles_per_pair = 0;
  };

  FidelityEstimationUnit(const hw::HeraldModel& model,
                         const hw::ScenarioParams& scenario);

  /// Generation parameters for a fidelity target (cached).
  Advice advise(double f_min, RequestType type) const;

  /// Model-based delivered-fidelity estimate for a given alpha.
  double estimate_delivered_fidelity(double alpha, RequestType type) const;

  /// Goodness reported in OK messages: the test-round estimate when
  /// enough data exists, otherwise the model estimate.
  double goodness(double alpha, RequestType type) const;

  // -- Test rounds (Appendix B) ---------------------------------------

  /// Record one test-round result. `heralded_state` is 1 (Psi+) or
  /// 2 (Psi-), needed to know the ideal correlation in each basis.
  void record_test_round(quantum::gates::Basis basis, int outcome_a,
                         int outcome_b, int heralded_state);

  /// Sliding-window QBER in one basis; nullopt if no samples yet.
  std::optional<double> measured_qber(quantum::gates::Basis basis) const;

  /// Test rounds in one basis's window: the sample size behind
  /// measured_qber(basis).
  std::size_t window_samples(quantum::gates::Basis basis) const {
    return errors_[static_cast<std::size_t>(basis)].size();
  }

  /// Eq. 16 estimate from the three QBERs; nullopt until all three bases
  /// have samples.
  std::optional<double> estimated_fidelity_from_tests() const;

  void set_window(std::size_t n) { window_ = n; }
  std::size_t test_rounds_recorded() const { return total_tests_; }

  /// Number of MHP cycles between K-type attempts (the REPLY round trip
  /// gates re-use of the communication qubit; Section 4.4).
  std::uint64_t k_attempt_period_cycles() const {
    return k_attempt_period_cycles_;
  }

 private:
  const hw::HeraldModel& model_;
  hw::ScenarioParams scenario_;
  std::uint64_t k_attempt_period_cycles_ = 1;
  double k_cycle_overhead_ = 1.0;  // carbon-refresh duty cycle ("E")

  std::size_t window_ = 2000;
  std::size_t total_tests_ = 0;
  std::array<std::deque<bool>, 3> errors_;  // per basis: error yes/no

  mutable std::map<std::pair<long, int>, Advice> advice_cache_;
};

}  // namespace qlink::core
