#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

/// \file arrival.hpp
/// Traffic-shape library for the workload engine: when do requests
/// arrive, and what does each one ask for.
///
/// An ArrivalProcess is a deterministic pure function of
/// (Random&, now): given the shared random source and the current
/// simulation time it returns the next arrival instant (strictly
/// after now). It holds no mutable state of its own, so the same seed
/// replays the same arrival train regardless of who else shares the
/// Random. The driver keeps exactly one pending arrival event on the
/// heap (O(1) heap state however high the offered rate).
///
/// Two shapes exist: Poisson arrivals, and a weighted per-class mix
/// over an inner process.

namespace qlink::workload {

/// What one arrival asks for. The driver fills endpoints according to
/// its OriginMode unless the class pins them via `endpoints`.
struct RequestShape {
  std::uint16_t num_pairs = 1;
  /// End-to-end fidelity target; 0 = use the traffic default.
  double min_fidelity = 0.0;
  /// Pinned (src, dst) endpoint pool: when non-empty, each arrival of
  /// this class picks one pair uniformly. Empty = driver's OriginMode.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> endpoints;
  /// Class label for reporting (unused by the engine itself).
  std::string name;
};

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// The next arrival instant, strictly after `now`. Must consume the
  /// same number of random draws for the same (seed, now) so seeded
  /// trajectories replay byte-identically.
  virtual sim::SimTime next_arrival(sim::Random& random,
                                    sim::SimTime now) const = 0;

  /// What the arrival at `now` asks for. The base process issues the
  /// default shape; class mixes override.
  virtual RequestShape sample_shape(sim::Random& random,
                                    sim::SimTime now) const {
    (void)random;
    (void)now;
    return RequestShape{};
  }

  /// Mean offered rate (requests per simulated second), for reporting
  /// and run sizing.
  virtual double mean_rate_hz() const = 0;
};

/// Poisson arrivals: exponential inter-arrival times at `rate_hz`.
class PoissonProcess : public ArrivalProcess {
 public:
  explicit PoissonProcess(double rate_hz) : rate_hz_(rate_hz) {
    if (rate_hz <= 0.0) {
      throw std::invalid_argument("PoissonProcess: rate must be positive");
    }
  }

  sim::SimTime next_arrival(sim::Random& random,
                            sim::SimTime now) const override {
    const double gap_s = random.exponential(1.0 / rate_hz_);
    return now + std::max<sim::SimTime>(sim::duration::seconds(gap_s), 1);
  }

  double mean_rate_hz() const override { return rate_hz_; }

 private:
  double rate_hz_;
};

/// Weighted per-user-class mix over an inner arrival process: arrival
/// *times* come from the inner process; each arrival then draws a
/// class by weight and takes its shape (pairs, fidelity target,
/// pinned endpoint pool).
class ClassMixProcess : public ArrivalProcess {
 public:
  struct Class {
    double weight = 1.0;
    RequestShape shape;
  };

  ClassMixProcess(std::shared_ptr<ArrivalProcess> inner,
                  std::vector<Class> classes);

  sim::SimTime next_arrival(sim::Random& random,
                            sim::SimTime now) const override {
    return inner_->next_arrival(random, now);
  }

  RequestShape sample_shape(sim::Random& random,
                            sim::SimTime now) const override;

  double mean_rate_hz() const override { return inner_->mean_rate_hz(); }

  const std::vector<Class>& classes() const noexcept { return classes_; }

 private:
  std::shared_ptr<ArrivalProcess> inner_;
  std::vector<Class> classes_;
  std::vector<double> weights_;
};

}  // namespace qlink::workload
