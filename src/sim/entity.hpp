#pragma once

#include <functional>
#include <string>
#include <utility>

#include "sim/simulator.hpp"

/// \file entity.hpp
/// Base class for simulated components (nodes, channels, stations).
///
/// An entity owns a name for diagnostics and a reference to the engine.
/// It deliberately has no virtual "handle event" interface: closures
/// capture exactly the state an event needs, which keeps protocol code
/// close to the paper's message-sequence diagrams.

namespace qlink::sim {

class Entity {
 public:
  Entity(Simulator& simulator, std::string name)
      : simulator_(simulator), name_(std::move(name)) {}

  virtual ~Entity() = default;

  Entity(const Entity&) = delete;
  Entity& operator=(const Entity&) = delete;

  const std::string& name() const noexcept { return name_; }
  Simulator& simulator() noexcept { return simulator_; }
  SimTime now() const noexcept { return simulator_.now(); }

 protected:
  EventId schedule_in(SimTime delay, std::function<void()> fn,
                      const char* label = nullptr) {
    return simulator_.schedule_in(delay, std::move(fn), label);
  }
  EventId schedule_at(SimTime at, std::function<void()> fn,
                      const char* label = nullptr) {
    return simulator_.schedule_at(at, std::move(fn), label);
  }

 private:
  Simulator& simulator_;
  std::string name_;
};

/// Fires a callback every `period` ns until stopped. Used for periodic
/// maintenance (memory advertisements) and the workload driver's poll;
/// the MHP cycle is a proto::CycleClock shared by every node.
class PeriodicTimer {
 public:
  /// \p label (a string literal, or nullptr) tags every tick for the
  /// simulator's per-label telemetry.
  PeriodicTimer(Simulator& simulator, SimTime period,
                std::function<void()> fn, const char* label = nullptr)
      : simulator_(simulator), period_(period), fn_(std::move(fn)),
        label_(label) {}

  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Start firing; the first tick happens `offset` from now.
  void start(SimTime offset = 0) {
    if (running_) return;
    running_ = true;
    arm(offset);
  }

  void stop() {
    if (!running_) return;
    running_ = false;
    simulator_.cancel(pending_);
  }

  bool running() const noexcept { return running_; }
  SimTime period() const noexcept { return period_; }

 private:
  void arm(SimTime delay) {
    pending_ = simulator_.schedule_in(
        delay,
        [this] {
          if (!running_) return;
          // Re-arm before invoking so the callback may stop() the timer.
          arm(period_);
          fn_();
        },
        label_);
  }

  Simulator& simulator_;
  SimTime period_;
  std::function<void()> fn_;
  const char* label_ = nullptr;
  bool running_ = false;
  EventId pending_ = 0;
};

}  // namespace qlink::sim
