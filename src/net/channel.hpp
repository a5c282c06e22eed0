#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/entity.hpp"
#include "sim/random.hpp"
#include "sim/sharded_engine.hpp"

/// \file channel.hpp
/// Point-to-point classical channel with fixed propagation delay and
/// Bernoulli frame loss (the 1000BASE-ZX model of Appendix D.6.1: frame
/// errors are modelled at frame granularity, not bit granularity).
///
/// A channel's two endpoints may live on different shards of a
/// sim::ShardedEngine: construct with one EngineRef + Random per end and
/// the channel becomes the explicit shard-crossing seam — a send whose
/// endpoints are on different shards goes through ShardedEngine::post
/// (the propagation delay doubles as the conservative lookahead, and the
/// constructor registers the coupling), while same-shard sends schedule
/// directly, exactly as the single-simulator constructor always has.

namespace qlink::net {

class ClassicalChannel : public sim::Entity {
 public:
  using Handler = std::function<void(std::vector<std::uint8_t>)>;

  ClassicalChannel(sim::Simulator& simulator, std::string name,
                   sim::SimTime delay, sim::Random& random,
                   double loss_probability = 0.0)
      : Entity(simulator, std::move(name)),
        delay_(delay),
        sims_{&simulator, &simulator},
        randoms_{&random, &random},
        loss_probability_(loss_probability) {}

  /// Cross-shard channel: each endpoint is bound to one shard of the
  /// same engine and samples loss from its own end's Random (so an
  /// island's random stream never depends on its peer). When the shards
  /// differ this registers the coupling both ways — the delay must meet
  /// ShardedEngine::kMinLookahead or the engine throws.
  ClassicalChannel(sim::EngineRef end0, sim::Random& random0,
                   sim::EngineRef end1, sim::Random& random1,
                   std::string name, sim::SimTime delay,
                   double loss_probability = 0.0)
      : Entity(end0.sim(), std::move(name)),
        delay_(delay),
        engine_(end0.engine),
        shards_{end0.shard, end1.shard},
        sims_{&end0.sim(), &end1.sim()},
        randoms_{&random0, &random1},
        loss_probability_(loss_probability) {
    if (end1.engine != engine_) {
      throw std::invalid_argument(
          "ClassicalChannel: endpoints bound to different engines");
    }
    if (shards_[0] != shards_[1]) {
      engine_->connect(shards_[0], shards_[1], delay_);
      engine_->connect(shards_[1], shards_[0], delay_);
    }
  }

  /// Register the receiver at endpoint `end` (0 or 1).
  void set_receiver(int end, Handler handler) {
    receivers_.at(static_cast<std::size_t>(end)) = std::move(handler);
  }

  /// Transmit a frame from endpoint `end` to the opposite endpoint.
  void send_from(int end, std::vector<std::uint8_t> frame);

  sim::SimTime delay() const noexcept { return delay_; }
  double loss_probability() const noexcept { return loss_probability_; }
  void set_loss_probability(double p) noexcept { loss_probability_ = p; }

  /// True when the two endpoints live on different shards.
  bool cross_shard() const noexcept {
    return engine_ != nullptr && shards_[0] != shards_[1];
  }

  std::uint64_t frames_sent() const noexcept { return sent_; }
  std::uint64_t frames_delivered() const noexcept { return delivered_; }
  std::uint64_t frames_dropped() const noexcept { return dropped_; }

 private:
  sim::SimTime delay_;
  sim::ShardedEngine* engine_ = nullptr;
  std::array<std::size_t, 2> shards_{0, 0};
  std::array<sim::Simulator*, 2> sims_;
  std::array<sim::Random*, 2> randoms_;
  double loss_probability_;
  std::array<Handler, 2> receivers_{};
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace qlink::net
