#include "net/channel.hpp"

#include <array>
#include <stdexcept>
#include <utility>

namespace qlink::net {

sim::SimTime ClassicalChannel::checked_delay(sim::SimTime delay) {
  if (delay < 0) {
    throw std::invalid_argument("ClassicalChannel: negative delay");
  }
  return delay;
}

double ClassicalChannel::checked_loss(double p) {
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails both comparisons
    throw std::invalid_argument(
        "ClassicalChannel: loss probability outside [0, 1]");
  }
  return p;
}

void ClassicalChannel::send_from(int end, std::vector<std::uint8_t> frame) {
  if (end != 0 && end != 1) {
    throw std::invalid_argument("ClassicalChannel: endpoint must be 0 or 1");
  }
  const auto src = static_cast<std::size_t>(end);
  const auto dest = static_cast<std::size_t>(1 - end);
  ++sent_;
  if (randoms_[src]->bernoulli(loss_probability_)) {
    ++dropped_;
    return;
  }
  sims_[dest]->schedule_at(
      sims_[src]->now() + delay_,
      [this, dest, data = std::move(frame)]() mutable {
        Handler& h = receivers_[dest];
        if (!h) return;  // unconnected endpoint: frame silently discarded
        ++delivered_;
        h(std::move(data));
      },
      "net.channel");
}

}  // namespace qlink::net
