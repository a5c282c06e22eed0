#include "net/channel.hpp"

#include <array>
#include <stdexcept>
#include <utility>

namespace qlink::net {

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
  const sim::SimTime at = sims_[src]->now() + delay_;
  auto deliver = [this, dest, data = std::move(frame)]() mutable {
    Handler& h = receivers_[dest];
    if (!h) return;  // unconnected endpoint: frame silently discarded
    ++delivered_;
    h(std::move(data));
  };
  if (engine_ != nullptr && shards_[src] != shards_[dest]) {
    engine_->post(shards_[src], shards_[dest], at, std::move(deliver),
                  "net.channel");
  } else {
    sims_[dest]->schedule_at(at, std::move(deliver), "net.channel");
  }
}

}  // namespace qlink::net
