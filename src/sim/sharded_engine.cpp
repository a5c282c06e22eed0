#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <thread>

namespace qlink::sim {

// -- ShardAssignment -------------------------------------------------------

ShardAssignment ShardAssignment::single(std::size_t num_nodes) {
  ShardAssignment a;
  a.num_shards = 1;
  a.shard_of.assign(num_nodes, 0);
  return a;
}

ShardAssignment ShardAssignment::blocks(std::size_t num_nodes,
                                        std::size_t num_shards) {
  if (num_shards == 0) {
    throw std::invalid_argument("ShardAssignment::blocks: num_shards == 0");
  }
  if (num_shards > num_nodes) {
    throw std::invalid_argument(
        "ShardAssignment::blocks: more shards than nodes");
  }
  ShardAssignment a;
  a.num_shards = num_shards;
  a.shard_of.resize(num_nodes);
  for (std::size_t n = 0; n < num_nodes; ++n) {
    a.shard_of[n] = static_cast<std::uint32_t>(n * num_shards / num_nodes);
  }
  return a;
}

void ShardAssignment::validate_intra_shard(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) const {
  for (const auto& [a, b] : edges) {
    if (shard(a) != shard(b)) {
      throw std::invalid_argument(
          "ShardAssignment: quantum edge (" + std::to_string(a) + ", " +
          std::to_string(b) +
          ") crosses shards; quantum links must be intra-shard");
    }
  }
}

// -- ShardedEngine ---------------------------------------------------------

ShardedEngine::ShardedEngine(Config config) : config_(config) {
  if (config_.num_shards == 0) {
    throw std::invalid_argument("ShardedEngine: num_shards == 0");
  }
  sims_.reserve(config_.num_shards);
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    sims_.push_back(std::make_unique<Simulator>());
  }
  couplings_.resize(config_.num_shards * config_.num_shards);
  switch (config_.parallel) {
    case Parallel::kOn:
      threads_ = config_.num_shards > 1;
      break;
    case Parallel::kOff:
      threads_ = false;
      break;
    case Parallel::kAuto:
      threads_ =
          config_.num_shards > 1 && std::thread::hardware_concurrency() > 1;
      break;
  }
}

void ShardedEngine::connect(std::size_t from, std::size_t to,
                            SimTime min_delay) {
  if (from >= sims_.size() || to >= sims_.size()) {
    throw std::out_of_range("ShardedEngine::connect: shard out of range");
  }
  if (from == to) {
    throw std::invalid_argument(
        "ShardedEngine::connect: intra-shard coupling is meaningless; "
        "schedule on the shard's own simulator");
  }
  if (min_delay < kMinLookahead) {
    throw std::invalid_argument(
        "ShardedEngine::connect: min_delay below kMinLookahead (" +
        std::to_string(min_delay) + " < " + std::to_string(kMinLookahead) +
        " ns); the coupling is too tight for conservative rounds");
  }
  Coupling& c = coupling(from, to);
  if (c.min_delay == 0 || min_delay < c.min_delay) c.min_delay = min_delay;
}

SimTime ShardedEngine::lookahead(std::size_t from, std::size_t to) const {
  if (from >= sims_.size() || to >= sims_.size() || from == to) return 0;
  return coupling(from, to).min_delay;
}

void ShardedEngine::post(std::size_t from, std::size_t to, SimTime at,
                         std::function<void()> fn, const char* label) {
  if (from >= sims_.size() || to >= sims_.size()) {
    throw std::out_of_range("ShardedEngine::post: shard out of range");
  }
  if (from == to) {
    throw std::invalid_argument(
        "ShardedEngine::post: same-shard post; use sim(shard).schedule_at");
  }
  if (!fn) throw std::invalid_argument("ShardedEngine::post: empty function");
  Coupling& c = coupling(from, to);
  if (c.min_delay == 0) {
    throw std::logic_error(
        "ShardedEngine::post: shards not connected; call connect() first");
  }
  // The lookahead contract: `to` may already have run past our clock by
  // up to min_delay - 1, so anything closer could land in its past.
  if (at < sims_[from]->now() + c.min_delay) {
    throw std::invalid_argument(
        "ShardedEngine::post: time under the lookahead floor");
  }
  ++c.posted;
  c.outbox.push_back(CrossEvent{at, label, std::move(fn)});
}

void ShardedEngine::drain_all() {
  const std::size_t s = sims_.size();
  for (std::size_t from = 0; from < s; ++from) {
    for (std::size_t to = 0; to < s; ++to) {
      std::vector<CrossEvent>& outbox = coupling(from, to).outbox;
      for (CrossEvent& e : outbox) {
        sims_[to]->schedule_at(e.at, std::move(e.fn), e.label);
      }
      stats_.drained += outbox.size();
      outbox.clear();
    }
  }
}

void ShardedEngine::run_until(SimTime t) {
  const std::size_t s = sims_.size();
  if (s == 1) {
    // Pass-through: byte-identical to the pre-sharding engine.
    sims_[0]->run_until(t);
    return;
  }
  drain_all();  // posts made outside a round (setup code)
  std::vector<SimTime> bound(s);
  std::vector<SimTime> next(s);  // each shard's next_event_time this round
  std::vector<std::size_t> work;
  work.reserve(s);
  for (;;) {
    bool all_done = true;
    for (std::size_t i = 0; i < s; ++i) {
      if (sims_[i]->now() < t) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;

    // Conservative bound per shard from the pre-round clocks: nothing
    // can arrive from `from` before clock_from + lookahead.
    for (std::size_t to = 0; to < s; ++to) {
      SimTime b = t;
      for (std::size_t from = 0; from < s; ++from) {
        const SimTime d = coupling(from, to).min_delay;
        if (d != 0) b = std::min(b, sims_[from]->now() + d - 1);
      }
      bound[to] = std::max(b, sims_[to]->now());
      next[to] = sims_[to]->next_event_time();
    }

    // The shards with a runnable event under their bound.
    const auto collect_work = [&] {
      work.clear();
      for (std::size_t i = 0; i < s; ++i) {
        if (next[i] != Simulator::kNoEventTime && next[i] <= bound[i]) {
          work.push_back(i);
        }
      }
    };
    collect_work();
    // If no shard can execute anything under its bound, fast-forward to
    // the globally earliest pending event: handlers are the only source
    // of new events, and none can run before that time.
    if (work.empty()) {
      SimTime target = t;
      for (std::size_t i = 0; i < s; ++i) target = std::min(target, next[i]);
      ++stats_.idle_jumps;
      for (std::size_t i = 0; i < s; ++i) {
        bound[i] = std::max(sims_[i]->now(), target);
      }
      collect_work();
    }

    // Shards share nothing within a round (cross-shard sends buffer in
    // the outboxes), so threaded execution matches sequential execution
    // state-for-state.
    if (threads_ && work.size() > 1) {
      ++stats_.parallel_rounds;
      std::vector<std::thread> threads;
      threads.reserve(work.size());
      for (std::size_t i : work) {
        threads.emplace_back(
            [this, i, b = bound[i]] { sims_[i]->run_until(b); });
      }
      for (std::thread& th : threads) th.join();
    } else {
      for (std::size_t i : work) sims_[i]->run_until(bound[i]);
    }
    // Event-free shards just advance their clocks (no user code runs).
    for (std::size_t i = 0; i < s; ++i) {
      if (sims_[i]->now() < bound[i]) sims_[i]->run_until(bound[i]);
    }

    ++stats_.rounds;
    drain_all();
  }
}

SimTime ShardedEngine::now() const {
  SimTime m = sims_[0]->now();
  for (const auto& sim : sims_) m = std::min(m, sim->now());
  return m;
}

ShardedEngine::Stats ShardedEngine::stats() const {
  Stats out = stats_;
  for (const Coupling& c : couplings_) out.posted += c.posted;
  return out;
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& sim : sims_) total += sim->events_processed();
  return total;
}

std::size_t ShardedEngine::heap_high_water() const {
  std::size_t hw = 0;
  for (const auto& sim : sims_) hw = std::max(hw, sim->heap_high_water());
  return hw;
}

void ShardedEngine::set_telemetry(bool on) {
  for (auto& sim : sims_) sim->set_telemetry(on);
}

std::vector<Simulator::LabelStat> ShardedEngine::label_stats() const {
  std::map<std::string, Simulator::LabelStat> merged;
  for (const auto& sim : sims_) {
    for (const Simulator::LabelStat& stat : sim->label_stats()) {
      Simulator::LabelStat& m = merged[stat.label];
      m.label = stat.label;
      m.count += stat.count;
      m.wall_seconds += stat.wall_seconds;
    }
  }
  std::vector<Simulator::LabelStat> out;
  out.reserve(merged.size());
  for (auto& [label, stat] : merged) out.push_back(std::move(stat));
  return out;
}

}  // namespace qlink::sim
