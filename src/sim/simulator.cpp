#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

namespace qlink::sim {

EventId Simulator::schedule_at(SimTime at, std::function<void()> fn,
                               const char* label) {
  if (at < now_) throw std::invalid_argument("schedule_at: time in the past");
  if (!fn) throw std::invalid_argument("schedule_at: empty function");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.label = label;
  heap_.push_back(Scheduled{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  if (heap_.size() > heap_high_water_) heap_high_water_ = heap_.size();
  return (static_cast<EventId>(s.generation) << 32) | slot;
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  // A stale generation means the event fired (or was cancelled and
  // popped) and the slot may already carry another event.
  if (s.generation != generation || !s.fn) return false;
  s.fn = nullptr;  // the heap entry stays until it surfaces
  --live_;
  return true;
}

Simulator::Scheduled Simulator::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Scheduled top = heap_.back();
  heap_.pop_back();
  Slot& s = slots_[top.slot];
  if (++s.generation == 0) s.generation = 1;  // 0 never names an event
  free_slots_.push_back(top.slot);
  return top;
}

void Simulator::prune_cancelled_top() {
  while (!heap_.empty() && !slots_[heap_.front().slot].fn) pop_top();
}

SimTime Simulator::next_event_time() {
  prune_cancelled_top();
  return heap_.empty() ? kNoEventTime : heap_.front().time;
}

bool Simulator::step() {
  prune_cancelled_top();
  if (heap_.empty()) return false;
  const Scheduled top = pop_top();
  Slot& slot = slots_[top.slot];
  // Move the closure out: the handler may schedule into this very slot.
  const std::function<void()> fn = std::exchange(slot.fn, nullptr);
  const char* label = slot.label;
  --live_;
  now_ = top.time;
  ++processed_;
  if (telemetry_ || profiler_) {
    LabelTally& tally = tallies_[label];
    ++tally.count;
    if (profiler_) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      tally.wall_seconds += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
      return true;
    }
  }
  fn();
  return true;
}

void Simulator::run_until(SimTime t) {
  while (next_event_time() <= t && step()) {
  }
  if (now_ < t) now_ = t;
}

void Simulator::run_all() {
  while (step()) {
  }
}

std::vector<Simulator::LabelStat> Simulator::label_stats() const {
  // Merge by label *text*: one label literal can have several pointer
  // identities across translation units.
  std::map<std::string, LabelTally> merged;
  for (const auto& [label, tally] : tallies_) {
    LabelTally& m = merged[label == nullptr ? "(unlabeled)" : label];
    m.count += tally.count;
    m.wall_seconds += tally.wall_seconds;
  }
  std::vector<LabelStat> out;
  out.reserve(merged.size());
  for (auto& [label, tally] : merged) {
    out.push_back(LabelStat{label, tally.count, tally.wall_seconds});
  }
  return out;
}

std::vector<Simulator::LabelStat> Simulator::hottest(std::size_t k) const {
  std::vector<LabelStat> all = label_stats();
  std::sort(all.begin(), all.end(),
            [](const LabelStat& a, const LabelStat& b) {
              if (a.wall_seconds != b.wall_seconds) {
                return a.wall_seconds > b.wall_seconds;
              }
              if (a.count != b.count) return a.count > b.count;
              return a.label < b.label;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace qlink::sim
