#pragma once

#include <cstdint>
#include <vector>

/// \file spacesaving.hpp
/// Deterministic mergeable Space-Saving top-k sketch (ISSUE 8).
///
/// The per-edge accounting of metrics::EdgeStats is exact at today's
/// topology sizes, but the ROADMAP's next tier (1000+-node Swapped
/// Dragonfly, sharded simulators) needs hot-edge *ranking* that stays
/// O(k) memory regardless of how many edges exist. Space-Saving
/// (Metwally et al.) keeps a fixed number of counters; a key that is
/// not tracked evicts the minimum counter and inherits its count as
/// its error bound. Guarantees preserved here:
///
///   exactness under capacity  while the number of distinct keys ever
///     recorded is <= capacity, every count is exact (error() == 0 for
///     every entry and exact() is true) — the regime today's benches
///     run in, pinned by tests/test_netstate.cpp.
///   determinism  eviction picks the minimum count with ties broken by
///     the smallest key; top() orders by (count desc, key asc). No
///     randomness, no pointer ordering — two same-input sketches are
///     byte-identical, on any platform.
///   mergeability  merge() sums counts (and error bounds) key-wise and
///     truncates back to capacity by the same deterministic order (the
///     mergeable-summaries construction, commutative in the
///     under-capacity regime — the Scalable Commutativity Rule
///     discipline the sharded collectors follow). merge of shards that
///     jointly fit capacity equals the single-run sketch exactly.

namespace qlink::metrics {

class SpaceSaving {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;
    /// Overestimation bound: true count of `key` is in
    /// [count - error, count]. 0 while the sketch has never evicted.
    std::uint64_t error = 0;
  };

  explicit SpaceSaving(std::size_t capacity);

  /// O(capacity): one linear scan of the flat slot array for `key`,
  /// plus a second scan for the minimum counter, which an untracked key
  /// evicts once the sketch is full. No allocation after the sketch
  /// first fills.
  void add(std::uint64_t key, std::uint64_t weight = 1);

  /// The tracked entries ranked by (count desc, key asc), at most
  /// min(k, size()) of them.
  std::vector<Entry> top(std::size_t k) const;

  /// Count bound for one key: its tracked count, or the minimum
  /// tracked count when untracked (every untracked key's true count is
  /// <= the sketch minimum); 0 when empty.
  std::uint64_t count_bound(std::uint64_t key) const;

  /// Key-wise count/error sums, truncated back to capacity by the
  /// deterministic (count desc, key asc) order. Exact — and equal to
  /// the single-run sketch — whenever the union of tracked keys fits
  /// capacity.
  void merge(const SpaceSaving& other);

  std::size_t size() const noexcept { return slots_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Total weight recorded (add + merge), independent of evictions.
  std::uint64_t total_weight() const noexcept { return total_weight_; }
  /// True while no eviction has happened: every count is exact.
  bool exact() const noexcept { return evictions_ == 0; }
  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  /// The slot tracking `key`, or null.
  Entry* find(std::uint64_t key);
  /// Index of the slot with the minimum count (ties: smallest key).
  std::size_t min_slot() const;
  void truncate_to_capacity();

  std::size_t capacity_;
  /// One slot per tracked key. Slot order is internal: every output
  /// sorts or takes a minimum by (count, key), so it never shows.
  std::vector<Entry> slots_;
  std::uint64_t total_weight_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace qlink::metrics
