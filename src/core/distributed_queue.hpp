#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/requests.hpp"
#include "net/channel.hpp"
#include "net/packets.hpp"
#include "sim/entity.hpp"

/// \file distributed_queue.hpp
/// Distributed Queue Protocol (Appendix E.1).
///
/// Both nodes hold local copies of L priority queues that the DQP keeps
/// synchronised with a two-way handshake: ADD -> ACK/REJ, with
/// retransmission on loss and a windowing mechanism for fairness. One
/// node is the *master* and owns queue-sequence assignment; the *slave*
/// proposes additions and learns its (QID, QSEQ) from the master's ACK.
/// An item is servable once the local node knows the peer also has it
/// (master: on ACK; slave: on ADD/ACK receipt) and its min_time
/// (schedule_cycle) has passed.

namespace qlink::core {

class DistributedQueue : public sim::Entity {
 public:
  /// One queue per request priority (NL, CK, MD).
  static constexpr int kNumQueues = 3;
  /// ADD retransmissions before a local add fails with NOTIME.
  static constexpr int kMaxRetries = 10;

  struct Config {
    bool is_master = false;
    std::size_t max_items_per_queue = 256;
    int window = 32;  // outstanding un-ACKed local adds
  };

  /// Result of a local submit: the assigned id on success.
  using LocalResultFn = std::function<void(
      std::uint32_t create_id, bool ok, EgpError error,
      net::AbsoluteQueueId aid)>;
  /// Invoked when an item originated by the peer becomes known locally.
  using RemoteAddFn = std::function<void(const net::DqpPacket&)>;
  /// Queue rules: return false to reject (DENIED) based on purpose id
  /// etc. (Section 4.1.1 item 7).
  using PolicyFn = std::function<bool(const net::DqpPacket&)>;

  struct Item {
    net::DqpPacket request;
    bool confirmed = false;  // peer known to hold the item
  };

  DistributedQueue(sim::Simulator& simulator, std::string name,
                   const Config& config, net::ClassicalChannel& link,
                   int endpoint);

  void set_local_result_handler(LocalResultFn fn) { on_local_ = std::move(fn); }
  void set_remote_add_handler(RemoteAddFn fn) { on_remote_ = std::move(fn); }
  void set_policy(PolicyFn fn) { policy_ = std::move(fn); }
  /// Called whenever an item enters a queue (the EGP wakes its MHP).
  void set_insert_handler(std::function<void()> fn) {
    on_insert_ = std::move(fn);
  }

  /// Submit a local CREATE for distribution. The packet's qid must be
  /// set; qseq is assigned by the master. Completion is reported through
  /// the local-result handler.
  void submit(net::DqpPacket request);

  /// Feed an incoming DQP frame (the EGP demultiplexes the peer link).
  void handle_frame(const net::DqpPacket& packet);

  /// Remove an item (request completed / timed out); both nodes call
  /// this from the same deterministic condition.
  void remove(const net::AbsoluteQueueId& aid);

  const Item* find(const net::AbsoluteQueueId& aid) const;
  Item* find(const net::AbsoluteQueueId& aid);

  /// Ordered view of one queue (by qseq).
  const std::map<std::uint32_t, Item>& queue(int j) const {
    return queues_.at(static_cast<std::size_t>(j));
  }
  int num_queues() const { return static_cast<int>(queues_.size()); }
  std::size_t size(int j) const {
    return queues_.at(static_cast<std::size_t>(j)).size();
  }
  std::size_t total_size() const;
  std::size_t backlog_size() const { return backlog_.size(); }

  std::uint64_t retransmissions() const noexcept { return retransmissions_; }

 private:
  struct PendingLocal {
    net::DqpPacket request;
    int retries = 0;
    sim::EventId timer = 0;
  };

  void send(const net::DqpPacket& packet);
  void try_dispatch_backlog();
  void dispatch_local(net::DqpPacket request);
  void arm_retransmit(std::uint32_t cseq);
  void on_timeout(std::uint32_t cseq);
  void handle_add(const net::DqpPacket& packet);
  void handle_ack(const net::DqpPacket& packet);
  void handle_rej(const net::DqpPacket& packet);
  void insert_item(const net::DqpPacket& packet, bool confirmed);
  bool queue_full(int j) const;

  Config config_;
  net::ClassicalChannel& link_;
  int endpoint_;
  /// 4x the channel delay plus one cycle.
  sim::SimTime retransmit_timeout_;

  std::vector<std::map<std::uint32_t, Item>> queues_;
  std::deque<net::DqpPacket> backlog_;  // window overflow
  std::map<std::uint32_t, PendingLocal> pending_;  // by cseq
  std::uint32_t next_cseq_ = 1;
  std::vector<std::uint32_t> next_qseq_;  // master only, per queue

  // Master-side idempotency: remote cseq -> assigned aid.
  std::map<std::uint32_t, net::AbsoluteQueueId> seen_remote_;

  LocalResultFn on_local_;
  RemoteAddFn on_remote_;
  PolicyFn policy_;
  std::function<void()> on_insert_;

  std::uint64_t retransmissions_ = 0;
};

}  // namespace qlink::core
