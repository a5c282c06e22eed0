#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/distributed_queue.hpp"
#include "core/feu.hpp"
#include "core/qmm.hpp"
#include "core/requests.hpp"
#include "core/scheduler.hpp"
#include "hw/herald_model.hpp"
#include "hw/nv_device.hpp"
#include "hw/nv_params.hpp"
#include "net/channel.hpp"
#include "proto/mhp.hpp"
#include "sim/entity.hpp"

/// \file egp.hpp
/// Entanglement Generation Protocol — the link layer (Protocol 2,
/// Section 5.2). One instance runs at each controllable node; the two
/// instances coordinate exclusively through the distributed queue, the
/// midpoint REPLY stream, and EXPIRE/memory-advertisement messages.

namespace qlink::core {

struct EgpConfig {
  std::uint32_t node_id = 0;
  std::uint32_t peer_node_id = 1;
  bool is_master = false;

  SchedulerConfig scheduler;

  /// Probability of replacing a K-type attempt by a test round (App. B).
  double test_round_probability = 0.0;

  /// Allow M-type attempts in consecutive cycles before the previous
  /// REPLY arrives (Section 5.1.1, "emission multiplexing").
  bool emission_multiplexing = true;

  /// After this many consecutive one-sided midpoint errors for the same
  /// request, expire it locally and notify the peer (recovery from
  /// state divergence, Section 5.2.5).
  int one_sided_error_threshold = 64;

  /// Period of memory advertisements (REQ(E), Fig. 34); 0 disables flow
  /// control (the peer is then assumed to always have room).
  sim::SimTime mem_advert_interval = 0;
};

class Egp : public sim::Entity {
 public:
  using OkFn = std::function<void(const OkMessage&)>;
  using ErrFn = std::function<void(const ErrMessage&)>;

  struct Stats {
    std::uint64_t creates = 0;
    std::uint64_t oks = 0;
    std::uint64_t errors = 0;
    std::uint64_t attempts = 0;
    std::uint64_t successes = 0;
    std::uint64_t test_rounds = 0;
    std::uint64_t expires_sent = 0;
    std::uint64_t expires_received = 0;
    std::uint64_t one_sided_errors = 0;
    std::uint64_t stale_replies = 0;
    std::uint64_t seq_gaps = 0;
    std::uint64_t cancels = 0;
  };

  Egp(sim::Simulator& simulator, std::string name, const EgpConfig& config,
      const hw::ScenarioParams& scenario, hw::NvDevice& device,
      const hw::HeraldModel& model, net::ClassicalChannel& peer_link,
      int peer_endpoint, proto::NodeMhp& mhp);

  /// Higher-layer CREATE (Section 4.1.1). Returns the create id; results
  /// arrive asynchronously through the OK/ERR handlers.
  std::uint32_t create(const CreateRequest& request);

  /// Retract a CREATE this node originated: the request leaves both
  /// nodes' queues (a whole-request EXPIRE retracts the peer's copy)
  /// and no further OKs are generated for it. Pairs already delivered
  /// are unaffected, and no ERR is emitted — the caller decided to
  /// abandon the request. Returns false if the create id is unknown
  /// (already completed, expired, or never ours).
  bool cancel_create(std::uint32_t create_id);

  void set_ok_handler(OkFn fn) { on_ok_ = std::move(fn); }
  void set_err_handler(ErrFn fn) { on_err_ = std::move(fn); }

  /// The higher layer is done with a delivered K-type pair: release the
  /// qubit back to the memory manager.
  void release_delivered(const OkMessage& ok);

  /// Queue policy hook (purpose-id acceptance, Section 4.1.1 item 7).
  void set_queue_policy(DistributedQueue::PolicyFn fn);

  const Stats& stats() const noexcept { return stats_; }
  FidelityEstimationUnit& feu() noexcept { return feu_; }
  const FidelityEstimationUnit& feu() const noexcept { return feu_; }
  QuantumMemoryManager& qmm() noexcept { return qmm_; }
  DistributedQueue& queue() noexcept { return queue_; }
  const DistributedQueue& queue() const noexcept { return queue_; }
  std::uint32_t node_id() const noexcept { return config_.node_id; }
  std::uint32_t expected_seq() const noexcept { return expected_seq_; }

 private:
  struct ActiveRequest {
    net::DqpPacket pkt;
    bool is_origin = false;
    sim::SimTime submit_time = 0;
    std::uint16_t pairs_done = 0;
    double alpha = 0.0;  // cached FEU advice
    int one_sided_streak = 0;
    std::vector<OkMessage> buffered;  // non-consecutive / atomic delivery
  };

  struct PendingExpire {
    net::ExpirePacket pkt;
    int retries = 0;
    sim::EventId timer = 0;
  };

  // MHP wiring (Protocol 1 <-> Protocol 2 boundary).
  proto::PollResponse poll();
  void handle_result(const proto::MhpResult& result);

  // Peer-link demultiplexer.
  void on_peer_frame(std::vector<std::uint8_t> bytes);
  void handle_expire(const net::ExpirePacket& pkt);
  void handle_expire_ack(const net::ExpireAckPacket& pkt);
  void handle_mem_advert(const net::MemAdvertPacket& pkt);

  // DQP callbacks.
  void on_local_queue_result(std::uint32_t create_id, bool ok, EgpError err,
                             net::AbsoluteQueueId aid);
  void on_remote_add(const net::DqpPacket& pkt);

  // Helpers.
  ActiveRequest* find_active(const net::AbsoluteQueueId& aid);
  bool request_is_keep(const net::DqpPacket& pkt) const {
    return !pkt.measure_directly;
  }
  RequestType request_type(const net::DqpPacket& pkt) const {
    return pkt.measure_directly ? RequestType::kCreateMeasure
                                : RequestType::kCreateKeep;
  }
  void process_success(const net::ReplyPacket& reply, ActiveRequest& req);
  void complete_request(const net::AbsoluteQueueId& aid, ActiveRequest& req);
  void expire_request(const net::AbsoluteQueueId& aid, bool notify_peer,
                      bool quiet = false);
  void check_request_timeouts(std::uint64_t cycle);
  void emit_ok(const OkMessage& ok);
  void emit_err(const ErrMessage& err);
  void send_expire(net::ExpirePacket pkt);
  void retransmit_expire(std::uint64_t key);
  void send_mem_advert(bool is_ack);
  bool in_carbon_maintenance(std::uint64_t cycle) const;

  /// Deterministic shared pseudo-randomness (Appendix B's pre-agreed
  /// strings): identical at both nodes for the same request and pair.
  double shared_unit(const net::AbsoluteQueueId& aid, std::uint64_t key,
                     std::uint32_t salt) const;
  quantum::gates::Basis shared_basis(const net::AbsoluteQueueId& aid,
                                     std::uint64_t key) const;
  bool is_test_round(const net::AbsoluteQueueId& aid,
                     std::uint64_t cycle) const;

  EgpConfig config_;
  hw::ScenarioParams scenario_;
  hw::NvDevice& device_;
  net::ClassicalChannel& peer_link_;
  int peer_endpoint_;
  proto::NodeMhp& mhp_;

  QuantumMemoryManager qmm_;
  FidelityEstimationUnit feu_;
  Scheduler scheduler_;
  DistributedQueue queue_;

  std::map<net::AbsoluteQueueId, ActiveRequest> active_;
  std::map<std::uint32_t, std::pair<CreateRequest, sim::SimTime>>
      pending_create_;  // awaiting DQP confirmation, by create id
  std::set<std::uint32_t> cancelled_pending_;  // cancelled before confirm
  std::uint32_t next_create_id_ = 1;

  std::uint32_t expected_seq_ = 1;
  std::uint64_t suspend_until_cycle_ = 0;
  std::set<std::uint64_t> outstanding_m_cycles_;
  std::optional<net::AbsoluteQueueId> outstanding_k_aid_;
  std::uint64_t outstanding_k_cycle_ = 0;

  std::map<std::uint64_t, PendingExpire> pending_expires_;
  std::uint64_t next_expire_key_ = 1;

  int peer_free_memory_ = -1;  // -1 = unknown (assume available)
  int peer_comm_free_ = -1;    // ditto, for unstored (comm-held) pairs
  std::optional<sim::PeriodicTimer> advert_timer_;

  OkFn on_ok_;
  ErrFn on_err_;
  Stats stats_;
};

}  // namespace qlink::core
