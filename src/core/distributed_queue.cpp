#include "core/distributed_queue.hpp"

#include <stdexcept>
#include <utility>

namespace qlink::core {

using net::AbsoluteQueueId;
using net::DqpFrameType;
using net::DqpPacket;
using net::DqpRejectReason;
using net::PacketType;

DistributedQueue::DistributedQueue(sim::Simulator& simulator, std::string name,
                                   const Config& config,
                                   net::ClassicalChannel& link, int endpoint)
    : Entity(simulator, std::move(name)),
      config_(config),
      link_(link),
      endpoint_(endpoint),
      retransmit_timeout_(4 * link_.delay() +
                          sim::duration::microseconds(50)),
      queues_(kNumQueues),
      next_qseq_(kNumQueues, 0) {}

std::size_t DistributedQueue::total_size() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

bool DistributedQueue::queue_full(int j) const {
  return queues_.at(static_cast<std::size_t>(j)).size() >=
         config_.max_items_per_queue;
}

void DistributedQueue::send(const DqpPacket& packet) {
  link_.send_from(endpoint_,
                  net::seal(PacketType::kDqpFrame, packet.encode()));
}

void DistributedQueue::submit(DqpPacket request) {
  if (request.aid.qid >= kNumQueues) {
    throw std::invalid_argument("DistributedQueue::submit: bad queue id");
  }
  request.master_request = config_.is_master;
  if (static_cast<int>(pending_.size()) >= config_.window) {
    backlog_.push_back(std::move(request));
    return;
  }
  dispatch_local(std::move(request));
}

void DistributedQueue::dispatch_local(DqpPacket request) {
  request.comm_seq = next_cseq_++;
  const int j = request.aid.qid;

  if (config_.is_master) {
    if (queue_full(j)) {
      if (on_local_) {
        on_local_(request.create_id, false, EgpError::kRejected, {});
      }
      try_dispatch_backlog();
      return;
    }
    request.aid.qseq = next_qseq_[static_cast<std::size_t>(j)]++;
    insert_item(request, /*confirmed=*/false);
  }

  request.frame_type = DqpFrameType::kAdd;
  pending_[request.comm_seq] = PendingLocal{request, 0, 0};
  send(request);
  arm_retransmit(request.comm_seq);
}

void DistributedQueue::try_dispatch_backlog() {
  while (!backlog_.empty() &&
         static_cast<int>(pending_.size()) < config_.window) {
    DqpPacket next = std::move(backlog_.front());
    backlog_.pop_front();
    dispatch_local(std::move(next));
  }
}

void DistributedQueue::arm_retransmit(std::uint32_t cseq) {
  auto it = pending_.find(cseq);
  if (it == pending_.end()) return;
  it->second.timer =
      schedule_in(retransmit_timeout_, [this, cseq] { on_timeout(cseq); },
                  "dqp.retransmit");
}

void DistributedQueue::on_timeout(std::uint32_t cseq) {
  auto it = pending_.find(cseq);
  if (it == pending_.end()) return;
  PendingLocal& p = it->second;
  if (p.retries >= kMaxRetries) {
    const DqpPacket request = p.request;
    pending_.erase(it);
    if (config_.is_master) remove(request.aid);
    if (on_local_) {
      on_local_(request.create_id, false, EgpError::kNoTime, {});
    }
    try_dispatch_backlog();
    return;
  }
  ++p.retries;
  ++retransmissions_;
  send(p.request);
  arm_retransmit(cseq);
}

void DistributedQueue::insert_item(const DqpPacket& packet, bool confirmed) {
  auto& q = queues_.at(packet.aid.qid);
  q[packet.aid.qseq] = Item{packet, confirmed};
  if (on_insert_) on_insert_();
}

void DistributedQueue::handle_frame(const DqpPacket& packet) {
  switch (packet.frame_type) {
    case DqpFrameType::kAdd:
      handle_add(packet);
      break;
    case DqpFrameType::kAck:
      handle_ack(packet);
      break;
    case DqpFrameType::kRej:
      handle_rej(packet);
      break;
  }
}

void DistributedQueue::handle_add(const DqpPacket& packet) {
  DqpPacket reply = packet;

  if (config_.is_master) {
    // Slave-originated add: assign the queue sequence (idempotently for
    // retransmissions).
    auto seen = seen_remote_.find(packet.comm_seq);
    if (seen != seen_remote_.end()) {
      reply.frame_type = DqpFrameType::kAck;
      reply.aid = seen->second;
      send(reply);
      return;
    }
    const bool accept = (!policy_ || policy_(packet)) &&
                        packet.aid.qid < kNumQueues &&
                        !queue_full(packet.aid.qid);
    if (!accept) {
      reply.frame_type = DqpFrameType::kRej;
      reply.reject_reason = queue_full(packet.aid.qid)
                                ? DqpRejectReason::kQueueFull
                                : DqpRejectReason::kPolicy;
      send(reply);
      return;
    }
    reply.aid.qseq = next_qseq_[packet.aid.qid]++;
    seen_remote_[packet.comm_seq] = reply.aid;
    insert_item(reply, /*confirmed=*/true);
    reply.frame_type = DqpFrameType::kAck;
    send(reply);
    if (on_remote_) on_remote_(reply);
    return;
  }

  // Slave receiving a master-originated add.
  if (find(packet.aid) != nullptr) {
    // Retransmission: just re-ACK.
    reply.frame_type = DqpFrameType::kAck;
    send(reply);
    return;
  }
  const bool accept = (!policy_ || policy_(packet)) &&
                      packet.aid.qid < kNumQueues &&
                      !queue_full(packet.aid.qid);
  if (!accept) {
    reply.frame_type = DqpFrameType::kRej;
    reply.reject_reason = queue_full(packet.aid.qid)
                              ? DqpRejectReason::kQueueFull
                              : DqpRejectReason::kPolicy;
    send(reply);
    return;
  }
  insert_item(packet, /*confirmed=*/true);
  reply.frame_type = DqpFrameType::kAck;
  send(reply);
  if (on_remote_) on_remote_(packet);
}

void DistributedQueue::handle_ack(const DqpPacket& packet) {
  auto it = pending_.find(packet.comm_seq);
  if (it == pending_.end()) return;  // duplicate ACK
  simulator().cancel(it->second.timer);
  const DqpPacket original = it->second.request;
  pending_.erase(it);

  if (config_.is_master) {
    // Item was inserted unconfirmed at submit time.
    if (Item* item = find(original.aid)) item->confirmed = true;
    if (on_local_) {
      on_local_(original.create_id, true, EgpError::kNone, original.aid);
    }
  } else {
    // Learn our assigned qseq from the master's ACK.
    DqpPacket stored = original;
    stored.aid = packet.aid;
    insert_item(stored, /*confirmed=*/true);
    if (on_local_) {
      on_local_(original.create_id, true, EgpError::kNone, packet.aid);
    }
  }
  try_dispatch_backlog();
}

void DistributedQueue::handle_rej(const DqpPacket& packet) {
  auto it = pending_.find(packet.comm_seq);
  if (it == pending_.end()) return;
  simulator().cancel(it->second.timer);
  const DqpPacket original = it->second.request;
  pending_.erase(it);
  if (config_.is_master) remove(original.aid);
  const EgpError err = packet.reject_reason == DqpRejectReason::kPolicy
                           ? EgpError::kDenied
                           : EgpError::kRejected;
  if (on_local_) on_local_(original.create_id, false, err, {});
  try_dispatch_backlog();
}

void DistributedQueue::remove(const AbsoluteQueueId& aid) {
  if (aid.qid >= kNumQueues) return;
  queues_.at(aid.qid).erase(aid.qseq);
}

const DistributedQueue::Item* DistributedQueue::find(
    const AbsoluteQueueId& aid) const {
  if (aid.qid >= kNumQueues) return nullptr;
  const auto& q = queues_.at(aid.qid);
  const auto it = q.find(aid.qseq);
  return it == q.end() ? nullptr : &it->second;
}

DistributedQueue::Item* DistributedQueue::find(const AbsoluteQueueId& aid) {
  return const_cast<Item*>(
      static_cast<const DistributedQueue*>(this)->find(aid));
}

}  // namespace qlink::core
