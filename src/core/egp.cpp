#include "core/egp.hpp"

#include <algorithm>

#include "quantum/gates.hpp"

namespace qlink::core {

using net::AbsoluteQueueId;
using net::DqpPacket;
using net::ExpireAckPacket;
using net::ExpirePacket;
using net::MemAdvertPacket;
using net::MhpError;
using net::PacketType;
using net::ReplyPacket;
using quantum::gates::Basis;

namespace {

/// Shared seed for the pre-agreed random strings of Appendix B (basis
/// choices and test positions); the same at both nodes.
constexpr std::uint64_t kSharedSeed = 0x51ab1e5eedULL;
/// EXPIRE retransmission period and retry budget.
constexpr sim::SimTime kExpireRetransmit = sim::duration::milliseconds(1);
constexpr int kExpireMaxRetries = 10;

/// splitmix64: deterministic hash used for the pre-agreed random strings.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

Egp::Egp(sim::Simulator& simulator, std::string name, const EgpConfig& config,
         const hw::ScenarioParams& scenario, hw::NvDevice& device,
         const hw::HeraldModel& model, net::ClassicalChannel& peer_link,
         int peer_endpoint, proto::NodeMhp& mhp)
    : Entity(simulator, std::move(name)),
      config_(config),
      scenario_(scenario),
      device_(device),
      peer_link_(peer_link),
      peer_endpoint_(peer_endpoint),
      mhp_(mhp),
      qmm_(device),
      feu_(model, scenario),
      scheduler_(config.scheduler),
      queue_(simulator, this->name() + "/dqp",
             DistributedQueue::Config{.is_master = config.is_master},
             peer_link, peer_endpoint) {
  peer_link_.set_receiver(peer_endpoint_, [this](std::vector<std::uint8_t> b) {
    on_peer_frame(std::move(b));
  });
  queue_.set_local_result_handler(
      [this](std::uint32_t cid, bool ok, EgpError err, AbsoluteQueueId aid) {
        on_local_queue_result(cid, ok, err, aid);
      });
  queue_.set_remote_add_handler(
      [this](const DqpPacket& pkt) { on_remote_add(pkt); });
  queue_.set_insert_handler([this] { mhp_.wake(); });

  mhp_.set_poll_handler([this] { return poll(); });
  mhp_.set_result_handler(
      [this](const proto::MhpResult& r) { handle_result(r); });

  if (config_.mem_advert_interval > 0) {
    advert_timer_.emplace(simulator, config_.mem_advert_interval,
                          [this] { send_mem_advert(false); });
    advert_timer_->start(config_.mem_advert_interval);
  }
}

void Egp::set_queue_policy(DistributedQueue::PolicyFn fn) {
  queue_.set_policy(std::move(fn));
}

// ---------------------------------------------------------------------------
// CREATE path

std::uint32_t Egp::create(const CreateRequest& request) {
  const std::uint32_t create_id = next_create_id_++;
  ++stats_.creates;

  const RequestType type = request.type;
  const auto advice = feu_.advise(request.min_fidelity, type);
  if (!advice.feasible) {
    schedule_in(0, [this, create_id] {
      emit_err({create_id, EgpError::kUnsupported, config_.node_id, 0, 0});
    }, "egp.reject");
    return create_id;
  }
  if (request.max_time > 0 &&
      advice.expected_time_per_pair *
              static_cast<sim::SimTime>(request.num_pairs) >
          request.max_time) {
    schedule_in(0, [this, create_id] {
      emit_err({create_id, EgpError::kUnsupported, config_.node_id, 0, 0});
    }, "egp.reject");
    return create_id;
  }
  if (request.atomic && type == RequestType::kCreateKeep &&
      request.num_pairs > qmm_.total_memory_slots()) {
    schedule_in(0, [this, create_id] {
      emit_err({create_id, EgpError::kMemExceeded, config_.node_id, 0, 0});
    }, "egp.reject");
    return create_id;
  }

  DqpPacket pkt;
  pkt.aid.qid = static_cast<std::uint8_t>(
      scheduler_.queue_for(request.priority));
  pkt.min_fidelity = request.min_fidelity;
  pkt.purpose_id = request.purpose_id;
  pkt.create_id = create_id;
  pkt.num_pairs = request.num_pairs;
  pkt.priority = static_cast<std::uint8_t>(request.priority);
  pkt.store = request.store_in_memory;
  pkt.atomic = request.atomic;
  pkt.measure_directly = type == RequestType::kCreateMeasure;
  pkt.consecutive = request.consecutive;
  pkt.est_cycles_per_pair = advice.est_cycles_per_pair;
  pkt.origin_node = config_.node_id;
  pkt.create_time_ns = now();
  pkt.max_time_ns = request.max_time;

  // min_time: both nodes must hold the item before either may start
  // (Section 5.2.1); one round trip plus slack covers the handshake.
  const std::uint64_t cycle = mhp_.current_cycle();
  const auto handshake = static_cast<std::uint64_t>(
      (4 * peer_link_.delay()) / scenario_.mhp_cycle + 2);
  pkt.schedule_cycle = cycle + handshake;
  if (request.max_time > 0) {
    pkt.timeout_cycle =
        cycle + static_cast<std::uint64_t>(request.max_time /
                                           scenario_.mhp_cycle) +
        1;
  }
  pkt.init_virtual_finish = scheduler_.assign_virtual_finish(pkt, cycle);

  pending_create_[create_id] = {request, now()};
  queue_.submit(pkt);
  return create_id;
}

bool Egp::cancel_create(std::uint32_t create_id) {
  // Still awaiting DQP confirmation: remember the id so the
  // confirmation callback retracts it from both queues.
  if (pending_create_.erase(create_id) > 0) {
    cancelled_pending_.insert(create_id);
    ++stats_.cancels;
    return true;
  }
  // Active request we originated: quiet whole-request expiry (the
  // peer's queue copy is retracted by the EXPIRE; no ERR is emitted —
  // the higher layer chose to abandon the request).
  std::optional<AbsoluteQueueId> found;
  for (const auto& [aid, req] : active_) {
    if (req.is_origin && req.pkt.create_id == create_id) {
      found = aid;
      break;
    }
  }
  if (!found) return false;
  ++stats_.cancels;
  expire_request(*found, /*notify_peer=*/true, /*quiet=*/true);
  return true;
}

void Egp::on_local_queue_result(std::uint32_t create_id, bool ok,
                                EgpError err, AbsoluteQueueId aid) {
  if (cancelled_pending_.erase(create_id) > 0) {
    if (ok) {
      // The CREATE was retracted between submission and confirmation:
      // pull it back out of the local queue and tell the peer.
      queue_.remove(aid);
      ExpirePacket exp;
      exp.aid = aid;
      exp.origin_id = config_.node_id;
      exp.create_id = create_id;
      exp.seq_low = 0;
      exp.seq_high = 0;  // whole-request expiry
      exp.new_expected_seq = expected_seq_;
      send_expire(exp);
    }
    return;
  }
  auto it = pending_create_.find(create_id);
  if (it == pending_create_.end()) return;
  const sim::SimTime submit_time = it->second.second;
  pending_create_.erase(it);

  if (!ok) {
    emit_err({create_id, err, config_.node_id, 0, 0});
    return;
  }
  const DistributedQueue::Item* item = queue_.find(aid);
  if (item == nullptr) return;  // raced with removal
  ActiveRequest req;
  req.pkt = item->request;
  req.is_origin = true;
  req.submit_time = submit_time;
  active_[aid] = std::move(req);
}

void Egp::on_remote_add(const DqpPacket& pkt) {
  ActiveRequest req;
  req.pkt = pkt;
  req.is_origin = false;
  req.submit_time = now();
  active_[pkt.aid] = std::move(req);
}

// ---------------------------------------------------------------------------
// Shared pseudo-randomness (Appendix B)

double Egp::shared_unit(const AbsoluteQueueId& aid, std::uint64_t key,
                        std::uint32_t salt) const {
  std::uint64_t h = kSharedSeed;
  h = mix64(h ^ aid.qid);
  h = mix64(h ^ aid.qseq);
  h = mix64(h ^ key);
  h = mix64(h ^ salt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Basis Egp::shared_basis(const AbsoluteQueueId& aid, std::uint64_t key) const {
  const double u = shared_unit(aid, key, 2);
  if (u < 1.0 / 3.0) return Basis::kX;
  if (u < 2.0 / 3.0) return Basis::kY;
  return Basis::kZ;
}

bool Egp::is_test_round(const AbsoluteQueueId& aid,
                        std::uint64_t cycle) const {
  // Keyed on the (globally agreed) MHP cycle so that the decision varies
  // per attempt; keying on the pair index would freeze a request on a
  // test round forever, since test rounds do not advance the pair count.
  if (config_.test_round_probability <= 0.0) return false;
  return shared_unit(aid, cycle, 1) < config_.test_round_probability;
}

bool Egp::in_carbon_maintenance(std::uint64_t cycle) const {
  // Carbon re-initialisation happens in globally agreed windows so both
  // nodes pause K-type generation together (Appendix D.3.3).
  const auto interval = static_cast<std::uint64_t>(
      scenario_.nv.carbon_refresh_interval / scenario_.mhp_cycle);
  const auto busy = static_cast<std::uint64_t>(
      scenario_.nv.carbon_refresh_duration / scenario_.mhp_cycle);
  if (interval == 0) return false;
  return cycle % interval < busy;
}

// ---------------------------------------------------------------------------
// MHP poll (Protocol 2, step 2)

proto::PollResponse Egp::poll() {
  proto::PollResponse no;
  const std::uint64_t cycle = mhp_.current_cycle();

  check_request_timeouts(cycle);
  // Nothing queued and no K attempt in flight: every poll answers "no"
  // with no side effect until the queue takes an item, which wakes the
  // MHP (see the DQP insert handler in the constructor).
  if (queue_.total_size() == 0 && !outstanding_k_aid_) {
    no.idle = true;
    return no;
  }
  if (suspend_until_cycle_ > cycle) return no;

  // While a K-type attempt is in flight the communication qubit may hold
  // half of a heralded pair; no other attempt may reset it. If the REPLY
  // never arrives (lost frame), give up after several round trips.
  if (outstanding_k_aid_) {
    if (cycle >
        outstanding_k_cycle_ + 4 * feu_.k_attempt_period_cycles() + 64) {
      device_.registry().reset(device_.comm_qubit());
      outstanding_k_aid_.reset();
    } else {
      return no;
    }
  }

  const auto ready = [&](const DistributedQueue::Item& item) {
    if (!item.confirmed) return false;
    if (item.request.schedule_cycle > cycle) return false;
    if (item.request.timeout_cycle != 0 &&
        item.request.timeout_cycle <= cycle) {
      return false;
    }
    return active_.count(item.request.aid) > 0;
  };
  const auto selected = scheduler_.next(queue_, cycle, ready);
  if (!selected) return no;

  ActiveRequest* req = find_active(*selected);
  if (req == nullptr) return no;
  const bool keep = request_is_keep(req->pkt);
  const std::uint32_t pair = req->pairs_done;
  const bool test = keep && is_test_round(*selected, cycle);

  if (keep && !test) {
    // K-type attempts run on a globally anchored cycle grid (every
    // k_attempt_period cycles): both nodes derive the same grid from the
    // shared clock, so transient one-sided blockings (memory, busy
    // device) re-synchronise at the next grid point instead of drifting.
    if (cycle % feu_.k_attempt_period_cycles() != 0) return no;
    if (req->pkt.store && in_carbon_maintenance(cycle)) return no;
    if (req->pkt.store && qmm_.free_memory_slots() == 0) return no;
    if (req->pkt.store && peer_free_memory_ == 0) return no;
    if (!req->pkt.store && !qmm_.comm_free()) return no;
    if (!req->pkt.store && peer_comm_free_ == 0) return no;
  } else if (!config_.emission_multiplexing) {
    // Without emission multiplexing M-type attempts block on the REPLY
    // round trip; run them on the same globally anchored grid as K-type
    // attempts so both nodes stay aligned.
    if (cycle % feu_.k_attempt_period_cycles() != 0) return no;
    if (!outstanding_m_cycles_.empty()) return no;
  }

  if (req->alpha <= 0.0) {
    // Re-query the FEU at service time (hardware parameters may have
    // drifted while the request sat in the queue).
    const auto advice =
        feu_.advise(req->pkt.min_fidelity, request_type(req->pkt));
    if (!advice.feasible) return no;
    req->alpha = advice.alpha;
  }

  proto::PollResponse resp;
  resp.attempt = true;
  resp.aid = *selected;
  resp.pair_index = static_cast<std::uint16_t>(pair);
  resp.measure_directly = !keep || test;
  // M-type pairs get one pre-agreed random basis per pair; test rounds
  // draw theirs per cycle (Appendix B's random strings).
  resp.basis = test ? shared_basis(*selected, cycle) : shared_basis(*selected, pair);
  resp.alpha = req->alpha;

  if (keep && !test) {
    outstanding_k_aid_ = *selected;
    outstanding_k_cycle_ = cycle;
  } else {
    outstanding_m_cycles_.insert(cycle);
    // Bound the set: entries older than 4 round trips are lost replies.
    const std::uint64_t horizon = 4 * feu_.k_attempt_period_cycles() + 64;
    while (!outstanding_m_cycles_.empty() &&
           *outstanding_m_cycles_.begin() + horizon < cycle) {
      outstanding_m_cycles_.erase(outstanding_m_cycles_.begin());
    }
  }
  ++stats_.attempts;
  if (test) ++stats_.test_rounds;
  return resp;
}

// ---------------------------------------------------------------------------
// REPLY handling (Protocol 2, step 3)

Egp::ActiveRequest* Egp::find_active(const AbsoluteQueueId& aid) {
  auto it = active_.find(aid);
  return it == active_.end() ? nullptr : &it->second;
}

void Egp::handle_result(const proto::MhpResult& result) {
  const ReplyPacket& reply = result.reply;
  [[maybe_unused]] const std::uint64_t cycle = mhp_.current_cycle();

  if (reply.error != MhpError::kNone) {
    ++stats_.one_sided_errors;
    if (outstanding_k_aid_ && reply.aid_receiver == *outstanding_k_aid_) {
      outstanding_k_aid_.reset();
    }
    outstanding_m_cycles_.erase(reply.cycle);
    if (ActiveRequest* req = find_active(reply.aid_receiver)) {
      if (++req->one_sided_streak >= config_.one_sided_error_threshold) {
        expire_request(reply.aid_receiver, /*notify_peer=*/true);
      }
    }
    return;
  }

  if (reply.outcome == 0) {
    // Plain failure: free the attempt slot immediately.
    outstanding_m_cycles_.erase(reply.cycle);
    if (outstanding_k_aid_ && reply.aid_receiver == *outstanding_k_aid_) {
      outstanding_k_aid_.reset();
    }
    return;
  }

  // Success REPLY: sequence-number bookkeeping first.
  const std::uint32_t seq = reply.seq_mhp;
  if (seq < expected_seq_) {
    ++stats_.stale_replies;
    return;
  }
  if (seq > expected_seq_) {
    // We missed REPLYs (lost frames): pairs [expected, seq) may have been
    // OK'd by the peer; revoke them (Protocol 2, 3(c)iii A).
    ++stats_.seq_gaps;
    ExpirePacket exp;
    exp.aid = reply.aid_receiver;
    exp.origin_id = config_.node_id;
    exp.seq_low = expected_seq_;
    exp.seq_high = seq;
    exp.new_expected_seq = seq + 1;
    send_expire(exp);
    emit_err({0, EgpError::kExpired, config_.node_id, expected_seq_, seq});
  }
  expected_seq_ = seq + 1;
  outstanding_m_cycles_.erase(reply.cycle);

  ActiveRequest* req = find_active(reply.aid_receiver);
  if (req == nullptr) {
    // The request is gone locally (timed out / completed): if this was
    // our outstanding K attempt, the freshly installed pair half sits in
    // the communication qubit; drop it.
    if (outstanding_k_aid_ && reply.aid_receiver == *outstanding_k_aid_) {
      device_.registry().reset(device_.comm_qubit());
      outstanding_k_aid_.reset();
    }
    return;
  }
  req->one_sided_streak = 0;
  process_success(reply, *req);
}

void Egp::process_success(const ReplyPacket& reply, ActiveRequest& req) {
  const AbsoluteQueueId aid = reply.aid_receiver;
  const std::uint64_t cycle = mhp_.current_cycle();
  const bool keep = request_is_keep(req.pkt);
  const bool test = keep && is_test_round(aid, reply.cycle);
  ++stats_.successes;

  if (test) {
    if (reply.m_outcome != 0xFF && reply.m_outcome_peer != 0xFF) {
      feu_.record_test_round(static_cast<Basis>(reply.m_basis),
                             reply.m_outcome, reply.m_outcome_peer,
                             reply.outcome);
    }
    return;
  }
  // Pair-count resynchronisation (Section 5.2.5): after a lost success
  // REPLY the peer's pair index runs ahead of ours; the pairs we missed
  // were revoked by the EXPIRE sent in the sequence-gap branch above, so
  // skip to the shared frontier and deliver the present success there.
  const std::uint16_t frontier =
      std::max(reply.pair_index, reply.pair_index_peer);
  if (frontier < req.pairs_done) {
    return;  // stale duplicate for a pair we already counted
  }
  if (frontier > req.pairs_done) {
    req.pairs_done = std::min<std::uint16_t>(frontier, req.pkt.num_pairs);
    if (req.pairs_done >= req.pkt.num_pairs) {
      complete_request(aid, req);
      return;
    }
  }

  OkMessage ok;
  ok.create_id = req.pkt.create_id;
  ok.ent_id = {std::min(config_.node_id, config_.peer_node_id),
               std::max(config_.node_id, config_.peer_node_id),
               reply.seq_mhp};
  ok.purpose_id = req.pkt.purpose_id;
  ok.origin_node = req.pkt.origin_node;
  ok.pair_index = req.pairs_done;
  ok.total_pairs = req.pkt.num_pairs;
  ok.create_time = now();

  if (keep) {
    // The midpoint installed the heralded state into the communication
    // qubits. Convert |Psi-> to |Psi+> with a local Z at the origin
    // (Eq. 13); the peer briefly suspends generation (Protocol 2 3(c)iv).
    if (reply.outcome == 2) {
      if (req.pkt.origin_node == config_.node_id) {
        device_.apply_electron_gate(quantum::gates::z());
      } else {
        suspend_until_cycle_ = cycle + 1;
      }
    }
    device_.set_live(device_.comm_qubit(), true);

    if (req.pkt.store) {
      const auto slot = qmm_.reserve_memory();
      if (!slot) {
        // OUTOFMEM: no storage left; the pair cannot be kept.
        device_.registry().reset(device_.comm_qubit());
        emit_err({req.pkt.create_id, EgpError::kOutOfMemory,
                  req.pkt.origin_node, 0, 0});
        outstanding_k_aid_.reset();
        return;
      }
      device_.move_comm_to_memory(*slot);
      ok.qubit = device_.memory_qubit(*slot);
      ok.logical_qubit_id = *slot;
    } else {
      qmm_.reserve_comm();
      ok.qubit = device_.comm_qubit();
      ok.logical_qubit_id = -1;
    }
    outstanding_k_aid_.reset();
  } else {
    ok.is_measure_directly = true;
    ok.outcome = reply.m_outcome == 0xFF ? -1 : reply.m_outcome;
    ok.basis = static_cast<Basis>(reply.m_basis);
    ok.heralded_state = reply.outcome;
  }

  ok.goodness = feu_.goodness(req.alpha, request_type(req.pkt));
  ok.goodness_time = now();

  ++req.pairs_done;
  const bool done = req.pairs_done >= req.pkt.num_pairs;
  const bool immediate = req.pkt.consecutive && !req.pkt.atomic;
  if (immediate) {
    emit_ok(ok);
  } else {
    req.buffered.push_back(ok);
  }
  if (done) complete_request(aid, req);
}

void Egp::complete_request(const AbsoluteQueueId& aid, ActiveRequest& req) {
  for (const OkMessage& ok : req.buffered) emit_ok(ok);
  queue_.remove(aid);
  active_.erase(aid);
}

// ---------------------------------------------------------------------------
// Expiry & timeouts

void Egp::check_request_timeouts(std::uint64_t cycle) {
  // Cheap scan: with <= 3 queues and heads checked every cycle, timed-out
  // items are reaped promptly; a full sweep runs periodically.
  std::vector<AbsoluteQueueId> expired;
  for (int j = 0; j < queue_.num_queues(); ++j) {
    for (const auto& [qseq, item] : queue_.queue(j)) {
      if (item.request.timeout_cycle != 0 &&
          item.request.timeout_cycle <= cycle) {
        expired.push_back(item.request.aid);
      }
      break;  // heads only; the periodic sweep handles the rest
    }
  }
  if (cycle % 1024 == 0) {
    for (int j = 0; j < queue_.num_queues(); ++j) {
      for (const auto& [qseq, item] : queue_.queue(j)) {
        if (item.request.timeout_cycle != 0 &&
            item.request.timeout_cycle <= cycle) {
          expired.push_back(item.request.aid);
        }
      }
    }
  }
  for (const auto& aid : expired) {
    ActiveRequest* req = find_active(aid);
    if (req != nullptr && req->is_origin) {
      emit_err({req->pkt.create_id, EgpError::kTimeout, config_.node_id, 0,
                0});
    }
    queue_.remove(aid);
    active_.erase(aid);
  }
}

void Egp::expire_request(const AbsoluteQueueId& aid, bool notify_peer,
                         bool quiet) {
  ActiveRequest* req = find_active(aid);
  if (req == nullptr) return;
  if (!quiet) {
    emit_err(
        {req->pkt.create_id, EgpError::kExpired, req->pkt.origin_node, 0, 0});
  }
  if (notify_peer) {
    ExpirePacket exp;
    exp.aid = aid;
    exp.origin_id = config_.node_id;
    exp.create_id = req->pkt.create_id;
    exp.seq_low = 0;
    exp.seq_high = 0;  // whole-request expiry
    exp.new_expected_seq = expected_seq_;
    send_expire(exp);
  }
  queue_.remove(aid);
  active_.erase(aid);
  if (outstanding_k_aid_ && *outstanding_k_aid_ == aid) {
    outstanding_k_aid_.reset();
  }
}

void Egp::send_expire(ExpirePacket pkt) {
  ++stats_.expires_sent;
  const std::uint64_t key = next_expire_key_++;
  peer_link_.send_from(peer_endpoint_,
                       net::seal(PacketType::kExpire, pkt.encode()));
  PendingExpire pending{pkt, 0, 0};
  pending.timer = schedule_in(kExpireRetransmit,
                              [this, key] { retransmit_expire(key); },
                              "egp.expire_retransmit");
  pending_expires_[key] = pending;
}

void Egp::retransmit_expire(std::uint64_t key) {
  auto it = pending_expires_.find(key);
  if (it == pending_expires_.end()) return;
  PendingExpire& p = it->second;
  if (p.retries >= kExpireMaxRetries) {
    pending_expires_.erase(it);
    return;
  }
  ++p.retries;
  peer_link_.send_from(peer_endpoint_,
                       net::seal(PacketType::kExpire, p.pkt.encode()));
  p.timer = schedule_in(kExpireRetransmit,
                        [this, key] { retransmit_expire(key); },
                        "egp.expire_retransmit");
}

void Egp::handle_expire(const ExpirePacket& pkt) {
  ++stats_.expires_received;
  // Revoke OKs in [seq_low, seq_high); (0,0) expires the whole request.
  const ActiveRequest* req = find_active(pkt.aid);
  const DistributedQueue::Item* queued = queue_.find(pkt.aid);
  const bool whole_request = pkt.seq_low == 0 && pkt.seq_high == 0;
  // A whole-request EXPIRE for an aid that is neither active nor still
  // queued is a duplicate (lost ACK -> retransmit) or races our own
  // expiry: the ERR was already delivered, and re-emitting it with
  // sender attribution could be pinned on an unrelated request (create
  // ids are per-EGP counters and ambiguous alone). Just re-ACK below.
  if (!whole_request || req != nullptr || queued != nullptr) {
    ErrMessage err;
    err.create_id = pkt.create_id;
    err.error = EgpError::kExpired;
    err.origin_node = pkt.origin_id;
    err.seq_low = pkt.seq_low;
    err.seq_high = pkt.seq_high;
    // The packet's origin_id names the *sender*; higher layers
    // attribute ERRs to the CREATE's origin, so resolve it while the
    // request is still known (active, or queued-but-not-yet-active).
    if (req != nullptr) {
      err.create_id = req->pkt.create_id;
      err.origin_node = req->pkt.origin_node;
    } else if (queued != nullptr) {
      err.create_id = queued->request.create_id;
      err.origin_node = queued->request.origin_node;
    }
    emit_err(err);
  }

  if (whole_request) {
    queue_.remove(pkt.aid);
    active_.erase(pkt.aid);
    if (outstanding_k_aid_ && *outstanding_k_aid_ == pkt.aid) {
      outstanding_k_aid_.reset();
    }
  }
  expected_seq_ = std::max(expected_seq_, pkt.new_expected_seq);

  ExpireAckPacket ack;
  ack.aid = pkt.aid;
  ack.expected_seq = expected_seq_;
  peer_link_.send_from(peer_endpoint_,
                       net::seal(PacketType::kExpireAck, ack.encode()));
}

void Egp::handle_expire_ack(const ExpireAckPacket& pkt) {
  // The ACK carries the acker's expected sequence number; adopting the
  // maximum reconverges both nodes after one round trip.
  expected_seq_ = std::max(expected_seq_, pkt.expected_seq);
  for (auto it = pending_expires_.begin(); it != pending_expires_.end();) {
    if (it->second.pkt.aid == pkt.aid) {
      simulator().cancel(it->second.timer);
      it = pending_expires_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Flow control

void Egp::send_mem_advert(bool is_ack) {
  MemAdvertPacket pkt;
  pkt.is_ack = is_ack;
  pkt.comm_free = qmm_.comm_free() ? 1 : 0;
  pkt.storage_free = static_cast<std::uint16_t>(qmm_.free_memory_slots());
  peer_link_.send_from(peer_endpoint_,
                       net::seal(PacketType::kMemAdvert, pkt.encode()));
}

void Egp::handle_mem_advert(const MemAdvertPacket& pkt) {
  peer_free_memory_ = pkt.storage_free;
  peer_comm_free_ = pkt.comm_free;
  if (!pkt.is_ack) send_mem_advert(true);
}

// ---------------------------------------------------------------------------
// Peer-link demultiplexer & delivery

void Egp::on_peer_frame(std::vector<std::uint8_t> bytes) {
  const auto frame = net::unseal(bytes);
  if (!frame) return;  // corrupt: equivalent to a lost frame
  try {
    switch (frame->type) {
      case PacketType::kDqpFrame:
        queue_.handle_frame(DqpPacket::decode(frame->payload));
        break;
      case PacketType::kExpire:
        handle_expire(ExpirePacket::decode(frame->payload));
        break;
      case PacketType::kExpireAck:
        handle_expire_ack(ExpireAckPacket::decode(frame->payload));
        break;
      case PacketType::kMemAdvert:
        handle_mem_advert(MemAdvertPacket::decode(frame->payload));
        break;
      default:
        break;
    }
  } catch (const net::WireError&) {
    // Malformed payload despite a valid CRC: drop.
  }
}

void Egp::release_delivered(const OkMessage& ok) {
  if (ok.is_measure_directly) return;
  if (ok.logical_qubit_id >= 0) {
    device_.registry().reset(ok.qubit);
    device_.set_live(ok.qubit, false);
    qmm_.release_memory(ok.logical_qubit_id);
  } else {
    device_.registry().reset(ok.qubit);
    device_.set_live(ok.qubit, false);
    qmm_.release_comm();
  }
}

void Egp::emit_ok(const OkMessage& ok) {
  ++stats_.oks;
  if (on_ok_) on_ok_(ok);
}

void Egp::emit_err(const ErrMessage& err) {
  ++stats_.errors;
  if (on_err_) on_err_(err);
}

}  // namespace qlink::core
