#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "hw/herald_model.hpp"
#include "hw/nv_device.hpp"
#include "net/channel.hpp"
#include "net/packets.hpp"
#include "quantum/gates.hpp"
#include "sim/entity.hpp"

/// \file mhp.hpp
/// Physical-layer Midpoint Heralding Protocol (Protocol 1, Section 5.1).
///
/// `NodeMhp` runs at each controllable node: on each MHP cycle it polls
/// the link layer (the EGP) for work, triggers an entanglement attempt
/// when told to, sends a GEN frame to the station and forwards REPLY
/// frames back up. It keeps no request state, exactly as the paper
/// demands of the physical layer.
///
/// `CycleClock` is the cycle: one "mhp.cycle" event per period drives
/// every started NodeMhp of a simulation world in start order. When the
/// EGP answers a poll with `idle` (nothing queued, nothing in flight)
/// the MHP goes dormant: the clock skips it until the EGP's distributed
/// queue takes an item and wakes it. An idle poll answers "no" with no
/// side effect, so skipping it changes nothing but the work done.
///
/// `MidpointStation` is the automated node H: it pairs GEN frames by
/// cycle, verifies the attempt IDs match, samples the heralding outcome
/// from the physical model, installs fresh entanglement into the two
/// communication qubits (or samples M-type outcomes), and answers both
/// nodes with REPLY/ERR frames carrying a monotonically increasing
/// midpoint sequence number.

namespace qlink::proto {

/// What the EGP answers when the MHP polls it ("yes/no + info", Fig. 4).
struct PollResponse {
  bool attempt = false;
  net::AbsoluteQueueId aid;
  std::uint16_t pair_index = 0;
  bool measure_directly = false;          // M vs K
  quantum::gates::Basis basis = quantum::gates::Basis::kZ;  // M only
  double alpha = 0.1;
  /// No attempt until work arrives: the MHP may sleep until woken.
  bool idle = false;
};

/// RESULT passed from the MHP to the EGP (Protocol 1, step 3).
struct MhpResult {
  net::ReplyPacket reply;
  bool local_failure = false;  // GEN_FAIL: never reached the station
};

class NodeMhp;

/// The MHP cycle of one simulation world at one period: a single
/// "mhp.cycle" event per period that calls every started, awake member
/// in start order. Members must start at the instant of the clock's
/// next tick — the first member's start fixes that instant — so each
/// member's first cycle is its start time, as with a timer of its own.
/// The owner of the simulation world owns its clocks (core::Link
/// standalone, netlayer::QuantumNetwork one per distinct period).
class CycleClock {
 public:
  CycleClock(sim::Simulator& simulator, sim::SimTime period);
  ~CycleClock();

  CycleClock(const CycleClock&) = delete;
  CycleClock& operator=(const CycleClock&) = delete;

  sim::Simulator& simulator() noexcept { return simulator_; }
  sim::SimTime period() const noexcept { return period_; }

 private:
  friend class NodeMhp;
  /// Throws std::logic_error off the clock's phase (see class comment).
  void join(NodeMhp& member);
  void leave(NodeMhp& member);
  void arm(sim::SimTime at);
  void tick();

  sim::Simulator& simulator_;
  sim::SimTime period_;
  std::vector<NodeMhp*> members_;  // start order
  sim::EventId pending_ = 0;       // 0 while no member is started
  sim::SimTime next_tick_ = 0;
};

class NodeMhp : public sim::Entity {
 public:
  using PollFn = std::function<PollResponse()>;
  using ResultFn = std::function<void(const MhpResult&)>;

  NodeMhp(CycleClock& clock, std::string name, std::uint32_t node_id,
          hw::NvDevice& device, net::ClassicalChannel& station_link,
          int link_endpoint);
  ~NodeMhp() override;

  /// Wire the link layer in; must be done before start().
  void set_poll_handler(PollFn fn) { poll_ = std::move(fn); }
  void set_result_handler(ResultFn fn) { result_ = std::move(fn); }

  /// Join the cycle clock: the first cycle runs now. Idempotent.
  void start();

  /// Resume polling from the next cycle after an idle poll (the link
  /// layer calls this when work arrives). Cheap and idempotent.
  void wake() noexcept { dormant_ = false; }
  bool dormant() const noexcept { return dormant_; }

  std::uint64_t current_cycle() const;
  sim::SimTime cycle_period() const noexcept { return clock_.period(); }
  std::uint32_t node_id() const noexcept { return node_id_; }

  std::uint64_t attempts_made() const noexcept { return attempts_; }
  std::uint64_t replies_seen() const noexcept { return replies_; }

 private:
  friend class CycleClock;
  void on_cycle();
  void on_frame(std::vector<std::uint8_t> bytes);

  CycleClock& clock_;
  std::uint32_t node_id_;
  hw::NvDevice& device_;
  net::ClassicalChannel& link_;
  int endpoint_;
  PollFn poll_;
  ResultFn result_;
  bool started_ = false;
  bool dormant_ = false;
  std::uint64_t attempts_ = 0;
  std::uint64_t replies_ = 0;
};

/// Callback used by the station to install heralded entanglement into
/// the communication qubits of both nodes. Provided by the network
/// assembly, which knows the devices; `outcome` is 1 (Psi+) or 2 (Psi-).
using InstallFn = std::function<void(int outcome, std::uint64_t cycle,
                                     double alpha_a, double alpha_b)>;

/// Callback sampling M-type joint outcomes from the heralded state:
/// given the bases at A and B, returns the pair of outcomes.
using SampleMeasureFn = std::function<std::pair<int, int>(
    int outcome, quantum::gates::Basis basis_a, quantum::gates::Basis basis_b,
    double alpha_a, double alpha_b)>;

class MidpointStation : public sim::Entity {
 public:
  MidpointStation(sim::Simulator& simulator, std::string name,
                  const hw::HeraldModel& model, sim::Random& random,
                  net::ClassicalChannel& link_a, int endpoint_a,
                  net::ClassicalChannel& link_b, int endpoint_b,
                  sim::SimTime cycle_period);

  void set_install_handler(InstallFn fn) { install_ = std::move(fn); }
  void set_measure_sampler(SampleMeasureFn fn) { sample_ = std::move(fn); }

  /// How many cycles the station waits for the partner GEN before
  /// declaring NO_MESSAGE_OTHER (covers the A/B path-delay difference).
  void set_match_window(std::uint64_t cycles) { match_window_ = cycles; }

  std::uint32_t successes() const noexcept { return seq_mhp_; }
  std::uint64_t gen_frames() const noexcept { return gens_; }
  std::uint64_t mismatches() const noexcept { return mismatches_; }

  /// True fidelity bookkeeping for metrics: average heralded fidelity of
  /// successes as computed by the physical model (simulator privilege).
  double mean_heralded_fidelity() const;

 private:
  struct PendingGen {
    net::GenPacket gen;
    bool from_a = false;
    sim::EventId timeout_event = 0;
  };

  void on_frame(bool from_a, std::vector<std::uint8_t> bytes);
  void process_pair(const net::GenPacket& a, const net::GenPacket& b);
  void reply_error(const PendingGen& pending, net::MhpError err,
                   const net::GenPacket* other);
  void send_reply(bool to_a, const net::ReplyPacket& reply);
  void expire_pending(std::uint64_t cycle);

  const hw::HeraldModel& model_;
  sim::Random& random_;
  net::ClassicalChannel& link_a_;
  net::ClassicalChannel& link_b_;
  int endpoint_a_;
  int endpoint_b_;
  sim::SimTime cycle_period_;
  std::uint64_t match_window_ = 32;
  InstallFn install_;
  SampleMeasureFn sample_;

  std::map<std::uint64_t, PendingGen> pending_;  // keyed by cycle
  std::uint32_t seq_mhp_ = 0;
  std::uint64_t gens_ = 0;
  std::uint64_t mismatches_ = 0;
  double fidelity_sum_ = 0.0;
  std::uint64_t fidelity_count_ = 0;
};

}  // namespace qlink::proto
