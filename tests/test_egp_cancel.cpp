#include <gtest/gtest.h>

#include <vector>

#include "core/network.hpp"
#include "metrics/collector.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "routing/router.hpp"

/// Egp::cancel_create (ISSUE 2 satellite): a higher layer that
/// abandons a CREATE must be able to retract it from both nodes'
/// queues so the link stops generating pairs nobody will claim (the
/// ROADMAP's unclaimed-OK open item). The netlayer's
/// SwapService::fail_request uses this to cancel sibling-hop CREATEs
/// when an end-to-end request dies.

namespace qlink {
namespace {

bool queues_empty(core::Egp& egp) {
  for (int j = 0; j < egp.queue().num_queues(); ++j) {
    if (!egp.queue().queue(j).empty()) return false;
  }
  return true;
}

TEST(EgpCancel, CancelStopsOkGenerationAndDrainsBothQueues) {
  core::LinkConfig cfg;
  cfg.scenario = hw::ScenarioParams::lab();
  cfg.seed = 3;
  core::Link link(cfg);

  std::vector<core::OkMessage> oks_a;
  int errs_a = 0;
  link.egp_a().set_ok_handler([&](const core::OkMessage& ok) {
    oks_a.push_back(ok);
    link.egp_a().release_delivered(ok);
  });
  link.egp_a().set_err_handler([&](const core::ErrMessage&) { ++errs_a; });
  link.egp_b().set_ok_handler([&](const core::OkMessage& ok) {
    link.egp_b().release_delivered(ok);
  });

  core::CreateRequest req;
  req.remote_node_id = link.node_id_b();
  req.type = core::RequestType::kCreateKeep;
  req.num_pairs = 500;  // far more than a short run can produce
  req.min_fidelity = 0.6;
  req.consecutive = true;
  const std::uint32_t create_id = link.egp_a().create(req);

  link.start();
  link.run_for(sim::duration::seconds(1.0));
  const std::size_t delivered_before = oks_a.size();
  ASSERT_GT(delivered_before, 0u);
  ASSERT_FALSE(queues_empty(link.egp_a()));

  EXPECT_TRUE(link.egp_a().cancel_create(create_id));
  EXPECT_EQ(link.egp_a().stats().cancels, 1u);
  // Unknown / already-cancelled ids are rejected.
  EXPECT_FALSE(link.egp_a().cancel_create(create_id));
  EXPECT_FALSE(link.egp_a().cancel_create(9999));

  // Let the EXPIRE reach B and any in-flight REPLY settle.
  link.run_for(sim::duration::milliseconds(50));
  const std::size_t delivered_at_settle = oks_a.size();

  // No new pairs after the retraction settles, no ERR at the caller,
  // and the request is gone from both nodes' queues.
  link.run_for(sim::duration::seconds(1.0));
  EXPECT_EQ(oks_a.size(), delivered_at_settle);
  EXPECT_EQ(errs_a, 0);
  EXPECT_TRUE(queues_empty(link.egp_a()));
  EXPECT_TRUE(queues_empty(link.egp_b()));
}

TEST(EgpCancel, CancelBeforeQueueConfirmationRetractsTheCreate) {
  core::LinkConfig cfg;
  cfg.scenario = hw::ScenarioParams::lab();
  cfg.seed = 4;
  core::Link link(cfg);

  int oks = 0;
  link.egp_a().set_ok_handler([&](const core::OkMessage& ok) {
    ++oks;
    link.egp_a().release_delivered(ok);
  });
  link.egp_b().set_ok_handler([&](const core::OkMessage& ok) {
    link.egp_b().release_delivered(ok);
  });

  core::CreateRequest req;
  req.remote_node_id = link.node_id_b();
  req.num_pairs = 100;
  req.min_fidelity = 0.6;
  req.consecutive = true;
  const std::uint32_t create_id = link.egp_a().create(req);
  // Cancel immediately: the distributed-queue ADD/ACK handshake has
  // not completed yet.
  EXPECT_TRUE(link.egp_a().cancel_create(create_id));

  link.start();
  link.run_for(sim::duration::seconds(1.0));
  EXPECT_EQ(oks, 0);
  EXPECT_TRUE(queues_empty(link.egp_a()));
  EXPECT_TRUE(queues_empty(link.egp_b()));
}

TEST(SwapServiceCancel, FailedE2eRequestRetractsSiblingHopCreates) {
  netlayer::NetworkConfig cfg = routing::make_network_config(
      routing::Graph::chain(3), core::LinkConfig{}, /*seed=*/11);
  cfg.link.scenario = hw::ScenarioParams::lab();
  cfg.link.scenario.nv.carbon_t2_ns = 0.5e9;
  cfg.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  // Fast link-layer expiry under frame loss: a few consecutive
  // one-sided midpoint errors kill hop 0's CREATE.
  cfg.link.one_sided_error_threshold = 4;
  // Hop 0 is lossy; hop 1 stays healthy. Before cancel_create, the
  // failed request left hop 1's CREATE live, generating unclaimed OKs
  // indefinitely.
  cfg.configure_link = [](std::size_t i, core::LinkConfig& lc) {
    if (i == 0) lc.scenario.classical_loss_prob = 0.25;
  };

  netlayer::QuantumNetwork net(cfg);
  metrics::Collector collector;
  netlayer::SwapService swap(net, &collector);

  int errors = 0;
  swap.set_error_handler([&](const netlayer::E2eErr&) { ++errors; });

  netlayer::E2eRequest req;
  req.src = 0;
  req.dst = 2;
  req.num_pairs = 50;  // the healthy hop could generate these forever
  req.min_fidelity = 0.5;
  req.link_min_fidelity = 0.78;
  net.start();
  swap.request(req);

  for (int i = 0; i < 200 && errors == 0; ++i) {
    net.run_for(sim::duration::milliseconds(100));
  }
  ASSERT_GT(errors, 0) << "expected hop 0 to expire the e2e request";
  EXPECT_EQ(swap.open_requests(), 0u);

  // Let in-flight OKs/EXPIREs settle, then require the links to stay
  // quiet: the sibling hop's CREATE was retracted.
  net.run_for(sim::duration::milliseconds(200));
  const std::uint64_t unclaimed_at_settle = swap.stats().unclaimed_oks;
  net.run_for(sim::duration::seconds(2.0));
  EXPECT_EQ(swap.stats().unclaimed_oks, unclaimed_at_settle);

  std::uint64_t cancels = 0;
  for (std::size_t i = 0; i < net.num_links(); ++i) {
    const auto [a, b] = net.endpoints(i);
    cancels += net.link(i).egp(a).stats().cancels;
    cancels += net.link(i).egp(b).stats().cancels;
    EXPECT_TRUE(queues_empty(net.link(i).egp(a)));
    EXPECT_TRUE(queues_empty(net.link(i).egp(b)));
  }
  EXPECT_GT(cancels, 0u);
}

}  // namespace
}  // namespace qlink
