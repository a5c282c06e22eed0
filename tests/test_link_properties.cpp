#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "core/network.hpp"

/// Parameterised end-to-end invariants of the full protocol stack,
/// swept over seeds, scenarios and loss rates: the properties Protocol 2
/// promises regardless of the stochastic execution.

namespace qlink::core {
namespace {

struct LinkCase {
  std::uint64_t seed;
  bool ql2020;
  double loss;
};

/// Stable test-name suffix from the case's fields, e.g.
/// seed3_lab_loss1000ppm. PrintTo prints the same string, so ctest's
/// discovered names carry it instead of the struct's raw bytes.
std::string case_name(const LinkCase& c) {
  return "seed" + std::to_string(c.seed) +
         (c.ql2020 ? "_ql2020" : "_lab") + "_loss" +
         std::to_string(std::llround(c.loss * 1e6)) + "ppm";
}

void PrintTo(const LinkCase& c, std::ostream* os) { *os << case_name(c); }

std::string case_param_name(const ::testing::TestParamInfo<LinkCase>& info) {
  return case_name(info.param);
}

class LinkInvariantP : public ::testing::TestWithParam<LinkCase> {
 protected:
  static CreateRequest md(std::uint16_t pairs) {
    CreateRequest r;
    r.type = RequestType::kCreateMeasure;
    r.num_pairs = pairs;
    r.min_fidelity = 0.6;
    r.priority = Priority::kMeasureDirectly;
    r.consecutive = true;
    r.store_in_memory = false;
    return r;
  }
};

TEST_P(LinkInvariantP, ProtocolInvariantsHoldUnderStochasticExecution) {
  const LinkCase& c = GetParam();
  LinkConfig cfg;
  cfg.scenario =
      c.ql2020 ? hw::ScenarioParams::ql2020() : hw::ScenarioParams::lab();
  cfg.scenario.classical_loss_prob = c.loss;
  cfg.seed = c.seed;
  Link link(cfg);

  struct Seen {
    std::vector<OkMessage> oks;
    std::uint32_t last_seq = 0;
    bool seq_monotone = true;
  };
  Seen seen_a;
  Seen seen_b;
  auto watch = [](Seen& s) {
    return [&s](const OkMessage& ok) {
      // Invariant: midpoint sequence numbers in OKs strictly increase at
      // each node (EXPIRE revokes, never re-delivers).
      if (ok.ent_id.seq_mhp <= s.last_seq) s.seq_monotone = false;
      s.last_seq = ok.ent_id.seq_mhp;
      s.oks.push_back(ok);
    };
  };
  link.egp_a().set_ok_handler(watch(seen_a));
  link.egp_b().set_ok_handler(watch(seen_b));
  link.start();

  link.egp_a().create(md(4));
  link.egp_b().create(md(4));
  link.run_for(sim::duration::seconds(6));

  // 1. Sequence monotonicity at both nodes.
  EXPECT_TRUE(seen_a.seq_monotone);
  EXPECT_TRUE(seen_b.seq_monotone);

  // 2. Pair indices per request are gap-free ascending at the origin
  //    (consecutive delivery), unless an EXPIRE intervened.
  if (link.egp_a().stats().expires_sent == 0 &&
      link.egp_b().stats().expires_sent == 0) {
    std::map<std::uint32_t, std::uint16_t> next_index;
    for (const auto& ok : seen_a.oks) {
      if (ok.origin_node != Link::kNodeA) continue;
      EXPECT_EQ(ok.pair_index, next_index[ok.create_id]) << c.seed;
      next_index[ok.create_id] = static_cast<std::uint16_t>(ok.pair_index + 1);
    }
  }

  // 3. Outcomes are classical bits and bases agree across nodes for the
  //    same entanglement id.
  std::map<std::uint32_t, const OkMessage*> by_seq;
  for (const auto& ok : seen_a.oks) {
    EXPECT_GE(ok.outcome, 0);
    EXPECT_LE(ok.outcome, 1);
    by_seq[ok.ent_id.seq_mhp] = &ok;
  }
  for (const auto& ok : seen_b.oks) {
    const auto it = by_seq.find(ok.ent_id.seq_mhp);
    if (it == by_seq.end()) continue;
    EXPECT_EQ(ok.basis, it->second->basis);
    EXPECT_EQ(ok.heralded_state, it->second->heralded_state);
    EXPECT_EQ(ok.create_id, it->second->create_id);
  }

  // 4. Queues agree once drained: every item at A exists at B and vice
  //    versa (up to in-flight handshakes, which a quiescent run lacks).
  const auto& qa = link.egp_a().queue();
  const auto& qb = link.egp_b().queue();
  for (int j = 0; j < qa.num_queues(); ++j) {
    for (const auto& [qseq, item] : qa.queue(j)) {
      if (item.confirmed) {
        EXPECT_NE(qb.find(item.request.aid), nullptr);
      }
    }
  }

  // 5. Accounting: OKs at the origin never exceed requested pairs.
  EXPECT_LE(seen_a.oks.size() + seen_b.oks.size(), 16u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndScenarios, LinkInvariantP,
    ::testing::Values(LinkCase{1, false, 0.0}, LinkCase{2, false, 0.0},
                      LinkCase{3, false, 1e-3}, LinkCase{4, false, 1e-2},
                      LinkCase{5, true, 0.0}, LinkCase{6, true, 1e-3},
                      LinkCase{7, false, 0.0}, LinkCase{8, false, 1e-4},
                      LinkCase{9, true, 1e-4}, LinkCase{10, false, 3e-3}),
    case_param_name);

// ---------------------------------------------------------------------------
// Determinism: identical seeds give identical delivery transcripts, for
// every scenario/loss combination.

class DeterminismP : public ::testing::TestWithParam<LinkCase> {};

TEST_P(DeterminismP, IdenticalSeedsIdenticalTranscripts) {
  const LinkCase& c = GetParam();
  auto run = [&] {
    LinkConfig cfg;
    cfg.scenario =
        c.ql2020 ? hw::ScenarioParams::ql2020() : hw::ScenarioParams::lab();
    cfg.scenario.classical_loss_prob = c.loss;
    cfg.seed = c.seed;
    Link link(cfg);
    std::vector<std::tuple<std::uint32_t, int, int>> transcript;
    link.egp_a().set_ok_handler([&](const OkMessage& ok) {
      transcript.emplace_back(ok.ent_id.seq_mhp, ok.outcome,
                              static_cast<int>(ok.basis));
    });
    link.start();
    CreateRequest r;
    r.type = RequestType::kCreateMeasure;
    r.num_pairs = 5;
    r.min_fidelity = 0.6;
    r.priority = Priority::kMeasureDirectly;
    r.consecutive = true;
    link.egp_a().create(r);
    link.run_for(sim::duration::seconds(3));
    return transcript;
  };
  const auto t1 = run();
  const auto t2 = run();
  EXPECT_EQ(t1, t2);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndScenarios, DeterminismP,
    ::testing::Values(LinkCase{11, false, 0.0}, LinkCase{12, false, 1e-3},
                      LinkCase{13, true, 0.0}, LinkCase{14, true, 1e-3}),
    case_param_name);

}  // namespace
}  // namespace qlink::core
