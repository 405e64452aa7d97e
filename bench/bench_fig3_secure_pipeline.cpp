// E4 (Fig. 3) — End-to-end secure message pipeline latency.
//
// Fig. 3's verifier answers four questions per message (identity? access?
// action? trustworthiness?). This bench measures the modeled OBU latency of
// the full authenticate -> authorize -> trust-validate chain for each
// authentication protocol and policy complexity, and the budget-violation
// rate against the paper's "stringent time constraints".
//
// Runs through the experiment engine (exp::Campaign): one replication runs
// the whole protocol x policy grid against a freshly keyed DRBG; --reps N
// replicates it with independent key material and reports mean ±95% CI.
// The default --reps 1 reproduces the historical output byte-for-byte.
#include <array>
#include <iostream>

#include "core/pipeline.h"
#include "exp/campaign.h"
#include "util/table.h"

using namespace vcl;
using namespace vcl::core;

namespace {

access::Policy and_policy(int leaves) {
  std::string text = "a0";
  for (int i = 1; i < leaves; ++i) text += " & a" + std::to_string(i);
  return *access::Policy::parse(text);
}

trust::EventCluster consensus_cluster(int n) {
  trust::EventCluster c;
  for (int i = 0; i < n; ++i) {
    trust::Report r;
    r.positive = true;
    r.reporter_pos = {10, 0};
    c.reports.push_back(r);
  }
  return c;
}

// Flag metric cell: "yes"/"NO" while every replication agrees (which at
// --reps 1 is exactly the historical output), the agreeing fraction else.
exp::Cell yes_no(const exp::Summary& s) {
  if (s.mean() >= 1.0) return exp::Cell("yes");
  if (s.mean() <= 0.0) return exp::Cell("NO");
  exp::Cell cell(Table::num(s.mean(), 2));
  cell.stat = obs::CellStat{s.mean(), s.ci95(), s.n()};
  return cell;
}

constexpr std::array kProtocols = {AuthProtocolKind::kPseudonym,
                                   AuthProtocolKind::kGroup,
                                   AuthProtocolKind::kHybrid};
constexpr std::array kLeafCounts = {1, 4, 8};
constexpr std::array kBudgetsMs = {5.0, 10.0, 20.0, 50.0, 100.0};

// One replication: the full grid with one DRBG keying. Metric names are
// "<protocol>/<leaves>/<field>" and "budget/<ms>/<field>".
exp::RepReport run_grid(std::uint64_t seed) {
  exp::RepReport rep;

  auth::TrustedAuthority ta(1);
  ta.register_vehicle(VehicleId{1});
  auth::PseudonymAuth pseudo_signer(ta, VehicleId{1}, 8);
  auth::GroupManager manager(1, 2);
  manager.enroll(VehicleId{1});
  auth::GroupAuth group_signer(manager, VehicleId{1});
  auth::HybridAuth hybrid_signer(manager, VehicleId{1});
  access::AbeAuthority abe(3);
  crypto::Drbg drbg(seed);
  const crypto::Bytes owner_key = drbg.generate(32);
  const trust::MajorityVote validator;
  const trust::EventCluster cluster = consensus_cluster(6);

  for (const auto protocol : kProtocols) {
    for (const int leaves : kLeafCounts) {
      SecurePipeline pipeline({});
      const crypto::Bytes payload{1, 2, 3};
      crypto::OpCounts sign_ops;
      SecurePipeline::AuthInput auth_in;
      auth_in.protocol = protocol;
      auth_in.ta = &ta;
      auth_in.manager = &manager;
      auth_in.payload = payload;
      switch (protocol) {
        case AuthProtocolKind::kPseudonym:
          auth_in.tag = *pseudo_signer.sign(payload, 0.0, sign_ops);
          break;
        case AuthProtocolKind::kGroup:
          auth_in.tag = *group_signer.sign(payload, sign_ops);
          break;
        case AuthProtocolKind::kHybrid:
          auth_in.tag = *hybrid_signer.sign(payload, sign_ops);
          break;
      }

      const access::Policy policy = and_policy(leaves);
      access::AttributeSet attrs;
      for (int i = 0; i < leaves; ++i) {
        attrs.add(std::string("a").append(std::to_string(i)));
      }
      crypto::OpCounts seal_ops;
      access::StickyPackage pkg(abe, crypto::Bytes{7}, policy.clone(),
                                owner_key, 1, drbg, seal_ops);
      const access::AbeUserKey key = abe.keygen(attrs);
      SecurePipeline::AuthzInput authz{&pkg, &key, attrs, 42};
      SecurePipeline::TrustInput trust_in{&validator, &cluster};

      const PipelineResult result =
          pipeline.process(auth_in, authz, trust_in, 0.0);
      const std::string prefix =
          std::string(to_string(protocol)) + "/" + std::to_string(leaves);
      rep.value(prefix + "/latency_ms", result.latency / kMilliseconds);
      rep.value(prefix + "/accepted", result.accepted ? 1.0 : 0.0);
      rep.value(prefix + "/within", result.within_budget ? 1.0 : 0.0);
    }
  }

  // Budget-violation sweep: how tight can the deadline be?
  for (const double budget_ms : kBudgetsMs) {
    PipelineConfig cfg;
    cfg.budget = budget_ms * kMilliseconds;
    SecurePipeline pipeline(cfg);
    const access::Policy policy = and_policy(4);
    access::AttributeSet attrs{"a0", "a1", "a2", "a3"};
    const access::AbeUserKey key = abe.keygen(attrs);
    int violations = 0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      const crypto::Bytes payload{static_cast<std::uint8_t>(i)};
      crypto::OpCounts ops;
      SecurePipeline::AuthInput auth_in;
      auth_in.protocol = AuthProtocolKind::kPseudonym;
      auth_in.ta = &ta;
      auth_in.payload = payload;
      auth_in.tag = *pseudo_signer.sign(payload, i * 0.1, ops);
      crypto::OpCounts seal_ops;
      access::StickyPackage pkg(abe, crypto::Bytes{1}, policy.clone(),
                                owner_key, 2, drbg, seal_ops);
      SecurePipeline::AuthzInput authz{&pkg, &key, attrs, 42};
      SecurePipeline::TrustInput trust_in{&validator, &cluster};
      const PipelineResult r = pipeline.process(auth_in, authz, trust_in, 0.0);
      violations += r.within_budget ? 0 : 1;
    }
    const std::string prefix = "budget/" + Table::num(budget_ms, 0);
    rep.value(prefix + "/violations", violations);
    rep.value(prefix + "/rate", static_cast<double>(violations) / n);
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Campaign campaign("bench_fig3_secure_pipeline", argc, argv);

  std::cout << "E4 (Fig. 3): secure pipeline latency "
               "(authenticate -> authorize -> trust)\n\n";
  campaign.describe(std::cout);

  // Historical base seed 4: the DRBG keying the owner key and packages.
  const auto summary = campaign.replicate(4, [](const exp::RepContext& ctx) {
    return run_grid(ctx.seed);
  });

  std::vector<std::vector<exp::Cell>> rows;
  for (const auto protocol : kProtocols) {
    for (const int leaves : kLeafCounts) {
      const std::string prefix =
          std::string(to_string(protocol)) + "/" + std::to_string(leaves);
      rows.push_back({exp::Cell(to_string(protocol)),
                      exp::Cell(std::to_string(leaves)),
                      exp::Cell(summary.at(prefix + "/latency_ms"), 2),
                      yes_no(summary.at(prefix + "/accepted")),
                      yes_no(summary.at(prefix + "/within"))});
    }
  }
  campaign.emit("pipeline latency by protocol and policy size",
                {"protocol", "policy_leaves", "latency_ms", "accepted",
                 "within_100ms"},
                rows);

  std::vector<std::vector<exp::Cell>> budget_rows;
  for (const double budget_ms : kBudgetsMs) {
    const std::string prefix = "budget/" + Table::num(budget_ms, 0);
    budget_rows.push_back({exp::Cell(Table::num(budget_ms, 0)),
                           exp::Cell(summary.at(prefix + "/violations"), 0),
                           exp::Cell(summary.at(prefix + "/rate"), 2)});
  }
  campaign.emit("budget violation rate vs deadline (pseudonym, 4-leaf "
                "policy, 200 messages)",
                {"budget_ms", "violations", "violation_rate"}, budget_rows);

  std::cout << "Shape: authentication dominates for small policies; ABE\n"
               "authorization dominates beyond ~4 leaves. Budgets below the\n"
               "sum of one verify chain are infeasible on OBU-class\n"
               "hardware — quantifying §III.C's warning.\n";
  return campaign.finish();
}
