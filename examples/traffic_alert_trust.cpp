// Traffic-alert trustworthiness: content validation under attack (paper
// §III.D / §V.D).
//
// Vehicles near a real ice patch report it; an attacker fabricates a fake
// accident elsewhere and — with Sybil credentials — floods denials of the
// real ice. The message classifier groups reports into events and each
// validator scores them; the run shows sender-blind majority voting being
// fooled where distance-weighted and Bayesian content validation hold up.
#include <iostream>

#include "attack/false_data.h"
#include "attack/sybil.h"
#include "trust/classifier.h"
#include "trust/dempster_shafer.h"
#include "trust/validators.h"
#include "util/table.h"

int main() {
  using namespace vcl;
  using namespace vcl::trust;

  Rng rng(2025);

  // Ground truth: one real ice patch at (500, 0). No accident anywhere.
  GroundTruthEvent ice;
  ice.id = EventId{1};
  ice.type = EventType::kIce;
  ice.location = {500, 0};
  ice.real = true;

  std::vector<Report> air;  // everything on the air

  // 12 honest witnesses drive past the ice and report it.
  for (int i = 0; i < 12; ++i) {
    Report r;
    r.type = EventType::kIce;
    r.location = ice.location +
                 geo::Vec2{rng.uniform(-15, 15), rng.uniform(-15, 15)};
    r.time = rng.uniform(0.0, 8.0);
    r.positive = true;
    r.reporter_credential = static_cast<std::uint64_t>(100 + i);
    r.reporter_pos = ice.location + geo::Vec2{rng.uniform(-40, 40), 0};
    r.truth_event = ice.id;
    air.push_back(r);
  }

  // One compromised vehicle with 15 Sybil identities denies the ice and
  // fabricates an accident 3 km away.
  const auto sybils = attack::SybilFactory::credentials({VehicleId{666}}, 15);
  attack::FalseDataAttacker attacker(sybils, rng.fork(1));
  for (auto& r : attacker.deny(ice, 4.0, 15)) {
    r.reporter_pos = ice.location + geo::Vec2{700, 0};  // claims from afar
    air.push_back(r);
  }
  for (auto& r : attacker.fabricate(EventType::kAccident, {3000, 0}, 5.0, 15)) {
    air.push_back(r);
  }

  // Classify the air into event clusters.
  MessageClassifier classifier;
  const auto clusters = classifier.classify(air);
  std::cout << "classified " << air.size() << " reports into "
            << clusters.size() << " event clusters\n\n";

  const MajorityVote majority;
  const DistanceWeightedVote weighted;
  const BayesianInference bayes;
  const DempsterShafer ds;

  Table table("per-event validator decisions (ground truth in brackets)",
              {"event", "reports", "majority", "dist_weighted", "bayesian",
               "dempster_shafer"});
  for (const EventCluster& c : clusters) {
    const bool real = !c.reports.empty() && c.reports.front().truth_event ==
                                                ice.id;
    std::string label = std::string(to_string(c.type)) + " @(" +
                        Table::num(c.centroid.x, 0) + "," +
                        Table::num(c.centroid.y, 0) + ") [" +
                        (real ? "REAL" : "FAKE") + "]";
    auto cell = [&](const Validator& v) {
      const TrustDecision d = v.evaluate(c);
      return std::string(d.accepted ? "accept " : "reject ") +
             Table::num(d.score, 2);
    };
    table.add_row({label, std::to_string(c.reports.size()), cell(majority),
                   cell(weighted), cell(bayes), cell(ds)});
  }
  table.print(std::cout);

  std::cout
      << "Distance weighting discounts the attacker's far-away denials of\n"
         "the real ice, while plain majority voting is swamped by Sybil\n"
         "identities — the content-vs-sender argument of paper §III.D.\n"
         "Note the fabricated accident: with no honest witnesses to\n"
         "contradict it, every content validator accepts it — which is why\n"
         "the paper pairs trust evaluation with Sybil-resistant\n"
         "authentication (one enrollment per physical vehicle).\n";
  return 0;
}
