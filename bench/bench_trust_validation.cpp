// E10 — Trustworthiness validation accuracy under attack (§III.D / §V.D).
//
// Ground truth: a stream of real events plus attacker-fabricated ones.
// Honest vehicles near real events report them; attackers deny real events
// and assert fake ones, optionally amplified by Sybil credentials. Sweep
// the attacker fraction and score each validator's decision accuracy, plus
// the sender-reputation baseline with and without pseudonym rotation (the
// paper's argument for content-centric trust).
#include <iostream>
#include <memory>

#include "attack/false_data.h"
#include "attack/sybil.h"
#include "trust/classifier.h"
#include "trust/dempster_shafer.h"
#include "trust/validators.h"
#include "obs/bench_output.h"
#include "util/table.h"

using namespace vcl;
using namespace vcl::trust;

namespace {

struct Scene {
  std::vector<Report> air;
  // event key (by centroid cell) -> is real
  std::vector<GroundTruthEvent> events;
};

Scene build_scene(double attacker_fraction, std::size_t sybil_factor,
                  Rng& rng) {
  Scene scene;
  const int n_honest = 40;
  const auto n_attackers =
      static_cast<int>(attacker_fraction * n_honest / (1 - attacker_fraction +
                                                        1e-9));

  // 6 real events spread over the map.
  for (int e = 0; e < 6; ++e) {
    GroundTruthEvent ev;
    ev.id = EventId{static_cast<std::uint64_t>(e + 1)};
    ev.type = EventType::kIce;
    ev.location = {e * 900.0, 0};
    ev.real = true;
    scene.events.push_back(ev);
  }
  // Honest witnesses: 6-10 per real event.
  std::uint64_t credential = 100;
  for (const auto& ev : scene.events) {
    const int witnesses = static_cast<int>(rng.uniform_int(6, 10));
    for (int w = 0; w < witnesses; ++w) {
      Report r;
      r.type = ev.type;
      r.location =
          ev.location + geo::Vec2{rng.uniform(-20, 20), rng.uniform(-20, 20)};
      r.time = rng.uniform(0, 10);
      r.positive = true;
      r.reporter_credential = credential++;
      r.reporter_pos = ev.location + geo::Vec2{rng.uniform(-60, 60), 0};
      r.truth_event = ev.id;
      scene.air.push_back(r);
    }
  }

  // Attackers: each denies one real event and fabricates one fake event,
  // with sybil_factor credentials each.
  std::vector<VehicleId> attacker_vehicles;
  for (int a = 0; a < n_attackers; ++a) {
    attacker_vehicles.push_back(VehicleId{static_cast<std::uint64_t>(a + 900)});
  }
  if (!attacker_vehicles.empty()) {
    const auto creds =
        attack::SybilFactory::credentials(attacker_vehicles, sybil_factor);
    attack::FalseDataAttacker attacker(creds, rng.fork(3));
    const std::size_t per_attacker = sybil_factor;
    const std::size_t n_real = scene.events.size();  // fakes appended below
    for (int a = 0; a < n_attackers; ++a) {
      // Copy: scene.events grows below, which would invalidate a reference.
      const GroundTruthEvent target =
          scene.events[static_cast<std::size_t>(a) % n_real];
      for (auto& r : attacker.deny(target, rng.uniform(0, 10), per_attacker)) {
        r.reporter_pos = target.location + geo::Vec2{400, 0};  // far claim
        scene.air.push_back(r);
      }
      // Fabricated event (unique location per attacker).
      GroundTruthEvent fake;
      fake.id = EventId{};
      fake.type = EventType::kAccident;
      fake.location = {a * 900.0 + 400.0, 3000.0};
      fake.real = false;
      scene.events.push_back(fake);
      for (auto& r : attacker.fabricate(fake.type, fake.location,
                                        rng.uniform(0, 10), per_attacker)) {
        scene.air.push_back(r);
      }
      // Honest vehicles passing the claimed location see nothing and say
      // so — the counter-evidence that makes content validation possible.
      const int passersby = static_cast<int>(rng.uniform_int(4, 8));
      for (int w = 0; w < passersby; ++w) {
        Report r;
        r.type = fake.type;
        r.location = fake.location +
                     geo::Vec2{rng.uniform(-20, 20), rng.uniform(-20, 20)};
        r.time = rng.uniform(0, 10);
        r.positive = false;  // "no accident here"
        r.reporter_credential = credential++;
        r.reporter_pos =
            fake.location + geo::Vec2{rng.uniform(-60, 60), 0};
        r.truth_event = EventId{};
        r.truthful = true;
        scene.air.push_back(r);
      }
    }
  }
  return scene;
}

// Scores a validator over the classified scene: a decision is correct when
// (accepted == event is real). Clusters are matched to ground truth via the
// member reports' truth_event (empty = fabricated).
double accuracy(const Validator& validator, const Scene& scene) {
  MessageClassifier classifier({250.0, 30.0});
  const auto clusters = classifier.classify(scene.air);
  std::size_t correct = 0;
  for (const EventCluster& c : clusters) {
    bool real = false;
    for (const Report& r : c.reports) {
      if (r.truth_event.valid()) {
        real = true;
        break;
      }
    }
    const TrustDecision d = validator.evaluate(c);
    correct += (d.accepted == real) ? 1 : 0;
  }
  return clusters.empty()
             ? 0.0
             : static_cast<double>(correct) / static_cast<double>(clusters.size());
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("bench_trust_validation", argc, argv);

  std::cout << "E10: validator accuracy vs attacker fraction\n"
            << "6 real events, 40 honest witnesses; attackers deny real "
               "events and fabricate fakes\n\n";

  const MajorityVote majority;
  const DistanceWeightedVote weighted;
  const BayesianInference bayes;
  const DempsterShafer ds;

  for (const std::size_t sybil : {1UL, 4UL, 10UL}) {
    Table table("Sybil x" + std::to_string(sybil) + " (" +
                    std::to_string(sybil) + " credentials/attacker)",
                {"attacker_frac", "majority", "dist_weighted", "bayesian",
                 "dempster_shafer"});
    for (const double frac : {0.0, 0.1, 0.2, 0.3, 0.4}) {
      Rng rng(42 + static_cast<std::uint64_t>(frac * 100) + sybil);
      const Scene scene = build_scene(frac, sybil, rng);
      table.add_row({Table::num(frac, 1),
                     Table::num(accuracy(majority, scene), 2),
                     Table::num(accuracy(weighted, scene), 2),
                     Table::num(accuracy(bayes, scene), 2),
                     Table::num(accuracy(ds, scene), 2)});
    }
    reporter.emit(table);
  }

  // Reputation baseline vs pseudonym rotation (the paper's §III.D point).
  std::cout << "reputation baseline: accuracy after 20 rounds of feedback,\n"
               "with stable credentials vs per-round pseudonym rotation\n\n";
  Table rep_table("sender-reputation vs credential rotation",
                  {"credentials", "accuracy_round_20"});
  for (const bool rotate : {false, true}) {
    ReputationStore store;
    Rng rng(7);
    double last_accuracy = 0;
    for (int round = 0; round < 20; ++round) {
      Scene scene = build_scene(0.3, 4, rng);
      if (rotate) {
        // Every credential is fresh each round (rotation between rounds).
        for (auto& r : scene.air) {
          r.reporter_credential += static_cast<std::uint64_t>(round) * 100000;
        }
      }
      const ReputationWeightedVote validator(store);
      last_accuracy = accuracy(validator, scene);
      // Feedback: outcomes become known afterwards; reputation updates.
      for (const Report& r : scene.air) {
        store.record(r.reporter_credential, r.truthful);
      }
    }
    rep_table.add_row({rotate ? "rotating (fresh each round)" : "stable",
                       Table::num(last_accuracy, 2)});
  }
  reporter.emit(rep_table);

  std::cout
      << "Shape vs §III.D: majority voting degrades linearly with attacker\n"
         "share and collapses under Sybil; distance weighting resists the\n"
         "far-away denial pattern; reputation only helps when credentials\n"
         "persist — rotation resets it to a majority vote, which is the\n"
         "paper's argument for validating content, not senders.\n";
  return reporter.finish();
}
