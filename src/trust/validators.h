// Content validators (paper §V.D component 2, after Raya et al. [32]).
//
// Each validator turns an event cluster — possibly containing conflicting
// positive/negative claims — into a trust score in [0,1]; `accepted` uses a
// 0.5 threshold. Validators never look at ground-truth fields.
#pragma once

#include <memory>

#include "trust/classifier.h"
#include "trust/reputation.h"

namespace vcl::trust {

struct TrustDecision {
  double score = 0.0;  // belief that the event is real
  bool accepted = false;
};

class Validator {
 public:
  virtual ~Validator() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual TrustDecision evaluate(
      const EventCluster& cluster) const = 0;
};

// Unweighted majority of positive claims.
class MajorityVote final : public Validator {
 public:
  [[nodiscard]] const char* name() const override { return "majority"; }
  [[nodiscard]] TrustDecision evaluate(const EventCluster& c) const override;
};

// Votes weighted by witness proximity to the claimed event: a reporter that
// claims to have been far away carries less evidence (half weight at 150 m).
class DistanceWeightedVote final : public Validator {
 public:
  [[nodiscard]] const char* name() const override { return "dist_weighted"; }
  [[nodiscard]] TrustDecision evaluate(const EventCluster& c) const override;
};

// Bayesian update from a 0.5 prior with per-witness sensor accuracy
// alpha = 0.8: each positive claim multiplies the odds by alpha/(1-alpha),
// each negative divides (Raya et al.'s Bayesian-inference instantiation).
class BayesianInference final : public Validator {
 public:
  [[nodiscard]] const char* name() const override { return "bayesian"; }
  [[nodiscard]] TrustDecision evaluate(const EventCluster& c) const override;
};

// Sender-reputation baseline (the approach §III.D argues is insufficient):
// votes weighted by the reporter credential's reputation score.
class ReputationWeightedVote final : public Validator {
 public:
  explicit ReputationWeightedVote(const ReputationStore& store)
      : store_(store) {}
  [[nodiscard]] const char* name() const override { return "reputation"; }
  [[nodiscard]] TrustDecision evaluate(const EventCluster& c) const override;

 private:
  const ReputationStore& store_;
};

}  // namespace vcl::trust
