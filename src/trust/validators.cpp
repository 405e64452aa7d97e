#include "trust/validators.h"

#include <algorithm>
#include <cmath>

namespace vcl::trust {
namespace {

constexpr double kHalfWeightDistance = 150.0;  // m
constexpr double kSensorAccuracy = 0.8;        // alpha

TrustDecision from_score(double score) {
  TrustDecision d;
  d.score = std::clamp(score, 0.0, 1.0);
  d.accepted = d.score > 0.5;
  return d;
}

}  // namespace

TrustDecision MajorityVote::evaluate(const EventCluster& c) const {
  if (c.reports.empty()) return from_score(0.0);
  std::size_t positive = 0;
  for (const Report& r : c.reports) positive += r.positive ? 1 : 0;
  return from_score(static_cast<double>(positive) /
                    static_cast<double>(c.reports.size()));
}

TrustDecision DistanceWeightedVote::evaluate(const EventCluster& c) const {
  double total = 0.0;
  double positive = 0.0;
  for (const Report& r : c.reports) {
    const double d = geo::distance(r.reporter_pos, c.centroid);
    const double w = kHalfWeightDistance / (kHalfWeightDistance + d);
    total += w;
    if (r.positive) positive += w;
  }
  if (total <= 0.0) return from_score(0.0);
  return from_score(positive / total);
}

TrustDecision BayesianInference::evaluate(const EventCluster& c) const {
  if (c.reports.empty()) return from_score(0.0);
  // Log-odds accumulation; prior = 0.5 (log-odds 0).
  const double step = std::log(kSensorAccuracy / (1.0 - kSensorAccuracy));
  double log_odds = 0.0;
  for (const Report& r : c.reports) {
    log_odds += r.positive ? step : -step;
  }
  const double p = 1.0 / (1.0 + std::exp(-log_odds));
  return from_score(p);
}

TrustDecision ReputationWeightedVote::evaluate(const EventCluster& c) const {
  double total = 0.0;
  double positive = 0.0;
  for (const Report& r : c.reports) {
    const double w = store_.score(r.reporter_credential);
    total += w;
    if (r.positive) positive += w;
  }
  if (total <= 0.0) return from_score(0.0);
  return from_score(positive / total);
}

}  // namespace vcl::trust
