#include "trust/reputation.h"

#include <algorithm>

namespace vcl::trust {
namespace {

constexpr double kLearningRate = 0.2;

}  // namespace

double ReputationStore::score(std::uint64_t credential) const {
  auto it = scores_.find(credential);
  return it == scores_.end() ? 0.5 : it->second;
}

void ReputationStore::record(std::uint64_t credential, bool was_correct) {
  double& s = scores_.try_emplace(credential, 0.5).first->second;
  const double target = was_correct ? 1.0 : 0.0;
  s = std::clamp(s + kLearningRate * (target - s), 0.0, 1.0);
}

}  // namespace vcl::trust
