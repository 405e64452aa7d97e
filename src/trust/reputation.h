// Sender reputation store (baseline after Son et al. [35]).
//
// Scores live in [0,1], start at 0.5 (unknown), and move a fifth of the way
// toward 1 on confirmed-correct reports and toward 0 on confirmed-wrong
// ones. The paper's critique — which E10 demonstrates — is that pseudonym
// rotation resets credentials faster than reputation can accumulate in an
// ephemeral network.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace vcl::trust {

class ReputationStore {
 public:
  [[nodiscard]] double score(std::uint64_t credential) const;
  // Feedback after an event outcome became known.
  void record(std::uint64_t credential, bool was_correct);
  [[nodiscard]] std::size_t known_credentials() const {
    return scores_.size();
  }

 private:
  std::unordered_map<std::uint64_t, double> scores_;
};

}  // namespace vcl::trust
