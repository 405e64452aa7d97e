// Credit-based incentives for resource lending (after Kong et al. [17]:
// "a secure and privacy-preserving incentive framework for vehicular cloud
// on the road").
//
// Vehicles spend credits to submit work and earn credits by executing other
// vehicles' tasks. A requester that only consumes (a free rider) drains its
// balance and gets throttled; a lender accumulates spending power — the
// economic loop that makes resource pooling individually rational.
// Credentials are pseudonymous ids, so the ledger learns balances, not
// identities (the privacy-preserving part is inherited from the auth
// layer's pseudonym handling).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/ids.h"

namespace vcl::vcloud {

struct IncentiveConfig {
  double initial_credit = 50.0;
  double price_per_work = 1.0;  // requester pays per work unit
  double earn_per_work = 0.8;   // worker earns per work unit (the spread
                                // funds the broker/system overhead)
};

class IncentiveLedger {
 public:
  explicit IncentiveLedger(IncentiveConfig config = {}) : config_(config) {}

  [[nodiscard]] double balance(std::uint64_t account) const;

  // Charges the requester at submission; false (and no charge) when the
  // balance is insufficient — the submission should be refused.
  bool charge(std::uint64_t account, double work);
  // Credits the worker at completion.
  void reward(std::uint64_t account, double work);

  [[nodiscard]] std::size_t throttled() const { return throttled_; }
  [[nodiscard]] std::size_t accounts() const { return balances_.size(); }

 private:
  double& account(std::uint64_t id);

  IncentiveConfig config_;
  std::unordered_map<std::uint64_t, double> balances_;
  std::size_t throttled_ = 0;
};

}  // namespace vcl::vcloud
