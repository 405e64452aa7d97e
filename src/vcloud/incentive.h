// Credit-based incentives for resource lending (after Kong et al. [17]:
// "a secure and privacy-preserving incentive framework for vehicular cloud
// on the road").
//
// Vehicles start with 50 credits, spend 1 credit per work unit to submit
// work and earn 0.8 per work unit by executing other vehicles' tasks (the
// spread funds the broker/system overhead). A requester that only
// consumes (a free rider) drains its balance and gets throttled; a lender
// accumulates spending power — the economic loop that makes resource
// pooling individually rational.
// Credentials are pseudonymous ids, so the ledger learns balances, not
// identities (the privacy-preserving part is inherited from the auth
// layer's pseudonym handling).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/ids.h"

namespace vcl::vcloud {

class IncentiveLedger {
 public:
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

  std::unordered_map<std::uint64_t, double> balances_;
  std::size_t throttled_ = 0;
};

}  // namespace vcl::vcloud
