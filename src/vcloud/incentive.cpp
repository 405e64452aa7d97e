#include "vcloud/incentive.h"

namespace vcl::vcloud {

double& IncentiveLedger::account(std::uint64_t id) {
  return balances_.try_emplace(id, config_.initial_credit).first->second;
}

double IncentiveLedger::balance(std::uint64_t id) const {
  auto it = balances_.find(id);
  return it == balances_.end() ? config_.initial_credit : it->second;
}

bool IncentiveLedger::charge(std::uint64_t id, double work) {
  double& bal = account(id);
  const double cost = work * config_.price_per_work;
  if (bal < cost) {
    ++throttled_;
    return false;
  }
  bal -= cost;
  return true;
}

void IncentiveLedger::reward(std::uint64_t id, double work) {
  account(id) += work * config_.earn_per_work;
}

}  // namespace vcl::vcloud
