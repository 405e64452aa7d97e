#include "vcloud/incentive.h"

namespace vcl::vcloud {
namespace {

constexpr double kInitialCredit = 50.0;
constexpr double kPricePerWork = 1.0;  // requester pays per work unit
constexpr double kEarnPerWork = 0.8;   // worker earns per work unit

}  // namespace

double& IncentiveLedger::account(std::uint64_t id) {
  return balances_.try_emplace(id, kInitialCredit).first->second;
}

double IncentiveLedger::balance(std::uint64_t id) const {
  auto it = balances_.find(id);
  return it == balances_.end() ? kInitialCredit : it->second;
}

bool IncentiveLedger::charge(std::uint64_t id, double work) {
  double& bal = account(id);
  const double cost = work * kPricePerWork;
  if (bal < cost) {
    ++throttled_;
    return false;
  }
  bal -= cost;
  return true;
}

void IncentiveLedger::reward(std::uint64_t id, double work) {
  account(id) += work * kEarnPerWork;
}

}  // namespace vcl::vcloud
