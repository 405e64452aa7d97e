#include "net/dissemination.h"

#include <algorithm>

namespace vcl::net {

const char* to_string(DisseminationPolicy p) {
  switch (p) {
    case DisseminationPolicy::kFifo: return "fifo";
    case DisseminationPolicy::kMostRequested: return "most_requested";
    case DisseminationPolicy::kDeficitFair: return "deficit_fair";
  }
  return "unknown";
}

void DisseminationScheduler::request(VehicleId requester, FileId item,
                                     SimTime now) {
  queues_[item.value()].push_back(Pending{requester, now});
}

FileId DisseminationScheduler::serve_slot(SimTime now) {
  // Deficit accrual happens every slot regardless of policy (cheap, and
  // keeps switching policies mid-run well-defined).
  for (auto& [item, q] : queues_) {
    if (!q.empty()) deficit_[item] += 1.0;
  }

  std::uint64_t best = 0;
  bool found = false;
  switch (policy_) {
    case DisseminationPolicy::kFifo: {
      SimTime oldest = 1e300;
      for (const auto& [item, q] : queues_) {
        if (!q.empty() && q.front().at < oldest) {
          oldest = q.front().at;
          best = item;
          found = true;
        }
      }
      break;
    }
    case DisseminationPolicy::kMostRequested: {
      std::size_t most = 0;
      for (const auto& [item, q] : queues_) {
        if (q.size() > most || (q.size() == most && found && item < best)) {
          if (q.empty()) continue;
          most = q.size();
          best = item;
          found = true;
        }
      }
      break;
    }
    case DisseminationPolicy::kDeficitFair: {
      double top = -1.0;
      for (const auto& [item, q] : queues_) {
        if (q.empty()) continue;
        const double d = deficit_[item];
        if (d > top || (d == top && found && item < best)) {
          top = d;
          best = item;
          found = true;
        }
      }
      break;
    }
  }
  if (!found) return FileId{};

  auto& q = queues_[best];
  for (const Pending& p : q) {
    ++served_;
    const double w = now - p.at;
    wait_.add(w);
    waits_.push_back(w);
    item_wait_[best].add(w);
  }
  q.clear();
  deficit_[best] = 0.0;
  return FileId{best};
}

double DisseminationScheduler::jain_fairness() const {
  // Jain over per-item mean waits, inverted so that "fair" means items see
  // SIMILAR service (index of 1/(mean wait) values).
  std::vector<double> rates;
  for (const auto& [item, acc] : item_wait_) {
    if (acc.count() == 0) continue;
    rates.push_back(1.0 / std::max(acc.mean(), 1e-6));
  }
  if (rates.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double r : rates) {
    sum += r;
    sum_sq += r * r;
  }
  return (sum * sum) /
         (static_cast<double>(rates.size()) * sum_sq);
}

}  // namespace vcl::net
