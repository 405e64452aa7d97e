#include "vcloud/handover.h"

#include <algorithm>

#include "crypto/cost_model.h"

namespace vcl::vcloud {

namespace {
constexpr double kCheckpointMbBase = 0.5;     // minimum checkpoint size
constexpr double kCheckpointMbPerWork = 0.1;  // grows with completed work
}  // namespace

double checkpoint_mb(const Task& task) {
  return kCheckpointMbBase + kCheckpointMbPerWork * task.progress;
}

SimTime migration_latency(const Task& task, const ResourceProfile& from,
                          const ResourceProfile& to) {
  const double mb = checkpoint_mb(task);
  const double link_mbps = std::min(from.bandwidth_mbps, to.bandwidth_mbps);
  const SimTime transfer = mb * 8.0 / std::max(link_mbps, 0.1);
  return transfer + (crypto::cost(crypto::Op::kKemEncap) +
                     crypto::cost(crypto::Op::kKemDecap) +
                     // Integrity over the checkpoint, one HMAC per MB.
                     crypto::cost(crypto::Op::kHmac) * std::max(1.0, mb));
}

}  // namespace vcl::vcloud
