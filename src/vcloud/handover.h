// Task handover cost model (paper §III.A open problem: "how [can] the
// vehicle hand over the unfinished, encrypted task to some other vehicles
// ... without bringing too much overhead").
//
// A checkpoint is 0.5 MB plus 0.1 MB per unit of completed work; migrating
// it costs transfer time (checkpoint over the V2V link) plus sealing and
// unsealing (KEM encapsulation at the source, decapsulation at the target,
// an HMAC per MB) charged at production-crypto rates via crypto::cost.
// Checkpoints are always sealed.
#pragma once

#include "vcloud/resource.h"
#include "vcloud/task.h"

namespace vcl::vcloud {

struct HandoverConfig {
  bool enabled = true;
};

// Checkpoint size for a task's current progress, MB.
double checkpoint_mb(const Task& task);

// End-to-end migration latency: seal + transfer + unseal.
SimTime migration_latency(const Task& task, const ResourceProfile& from,
                          const ResourceProfile& to);

}  // namespace vcl::vcloud
