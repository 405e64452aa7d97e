// Canonical DAG workload shapes (paper §II.C scenario families):
//
//   chain     A->B->C->...            a sensor processing pipeline
//   fork-join source->N maps->reduce  map-reduce over member vehicles
//   diamond   src->{A,B}->fusion      two-branch sensor fusion
//   layered   L layers x W nodes,     randomized mixed workloads; every
//             random inter-layer      non-source node keeps >=1 parent so
//             edges                   no layer is trivially independent
//
// Node work and edge transfer sizes are exponential draws from the
// generator's own forked Rng stream (the usual Rng::fork discipline), so a
// stream of graphs is a pure function of (config, seed).
#pragma once

#include "dag/task_graph.h"
#include "util/rng.h"
#include "util/time.h"

namespace vcl::dag {

enum class DagShape : std::uint8_t { kChain, kForkJoin, kDiamond, kLayered };

struct DagWorkloadConfig {
  double mean_node_work = 15.0;     // exponential, work units per node
  double mean_transfer_mb = 1.0;    // exponential, MB per edge
  double mean_output_mb = 0.5;      // exponential, MB per node output
  std::size_t chain_length = 6;
  std::size_t fanout = 6;           // fork-join branch count
  std::size_t layers = 4;           // layered-random depth
  std::size_t layer_width = 3;
};

class DagWorkloadGenerator {
 public:
  DagWorkloadGenerator(DagWorkloadConfig config, Rng rng)
      : config_(config), rng_(rng) {}

  // One graph of the given shape, sealed and ready to submit.
  [[nodiscard]] TaskGraph make(DagShape shape);
  // Cycles the four shapes deterministically (chain, fork-join, diamond,
  // layered, chain, ...) with fresh random weights each time.
  [[nodiscard]] TaskGraph next();

 private:
  [[nodiscard]] double draw_work() {
    return rng_.exponential(1.0 / config_.mean_node_work);
  }
  [[nodiscard]] double draw_transfer() {
    return rng_.exponential(1.0 / config_.mean_transfer_mb);
  }
  [[nodiscard]] double draw_output() {
    return rng_.exponential(1.0 / config_.mean_output_mb);
  }

  DagWorkloadConfig config_;
  Rng rng_;
  std::size_t next_shape_ = 0;
};

}  // namespace vcl::dag
