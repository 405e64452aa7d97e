#include "dag/generator.h"

#include <algorithm>

namespace vcl::dag {
namespace {

constexpr double kEdgeProb = 0.5;  // layered-random inter-layer edge prob

}  // namespace

TaskGraph DagWorkloadGenerator::make(DagShape shape) {
  TaskGraph g;
  switch (shape) {
    case DagShape::kChain: {
      const std::size_t n = std::max<std::size_t>(2, config_.chain_length);
      std::size_t prev = g.add_node(draw_work(), draw_output());
      for (std::size_t i = 1; i < n; ++i) {
        const std::size_t cur = g.add_node(draw_work(), draw_output());
        g.add_edge(prev, cur, draw_transfer());
        prev = cur;
      }
      break;
    }
    case DagShape::kForkJoin: {
      const std::size_t fan = std::max<std::size_t>(2, config_.fanout);
      const std::size_t source = g.add_node(draw_work(), draw_output());
      std::vector<std::size_t> maps;
      maps.reserve(fan);
      for (std::size_t i = 0; i < fan; ++i) {
        const std::size_t m = g.add_node(draw_work(), draw_output());
        g.add_edge(source, m, draw_transfer());
        maps.push_back(m);
      }
      const std::size_t reduce = g.add_node(draw_work(), draw_output());
      for (const std::size_t m : maps) g.add_edge(m, reduce, draw_transfer());
      break;
    }
    case DagShape::kDiamond: {
      const std::size_t source = g.add_node(draw_work(), draw_output());
      const std::size_t left = g.add_node(draw_work(), draw_output());
      const std::size_t right = g.add_node(draw_work(), draw_output());
      const std::size_t fusion = g.add_node(draw_work(), draw_output());
      g.add_edge(source, left, draw_transfer());
      g.add_edge(source, right, draw_transfer());
      g.add_edge(left, fusion, draw_transfer());
      g.add_edge(right, fusion, draw_transfer());
      break;
    }
    case DagShape::kLayered: {
      const std::size_t layers = std::max<std::size_t>(2, config_.layers);
      const std::size_t width = std::max<std::size_t>(1, config_.layer_width);
      std::vector<std::size_t> prev_layer;
      for (std::size_t l = 0; l < layers; ++l) {
        std::vector<std::size_t> layer;
        layer.reserve(width);
        for (std::size_t i = 0; i < width; ++i) {
          const std::size_t u = g.add_node(draw_work(), draw_output());
          layer.push_back(u);
          if (l == 0) continue;
          bool connected = false;
          for (const std::size_t p : prev_layer) {
            if (rng_.bernoulli(kEdgeProb)) {
              g.add_edge(p, u, draw_transfer());
              connected = true;
            }
          }
          if (!connected) {
            // Keep the layering honest: every non-source node depends on
            // at least one node of the previous layer.
            const std::size_t p = prev_layer[rng_.index(prev_layer.size())];
            g.add_edge(p, u, draw_transfer());
          }
        }
        prev_layer = std::move(layer);
      }
      break;
    }
  }
  g.seal();
  return g;
}

TaskGraph DagWorkloadGenerator::next() {
  static constexpr DagShape kCycle[] = {DagShape::kChain, DagShape::kForkJoin,
                                        DagShape::kDiamond, DagShape::kLayered};
  const DagShape shape = kCycle[next_shape_ % 4];
  ++next_shape_;
  return make(shape);
}

}  // namespace vcl::dag
