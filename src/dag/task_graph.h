// TaskGraph: a validated DAG of dependent subtasks (paper §II.C's
// sensor-fusion / map-reduce pipelines; arXiv 2210.07337's decomposition
// model).
//
// Nodes are subtasks with a compute weight (work units, executed by one
// cloud worker) and an output size; edges are data dependencies carrying a
// transfer size — a node's input_mb at dispatch is the sum of its incoming
// transfers, so routing an intermediate between hosts is charged on the
// same channel model ordinary task inputs use.
//
// seal() freezes the graph: it validates (edge bounds, negative weights,
// acyclicity — a cycle is reported by naming the offending back-edge),
// builds per-node parent/child lists, a deterministic topological order
// (Kahn's algorithm, smallest-ready-index-first, so the order is a pure
// function of the construction sequence) and each node's downstream
// critical weight — the work on the heaviest dependency chain rooted at
// the node, which the chaos storm shape uses to find the current
// critical-path holder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vcl::dag {

struct DagNode {
  double work = 10.0;      // compute weight, work units
  double output_mb = 0.1;  // produced intermediate / final result size
};

struct DagEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  double transfer_mb = 0.0;  // shipped from->to once `from` succeeds
};

class TaskGraph {
 public:
  // Returns the new node's index.
  std::size_t add_node(DagNode node);
  std::size_t add_node(double work, double output_mb = 0.1) {
    return add_node(DagNode{work, output_mb});
  }
  void add_edge(std::size_t from, std::size_t to, double transfer_mb = 0.0);

  // Validates and freezes the graph; throws std::invalid_argument with the
  // first problem (same messages check() reports). Idempotent.
  void seal();
  [[nodiscard]] bool sealed() const { return sealed_; }

  // Empty string when the graph is a well-formed DAG, else a one-line
  // description of the first problem: empty graph, out-of-range or
  // self-loop edges, negative node/edge weights, or a cycle — reported as
  // "cycle: back-edge N->M closes a dependency cycle".
  [[nodiscard]] std::string check() const;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const DagNode& node(std::size_t i) const { return nodes_[i]; }
  [[nodiscard]] const std::vector<DagEdge>& edges() const { return edges_; }

  // The following require seal().
  [[nodiscard]] const std::vector<std::size_t>& parents(std::size_t i) const {
    return parents_[i];
  }
  [[nodiscard]] const std::vector<std::size_t>& children(std::size_t i) const {
    return children_[i];
  }
  // Deterministic topological order over node indices.
  [[nodiscard]] const std::vector<std::size_t>& topo_order() const {
    return topo_;
  }
  // Work on the heaviest dependency chain starting at (and including) i.
  [[nodiscard]] double critical_weight(std::size_t i) const {
    return critical_weight_[i];
  }
  // Sum of incoming transfer sizes: the node's dispatch input.
  [[nodiscard]] double input_mb(std::size_t i) const { return input_mb_[i]; }
  // Total work across all nodes (benches: offered load per graph).
  [[nodiscard]] double total_work() const;

 private:
  std::vector<DagNode> nodes_;
  std::vector<DagEdge> edges_;
  // Built by seal():
  std::vector<std::vector<std::size_t>> parents_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<std::size_t> topo_;
  std::vector<double> critical_weight_;
  std::vector<double> input_mb_;
  bool sealed_ = false;
};

}  // namespace vcl::dag
