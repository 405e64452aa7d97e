#include "dag/task_graph.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace vcl::dag {

std::size_t TaskGraph::add_node(DagNode node) {
  sealed_ = false;
  nodes_.push_back(node);
  return nodes_.size() - 1;
}

void TaskGraph::add_edge(std::size_t from, std::size_t to,
                         double transfer_mb) {
  sealed_ = false;
  edges_.push_back(DagEdge{from, to, transfer_mb});
}

std::string TaskGraph::check() const {
  if (nodes_.empty()) return "graph has no nodes";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].work < 0.0) {
      std::ostringstream os;
      os << "node " << i << " has negative work " << nodes_[i].work;
      return os.str();
    }
    if (nodes_[i].output_mb < 0.0) {
      std::ostringstream os;
      os << "node " << i << " has negative output_mb " << nodes_[i].output_mb;
      return os.str();
    }
  }
  for (const DagEdge& e : edges_) {
    if (e.from >= nodes_.size() || e.to >= nodes_.size()) {
      std::ostringstream os;
      os << "edge " << e.from << "->" << e.to << " references a node outside "
         << "0.." << nodes_.size() - 1;
      return os.str();
    }
    if (e.from == e.to) {
      std::ostringstream os;
      os << "edge " << e.from << "->" << e.to << " is a self-loop";
      return os.str();
    }
    if (e.transfer_mb < 0.0) {
      std::ostringstream os;
      os << "edge " << e.from << "->" << e.to << " has negative transfer_mb "
         << e.transfer_mb;
      return os.str();
    }
  }

  // Cycle detection: iterative DFS with tricolor marking. The first edge
  // into a node still on the stack is the back-edge that closes the cycle;
  // naming it makes the error actionable.
  std::vector<std::vector<std::size_t>> children(nodes_.size());
  for (const DagEdge& e : edges_) children[e.from].push_back(e.to);
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(nodes_.size(), kWhite);
  for (std::size_t root = 0; root < nodes_.size(); ++root) {
    if (color[root] != kWhite) continue;
    // Stack of (node, next-child cursor).
    std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
    color[root] = kGray;
    while (!stack.empty()) {
      auto& [u, cursor] = stack.back();
      if (cursor == children[u].size()) {
        color[u] = kBlack;
        stack.pop_back();
        continue;
      }
      const std::size_t v = children[u][cursor++];
      if (color[v] == kGray) {
        std::ostringstream os;
        os << "cycle: back-edge " << u << "->" << v
           << " closes a dependency cycle";
        return os.str();
      }
      if (color[v] == kWhite) {
        color[v] = kGray;
        stack.emplace_back(v, 0);
      }
    }
  }
  return {};
}

void TaskGraph::seal() {
  const std::string problem = check();
  if (!problem.empty()) {
    throw std::invalid_argument("TaskGraph: " + problem);
  }
  parents_.assign(nodes_.size(), {});
  children_.assign(nodes_.size(), {});
  input_mb_.assign(nodes_.size(), 0.0);
  std::vector<std::size_t> indegree(nodes_.size(), 0);
  for (const DagEdge& e : edges_) {
    children_[e.from].push_back(e.to);
    parents_[e.to].push_back(e.from);
    input_mb_[e.to] += e.transfer_mb;
    ++indegree[e.to];
  }
  for (auto& v : parents_) std::sort(v.begin(), v.end());
  for (auto& v : children_) std::sort(v.begin(), v.end());

  // Kahn's algorithm, always taking the smallest ready index: the order is
  // deterministic regardless of edge insertion order.
  topo_.clear();
  topo_.reserve(nodes_.size());
  std::set<std::size_t> ready;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) ready.insert(i);
  }
  while (!ready.empty()) {
    const std::size_t u = *ready.begin();
    ready.erase(ready.begin());
    topo_.push_back(u);
    for (const std::size_t v : children_[u]) {
      if (--indegree[v] == 0) ready.insert(v);
    }
  }

  // Downstream critical weight: reverse topological DP.
  critical_weight_.assign(nodes_.size(), 0.0);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const std::size_t u = *it;
    double heaviest_child = 0.0;
    for (const std::size_t v : children_[u]) {
      heaviest_child = std::max(heaviest_child, critical_weight_[v]);
    }
    critical_weight_[u] = nodes_[u].work + heaviest_child;
  }
  sealed_ = true;
}

double TaskGraph::total_work() const {
  double sum = 0.0;
  for (const DagNode& n : nodes_) sum += n.work;
  return sum;
}

}  // namespace vcl::dag
