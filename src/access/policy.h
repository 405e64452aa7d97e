// Policy trees: AND / OR / k-of-n threshold gates over attribute leaves.
//
// Textual form parsed by Policy::parse:
//   expr   := term ('|' term)*            -- OR
//   term   := factor ('&' factor)*        -- AND
//   factor := ATTR | '(' expr ')' | INT 'of' '(' expr (',' expr)* ')'
// Example: "(role:head & zone:a3) | 2of(level:4, sensor:lidar, owner:fleet)"
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "access/attribute.h"

namespace vcl::access {

enum class GateKind : std::uint8_t { kLeaf, kAnd, kOr, kThreshold };

struct PolicyNode {
  GateKind kind = GateKind::kLeaf;
  Attribute attribute;   // kLeaf
  std::size_t threshold = 0;  // kThreshold: k of children
  std::vector<std::unique_ptr<PolicyNode>> children;

  // Leaf ids are assigned in depth-first order by Policy.
  std::size_t leaf_id = 0;
};

class Policy {
 public:
  // Parses the textual form; nullopt on syntax errors.
  static std::optional<Policy> parse(const std::string& text);

  Policy(Policy&&) = default;
  Policy& operator=(Policy&&) = default;
  // Deep copy (policies travel with data packages).
  [[nodiscard]] Policy clone() const;

  [[nodiscard]] bool satisfied(const AttributeSet& attrs) const;
  [[nodiscard]] const PolicyNode& root() const { return *root_; }
  [[nodiscard]] std::size_t leaf_count() const { return leaf_count_; }
  [[nodiscard]] std::string to_string() const;

 private:
  explicit Policy(std::unique_ptr<PolicyNode> root);
  void index_leaves();

  std::unique_ptr<PolicyNode> root_;
  std::size_t leaf_count_ = 0;
};

}  // namespace vcl::access
