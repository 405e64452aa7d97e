#include "access/policy.h"

#include <cctype>
#include <functional>
#include <sstream>

namespace vcl::access {
namespace {

// Recursive-descent parser over the grammar in the header.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::unique_ptr<PolicyNode> run() {
    auto node = parse_expr();
    skip_ws();
    if (node == nullptr || pos_ != text_.size()) return nullptr;
    return node;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool is_attr_char(char c) const {
    return std::isalnum(static_cast<unsigned char>(c)) || c == ':' ||
           c == '_' || c == '-' || c == '.';
  }

  std::unique_ptr<PolicyNode> parse_expr() {
    auto first = parse_term();
    if (first == nullptr) return nullptr;
    if (!peek('|')) return first;
    auto node = std::make_unique<PolicyNode>();
    node->kind = GateKind::kOr;
    node->children.push_back(std::move(first));
    while (eat('|')) {
      auto next = parse_term();
      if (next == nullptr) return nullptr;
      node->children.push_back(std::move(next));
    }
    return node;
  }

  std::unique_ptr<PolicyNode> parse_term() {
    auto first = parse_factor();
    if (first == nullptr) return nullptr;
    if (!peek('&')) return first;
    auto node = std::make_unique<PolicyNode>();
    node->kind = GateKind::kAnd;
    node->children.push_back(std::move(first));
    while (eat('&')) {
      auto next = parse_factor();
      if (next == nullptr) return nullptr;
      node->children.push_back(std::move(next));
    }
    return node;
  }

  bool peek(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  std::unique_ptr<PolicyNode> parse_factor() {
    skip_ws();
    if (eat('(')) {
      auto inner = parse_expr();
      if (inner == nullptr || !eat(')')) return nullptr;
      return inner;
    }
    // Threshold: INT 'of' '(' ... ')'
    const std::size_t save = pos_;
    if (pos_ < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      std::size_t k = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        k = k * 10 + static_cast<std::size_t>(text_[pos_] - '0');
        ++pos_;
      }
      if (pos_ + 1 < text_.size() && text_[pos_] == 'o' &&
          text_[pos_ + 1] == 'f') {
        pos_ += 2;
        if (!eat('(')) return nullptr;
        auto node = std::make_unique<PolicyNode>();
        node->kind = GateKind::kThreshold;
        node->threshold = k;
        do {
          auto child = parse_expr();
          if (child == nullptr) return nullptr;
          node->children.push_back(std::move(child));
        } while (eat(','));
        if (!eat(')')) return nullptr;
        if (k == 0 || k > node->children.size()) return nullptr;
        return node;
      }
      pos_ = save;  // not a threshold: fall through to attribute
    }
    // Attribute leaf.
    skip_ws();
    std::string attr;
    while (pos_ < text_.size() && is_attr_char(text_[pos_])) {
      attr.push_back(text_[pos_]);
      ++pos_;
    }
    if (attr.empty()) return nullptr;
    auto node = std::make_unique<PolicyNode>();
    node->kind = GateKind::kLeaf;
    node->attribute = attr;
    return node;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool node_satisfied(const PolicyNode& node, const AttributeSet& attrs) {
  switch (node.kind) {
    case GateKind::kLeaf:
      return attrs.has(node.attribute);
    case GateKind::kAnd:
      for (const auto& c : node.children) {
        if (!node_satisfied(*c, attrs)) return false;
      }
      return !node.children.empty();
    case GateKind::kOr:
      for (const auto& c : node.children) {
        if (node_satisfied(*c, attrs)) return true;
      }
      return false;
    case GateKind::kThreshold: {
      std::size_t n = 0;
      for (const auto& c : node.children) {
        if (node_satisfied(*c, attrs)) ++n;
      }
      return n >= node.threshold;
    }
  }
  return false;
}

std::unique_ptr<PolicyNode> clone_node(const PolicyNode& node) {
  auto out = std::make_unique<PolicyNode>();
  out->kind = node.kind;
  out->attribute = node.attribute;
  out->threshold = node.threshold;
  out->leaf_id = node.leaf_id;
  for (const auto& c : node.children) out->children.push_back(clone_node(*c));
  return out;
}

void node_to_string(const PolicyNode& node, std::ostringstream& os) {
  switch (node.kind) {
    case GateKind::kLeaf:
      os << node.attribute;
      return;
    case GateKind::kAnd:
    case GateKind::kOr: {
      os << "(";
      const char* sep = node.kind == GateKind::kAnd ? " & " : " | ";
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) os << sep;
        node_to_string(*node.children[i], os);
      }
      os << ")";
      return;
    }
    case GateKind::kThreshold: {
      os << node.threshold << "of(";
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) os << ", ";
        node_to_string(*node.children[i], os);
      }
      os << ")";
      return;
    }
  }
}

}  // namespace

Policy::Policy(std::unique_ptr<PolicyNode> root) : root_(std::move(root)) {
  index_leaves();
}

std::optional<Policy> Policy::parse(const std::string& text) {
  Parser parser(text);
  auto root = parser.run();
  if (root == nullptr) return std::nullopt;
  return Policy(std::move(root));
}

Policy Policy::clone() const { return Policy(clone_node(*root_)); }

void Policy::index_leaves() {
  leaf_count_ = 0;
  std::function<void(PolicyNode&)> walk = [&](PolicyNode& n) {
    if (n.kind == GateKind::kLeaf) {
      n.leaf_id = leaf_count_++;
      return;
    }
    for (auto& c : n.children) walk(*c);
  };
  walk(*root_);
}

bool Policy::satisfied(const AttributeSet& attrs) const {
  return node_satisfied(*root_, attrs);
}

std::string Policy::to_string() const {
  std::ostringstream os;
  node_to_string(*root_, os);
  return os.str();
}

}  // namespace vcl::access
