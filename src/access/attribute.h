// Attributes: the vocabulary access-control policies speak.
//
// v-cloud roles are contextual (paper §III.C): the same vehicle is
// "role:head" in one group and "role:buffer" in the next, its "zone:" and
// "level:" attributes shift with location and automation mode. Attributes
// are plain strings with a `key:value` convention; AttributeSet is the
// requester's current projection.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace vcl::access {

using Attribute = std::string;

class AttributeSet {
 public:
  AttributeSet() = default;
  AttributeSet(std::initializer_list<Attribute> attrs) : attrs_(attrs) {}

  void add(const Attribute& a) { attrs_.insert(a); }
  void remove(const Attribute& a) { attrs_.erase(a); }
  [[nodiscard]] bool has(const Attribute& a) const {
    return attrs_.count(a) != 0;
  }
  [[nodiscard]] std::size_t size() const { return attrs_.size(); }
  [[nodiscard]] const std::set<Attribute>& all() const { return attrs_; }
  [[nodiscard]] bool empty() const { return attrs_.empty(); }

  friend bool operator==(const AttributeSet& a, const AttributeSet& b) {
    return a.attrs_ == b.attrs_;
  }

 private:
  std::set<Attribute> attrs_;
};

}  // namespace vcl::access
