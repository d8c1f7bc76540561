// Multi-attribute range queries.
//
// Paper §III: a resource requester describes needed resources as a set of
// per-attribute sub-queries (each a point or a range), resolved in parallel
// and combined with a database-like "join" on the provider address.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "resource/resource_info.hpp"

namespace lorm::resource {

/// One per-attribute condition of a multi-attribute query.
struct SubQuery {
  AttrId attr = 0;
  ValueRange range;

  bool IsPoint() const { return range.IsPoint(); }
  bool Matches(const ResourceInfo& info) const {
    return info.attr == attr && range.Contains(info.value);
  }
};

/// A multi-attribute (possibly range) resource query issued by `requester`.
struct MultiQuery {
  std::vector<SubQuery> subs;
  NodeAddr requester = kNoNode;

  bool IsRangeQuery() const;
  std::string ToString(const AttributeRegistry& registry) const;
};

/// Fluent builder used by examples and tests:
///   QueryBuilder(reg, requester)
///       .AtLeast("cpu_mhz", 1800)
///       .Between("mem_mb", 2048, 8192)
///       .Equals("os", "Linux")
///       .Build();
class QueryBuilder {
 public:
  QueryBuilder(const AttributeRegistry& registry, NodeAddr requester);

  QueryBuilder& Equals(std::string_view attr, double value);
  /// A text condition; throws ConfigError for a name not in the enumeration.
  QueryBuilder& Equals(std::string_view attr, std::string_view value);
  QueryBuilder& AtLeast(std::string_view attr, double value);
  QueryBuilder& AtMost(std::string_view attr, double value);
  QueryBuilder& Between(std::string_view attr, double lo, double hi);

  MultiQuery Build() const { return query_; }

 private:
  AttrId MustFind(std::string_view attr) const;

  const AttributeRegistry& registry_;
  MultiQuery query_;
};

}  // namespace lorm::resource
