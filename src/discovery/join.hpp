// The requester-side "join" of per-attribute sub-query results.
//
// Paper §III: "The requester node then concatenates the results in a
// database-like 'join' operation based on ip_addr. The results are the nodes
// that have desired resource by the requester." A provider satisfies the
// multi-attribute query iff it appears in the result set of every sub-query.
//
// Each sub-query's matches reach the join sorted by provider: DedupMatches
// sorts them, and the result cache stores them after it. So a sub-query's
// provider set is one linear pass, and only the intersection searches.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "resource/resource_info.hpp"

namespace lorm::discovery {

/// Intersects the provider sets of all sub-query results. Each inner vector
/// holds the matches of one sub-query; the output is the sorted set of
/// providers present in every one of them. An empty outer vector joins to an
/// empty set.
std::vector<NodeAddr> JoinProviders(
    const std::vector<std::vector<resource::ResourceInfo>>& per_sub);

/// Extracts the sorted, deduplicated provider set of one sub-query's
/// matches into `out` (cleared first). Matches sorted by provider, as
/// DedupMatches leaves them, cost one linear pass; any other order is
/// sorted as well.
void ProvidersOf(const std::vector<resource::ResourceInfo>& matches,
                 std::vector<NodeAddr>& out);

/// acc <- acc ∩ cur via a galloping merge: iterate the smaller side and
/// probe forward in the larger with doubling steps, then binary-search the
/// last step, so a k-attribute join costs O(min·log(max/min)) instead of
/// O(acc + cur) when selectivities are skewed. Both inputs must be sorted
/// and unique; the (sorted, unique) output is identical to
/// std::set_intersection. `tmp` is scratch.
void IntersectSorted(std::vector<NodeAddr>& acc,
                     const std::vector<NodeAddr>& cur,
                     std::vector<NodeAddr>& tmp);

/// Requester-side deduplication of one sub-query's matches: with directory
/// replication a range walk can see the same tuple on several nodes; the
/// requester keeps one copy of each ⟨attribute, value, provider⟩.
void DedupMatches(std::vector<resource::ResourceInfo>& matches);

}  // namespace lorm::discovery
