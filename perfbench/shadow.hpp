// Layer-by-layer replay of one query's classic (uncached, unplanned) path.
//
// The traced run needs unit costs per layer — ns per routing hop, per
// visited node, per directory probe, per joined provider — without
// instrumenting the library. ShadowExecutor resolves a query exactly as the
// services' Query() does, but through the modules' public functions
// (KeyFor, LookupInto, WalkBegin/Advance/Finish, ClusterWalkBegin/Advance,
// DirectoryStore::Find + ForEachMatch, DedupMatches + JoinProviders), with a
// span around each call. Walks run first and record their visited nodes;
// the directory scans of those nodes run as one span after the walk, so a
// visit is never charged two clock reads. The answer and the work counts
// are compared against Query()'s, which checks that the decomposition is
// the real path.
#pragma once

#include <cstdint>
#include <vector>

#include "chord/chord.hpp"
#include "cycloid/cycloid.hpp"
#include "discovery/discovery.hpp"
#include "harness/setup.hpp"
#include "resource/attribute.hpp"
#include "trace.hpp"

namespace perfbench {

/// Work done by the shadow path, summed over the queries it ran.
struct ShadowCounts {
  std::uint64_t queries = 0;
  std::uint64_t keys = 0;         ///< placement keys computed
  std::uint64_t lookups = 0;
  std::uint64_t hops = 0;
  std::uint64_t walk_visited = 0; ///< nodes visited by successor/cluster walks
  std::uint64_t probes = 0;       ///< directory probes (visited nodes)
  std::uint64_t matches = 0;      ///< directory entries returned
  std::uint64_t join_inputs = 0;  ///< matches fed to the requester's join

  ShadowCounts& operator+=(const ShadowCounts& o) {
    queries += o.queries;
    keys += o.keys;
    lookups += o.lookups;
    hops += o.hops;
    walk_visited += o.walk_visited;
    probes += o.probes;
    matches += o.matches;
    join_inputs += o.join_inputs;
    return *this;
  }
};

struct ShadowAnswer {
  std::vector<lorm::NodeAddr> providers;
  std::uint64_t hops = 0;
  std::uint64_t visited = 0;
  bool failed = false;
};

class ShadowExecutor {
 public:
  ShadowExecutor(lorm::harness::SystemKind kind,
                 const lorm::discovery::DiscoveryService& service,
                 const lorm::resource::AttributeRegistry& registry,
                 std::uint8_t system);

  void Run(const lorm::resource::MultiQuery& q, std::uint64_t request,
           Tracer& tracer, ShadowAnswer& out);

  const ShadowCounts& counts() const { return counts_; }
  void ResetCounts() { counts_ = {}; }

 private:
  template <typename Ring, typename Store>
  void RingSub(const Ring& ring, const Store& store,
               const lorm::resource::SubQuery& sub, double lo, double hi,
               lorm::chord::Key key_lo, lorm::chord::Key key_hi, bool walk,
               bool value_records_only, lorm::NodeAddr requester,
               std::uint64_t request, Tracer& tracer, ShadowAnswer& out,
               std::vector<lorm::resource::ResourceInfo>& matches);
  template <typename Ring>
  bool AttributeRoot(const Ring& ring, lorm::chord::Key key,
                     lorm::NodeAddr requester, std::uint64_t request,
                     Tracer& tracer, ShadowAnswer& out);
  void LormSub(const lorm::resource::SubQuery& sub, double lo, double hi,
               lorm::NodeAddr requester, std::uint64_t request, Tracer& tracer,
               ShadowAnswer& out,
               std::vector<lorm::resource::ResourceInfo>& matches);

  lorm::harness::SystemKind kind_;
  const lorm::discovery::DiscoveryService& service_;
  const lorm::resource::AttributeRegistry& registry_;
  std::uint8_t system_;
  Layer route_layer_;
  Layer walk_layer_;
  ShadowCounts counts_;
  lorm::chord::LookupResult chord_res_;
  lorm::cycloid::LookupResult cycloid_res_;
  std::vector<lorm::NodeAddr> visited_;
  std::vector<std::vector<lorm::resource::ResourceInfo>> per_sub_;
};

}  // namespace perfbench
