#include "shadow.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "discovery/d1ht_service.hpp"
#include "discovery/join.hpp"
#include "discovery/lorm_service.hpp"
#include "discovery/maan_service.hpp"
#include "discovery/mercury_service.hpp"
#include "discovery/ring_walk.hpp"
#include "discovery/sword_service.hpp"

namespace perfbench {

using lorm::NodeAddr;
using lorm::harness::SystemKind;
namespace discovery = lorm::discovery;
namespace resource = lorm::resource;

namespace {

template <typename Service>
const Service& As(const discovery::DiscoveryService& s) {
  const auto* p = dynamic_cast<const Service*>(&s);
  LORM_CHECK_MSG(p != nullptr, "shadow executor: service kind mismatch");
  return *p;
}

}  // namespace

ShadowExecutor::ShadowExecutor(SystemKind kind,
                               const discovery::DiscoveryService& service,
                               const resource::AttributeRegistry& registry,
                               std::uint8_t system)
    : kind_(kind), service_(service), registry_(registry), system_(system) {
  switch (kind_) {
    case SystemKind::kLorm:
      As<discovery::LormService>(service);
      route_layer_ = Layer::kCycloidLookup;
      walk_layer_ = Layer::kClusterWalk;
      break;
    case SystemKind::kD1ht:
      As<discovery::D1htService>(service);
      route_layer_ = Layer::kSingleHopLookup;
      walk_layer_ = Layer::kWalk;
      break;
    case SystemKind::kSword:
      As<discovery::SwordService>(service);
      route_layer_ = Layer::kChordLookup;
      walk_layer_ = Layer::kCount;
      break;
    case SystemKind::kMercury:
      As<discovery::MercuryService>(service);
      route_layer_ = Layer::kChordLookup;
      walk_layer_ = Layer::kWalk;
      break;
    case SystemKind::kMaan:
      As<discovery::MaanService>(service);
      route_layer_ = Layer::kChordLookup;
      walk_layer_ = Layer::kWalk;
      break;
  }
}

template <typename Ring>
bool ShadowExecutor::AttributeRoot(const Ring& ring, lorm::chord::Key key,
                                   NodeAddr requester, std::uint64_t request,
                                   Tracer& tracer, ShadowAnswer& out) {
  {
    Span span(tracer, route_layer_, system_, request);
    ring.LookupInto(key, requester, chord_res_);
    span.work = chord_res_.hops;
  }
  counts_.lookups += 1;
  counts_.hops += chord_res_.hops;
  out.hops += chord_res_.hops;
  if (!chord_res_.ok) {
    out.failed = true;
    return false;
  }
  // The attribute root is probed but contributes no value matches.
  out.visited += 1;
  counts_.probes += 1;
  return true;
}

template <typename Ring, typename Store>
void ShadowExecutor::RingSub(const Ring& ring, const Store& store,
                             const resource::SubQuery& sub, double lo,
                             double hi, lorm::chord::Key key_lo,
                             lorm::chord::Key key_hi, bool walk,
                             bool value_records_only, NodeAddr requester,
                             std::uint64_t request, Tracer& tracer,
                             ShadowAnswer& out,
                             std::vector<resource::ResourceInfo>& matches) {
  {
    Span span(tracer, route_layer_, system_, request);
    ring.LookupInto(key_lo, requester, chord_res_);
    span.work = chord_res_.hops;
  }
  counts_.lookups += 1;
  counts_.hops += chord_res_.hops;
  out.hops += chord_res_.hops;
  if (!chord_res_.ok) {
    out.failed = true;
    return;
  }
  visited_.clear();
  if (walk) {
    Span span(tracer, walk_layer_, system_, request);
    discovery::QueryStats stats;
    discovery::SuccessorWalkState st;
    discovery::WalkBegin(ring, chord_res_.owner, key_lo, key_hi, st);
    do {
      visited_.push_back(st.cur);
    } while (discovery::WalkAdvance(ring, st, stats));
    discovery::WalkFinish(st);
    span.work = visited_.size();
    counts_.walk_visited += visited_.size();
  } else {
    visited_.push_back(chord_res_.owner);
  }
  {
    Span span(tracer, Layer::kDirectory, system_, request);
    for (const NodeAddr node : visited_) {
      const auto* dir = store.Find(node);
      if (dir == nullptr) continue;
      dir->ForEachMatch(sub.attr, lo, hi, [&](const auto& e) {
        if (!value_records_only || e.tag == discovery::MaanService::kValueRecord) {
          matches.push_back(e.info);
        }
      });
    }
    span.work = visited_.size();
  }
  out.visited += visited_.size();
  counts_.probes += visited_.size();
  counts_.matches += matches.size();
}

void ShadowExecutor::LormSub(const resource::SubQuery& sub, double lo,
                             double hi, NodeAddr requester,
                             std::uint64_t request, Tracer& tracer,
                             ShadowAnswer& out,
                             std::vector<resource::ResourceInfo>& matches) {
  const auto& svc = As<discovery::LormService>(service_);
  const auto& net = svc.overlay();
  lorm::cycloid::CycloidId key_lo;
  lorm::cycloid::CycloidId key_hi;
  {
    Span span(tracer, Layer::kKey, system_, request);
    key_lo = svc.KeyFor(sub.attr, sub.range.lo);
    key_hi = svc.KeyFor(sub.attr, sub.range.hi);
    span.work = 2;
  }
  counts_.keys += 2;
  {
    Span span(tracer, route_layer_, system_, request);
    net.LookupInto(key_lo, requester, cycloid_res_);
    span.work = cycloid_res_.hops;
  }
  counts_.lookups += 1;
  counts_.hops += cycloid_res_.hops;
  out.hops += cycloid_res_.hops;
  if (!cycloid_res_.ok) {
    out.failed = true;
    return;
  }
  visited_.clear();
  {
    Span span(tracer, Layer::kClusterWalk, system_, request);
    discovery::QueryStats stats;
    discovery::ClusterWalkState st;
    discovery::ClusterWalkBegin(net, cycloid_res_.owner, key_lo, key_hi, st);
    do {
      visited_.push_back(st.cur);
    } while (discovery::ClusterWalkAdvance(net, st, stats));
    if (stats.failed) out.failed = true;
    span.work = visited_.size();
  }
  counts_.walk_visited += visited_.size();
  {
    Span span(tracer, Layer::kDirectory, system_, request);
    const auto& store = svc.directories();
    for (const NodeAddr node : visited_) {
      const auto* dir = store.Find(node);
      if (dir == nullptr) continue;
      dir->ForEachMatch(sub.attr, lo, hi,
                        [&](const auto& e) { matches.push_back(e.info); });
    }
    span.work = visited_.size();
  }
  out.visited += visited_.size();
  counts_.probes += visited_.size();
  counts_.matches += matches.size();
}

void ShadowExecutor::Run(const resource::MultiQuery& q, std::uint64_t request,
                         Tracer& tracer, ShadowAnswer& out) {
  Span query_span(tracer, Layer::kShadowQuery, system_, request);
  out.providers.clear();
  out.hops = 0;
  out.visited = 0;
  out.failed = false;
  per_sub_.resize(q.subs.size());
  for (std::size_t i = 0; i < q.subs.size(); ++i) {
    const resource::SubQuery& sub = q.subs[i];
    std::vector<resource::ResourceInfo>& matches = per_sub_[i];
    matches.clear();
    const auto& schema = registry_.Get(sub.attr);
    const double lo = schema.OrdinalOf(sub.range.lo);
    const double hi = schema.OrdinalOf(sub.range.hi);
    switch (kind_) {
      case SystemKind::kLorm:
        LormSub(sub, lo, hi, q.requester, request, tracer, out, matches);
        break;
      case SystemKind::kMercury: {
        const auto& svc = As<discovery::MercuryService>(service_);
        lorm::chord::Key key_lo = 0;
        lorm::chord::Key key_hi = 0;
        {
          Span span(tracer, Layer::kKey, system_, request);
          key_lo = svc.KeyFor(sub.attr, sub.range.lo);
          key_hi = svc.KeyFor(sub.attr, sub.range.hi);
          span.work = 2;
        }
        counts_.keys += 2;
        RingSub(svc.hub(sub.attr), svc.directories(), sub, lo, hi, key_lo,
                key_hi, /*walk=*/true, /*value_records_only=*/false,
                q.requester, request, tracer, out, matches);
        break;
      }
      case SystemKind::kSword: {
        const auto& svc = As<discovery::SwordService>(service_);
        lorm::chord::Key key = 0;
        {
          Span span(tracer, Layer::kKey, system_, request);
          key = svc.KeyFor(sub.attr);
          span.work = 1;
        }
        counts_.keys += 1;
        RingSub(svc.overlay(), svc.directories(), sub, lo, hi, key, key,
                /*walk=*/false, /*value_records_only=*/false, q.requester,
                request, tracer, out, matches);
        break;
      }
      case SystemKind::kMaan:
      case SystemKind::kD1ht: {
        // Same record layout on both rings: attribute root, then the value
        // root and the system-wide value walk.
        lorm::chord::Key attr_key = 0;
        lorm::chord::Key key_lo = 0;
        lorm::chord::Key key_hi = 0;
        const auto keys = [&](const auto& svc) {
          Span span(tracer, Layer::kKey, system_, request);
          attr_key = svc.AttributeKeyFor(sub.attr);
          key_lo = svc.ValueKeyFor(sub.attr, sub.range.lo);
          key_hi = svc.ValueKeyFor(sub.attr, sub.range.hi);
          span.work = 3;
        };
        counts_.keys += 3;
        // Like Query(), the value side resolves even if the attribute
        // root failed to route.
        const auto resolve = [&](const auto& svc) {
          keys(svc);
          AttributeRoot(svc.overlay(), attr_key, q.requester, request, tracer,
                        out);
        };
        if (kind_ == SystemKind::kMaan) {
          const auto& svc = As<discovery::MaanService>(service_);
          resolve(svc);
          RingSub(svc.overlay(), svc.directories(), sub, lo, hi, key_lo,
                  key_hi, /*walk=*/true, /*value_records_only=*/true,
                  q.requester, request, tracer, out, matches);
        } else {
          const auto& svc = As<discovery::D1htService>(service_);
          resolve(svc);
          RingSub(svc.overlay(), svc.directories(), sub, lo, hi, key_lo,
                  key_hi, /*walk=*/true, /*value_records_only=*/true,
                  q.requester, request, tracer, out, matches);
        }
        break;
      }
    }
  }
  {
    Span span(tracer, Layer::kJoin, system_, request);
    std::uint64_t inputs = 0;
    for (auto& matches : per_sub_) {
      discovery::DedupMatches(matches);
      inputs += matches.size();
    }
    out.providers = discovery::JoinProviders(per_sub_);
    out.providers.erase(
        std::remove_if(out.providers.begin(), out.providers.end(),
                       [&](NodeAddr p) { return !service_.HasNode(p); }),
        out.providers.end());
    span.work = inputs;
    counts_.join_inputs += inputs;
  }
  counts_.queries += 1;
}

}  // namespace perfbench
