// MAAN: Multi-Attribute Addressable Network (Cai, Frank et al., Journal of
// Grid Computing 2004), as modelled by the paper.
//
// One ring; every resource-information tuple is stored *twice*
// (§II: "separately maps the resource attribute and value ... to a single
// DHT, and processes a query by searching them separately"):
//
//   * an attribute record under H(attribute name) — all tuples of one
//     attribute pile up at its attribute root;
//   * a value record under the locality-preserving hash of the value — value
//     records of all attributes interleave over the whole ring.
//
// A point sub-query costs two lookups (attribute root + value root); a range
// sub-query costs the attribute lookup plus a value-segment walk that is
// system-wide, because value records of every attribute share the one ring
// (the n/4-node average walk of Theorem 4.9). The doubled storage is
// Theorem 4.2; the attribute piles give it the worst directory balance
// together with SWORD (Theorem 4.6).
//
// The placement rule is independent of the ring underneath, so one template
// serves two systems:
//
//   MaanService = BasicMaanService<chord::ChordRing>          — the paper's
//   D1htService = BasicMaanService<singlehop::SingleHopRing>  — D1HT
//     (Monnerat & Amorim; see src/singlehop/singlehop.hpp and PAPERS.md):
//     every lookup resolves in one hop off the complete membership table,
//     while the maintenance meter charges Θ(n) event-dissemination messages
//     per membership change. Identical workload, identical directories,
//     opposite end of the maintenance-vs-lookup tradeoff.
#pragma once

#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "chord/chord.hpp"
#include "common/hashing.hpp"
#include "discovery/directory.hpp"
#include "discovery/discovery.hpp"
#include "discovery/replication.hpp"
#include "discovery/selectivity.hpp"
#include "discovery/visit_counter.hpp"
#include "singlehop/singlehop.hpp"

namespace lorm::discovery {

/// Per-ring name, configuration and builder of BasicMaanService.
template <typename Ring>
struct MaanSubstrate;

template <>
struct MaanSubstrate<chord::ChordRing> {
  using Config = chord::Config;
  static constexpr const char* kName = "MAAN";
  static chord::ChordRing Make(std::size_t n, const Config& cfg,
                               bool deterministic_ids) {
    return chord::MakeRing(n, cfg, deterministic_ids);
  }
};

template <>
struct MaanSubstrate<singlehop::SingleHopRing> {
  using Config = singlehop::Config;
  static constexpr const char* kName = "D1HT";
  static singlehop::SingleHopRing Make(std::size_t n, const Config& cfg,
                                       bool deterministic_ids) {
    return singlehop::MakeSingleHopRing(n, cfg, deterministic_ids);
  }
};

template <typename Ring>
class BasicMaanService final : public DiscoveryService,
                               private chord::MembershipObserver {
 public:
  using Substrate = MaanSubstrate<Ring>;

  struct Config {
    typename Substrate::Config ring;
    bool deterministic_ids = true;
    /// Copies of each record (1 = primary only; replicas go to the owner's
    /// ring successors; both record kinds replicate).
    std::size_t replicas = 1;
    /// Serve repeated (attribute, range) sub-queries from a result cache,
    /// invalidated on every membership/advertise/expiry event (`--cache`).
    bool result_cache = false;
    /// Selectivity-driven query planning (`--plan`): the most selective
    /// sub-query pays the full value-segment walk; every later sub-query is
    /// resolved at its attribute root alone — MAAN's own "single-attribute
    /// dominated query" optimization, driven by the histograms. Off = the
    /// classic path, byte-identical to pre-planner builds.
    bool plan = false;
  };

  /// Entry tags distinguishing the two record kinds.
  static constexpr std::uint8_t kValueRecord = 0;
  static constexpr std::uint8_t kAttributeRecord = 1;

  BasicMaanService(std::size_t n, const resource::AttributeRegistry& registry,
                   Config cfg);
  ~BasicMaanService() override;

  BasicMaanService(const BasicMaanService&) = delete;
  BasicMaanService& operator=(const BasicMaanService&) = delete;

  std::string name() const override { return Substrate::kName; }

  bool JoinNode(NodeAddr addr) override;
  void LeaveNode(NodeAddr addr) override;
  void FailNode(NodeAddr addr) override;
  bool HasNode(NodeAddr addr) const override { return ring_.Contains(addr); }
  std::size_t NetworkSize() const override { return ring_.size(); }
  std::vector<NodeAddr> Nodes() const override { return ring_.Members(); }
  void Maintain() override { ring_.StabilizeAll(); }
  std::uint64_t MaintenanceMessages() const override {
    return ring_.maintenance().Total();
  }
  void SetEpoch(std::uint64_t epoch) override { epoch_ = epoch; }
  std::uint64_t CurrentEpoch() const override { return epoch_; }
  std::size_t ExpireEntriesBefore(std::uint64_t cutoff) override {
    const std::size_t expired = store_.ExpireBefore(cutoff);
    if (expired != 0) result_cache_.InvalidateAll();
    return expired;
  }

  HopCount Advertise(const resource::ResourceInfo& info) override;
  QueryResult Query(const resource::MultiQuery& q,
                    QueryScratch& scratch) const override;
  using DiscoveryService::Query;

  std::vector<double> DirectorySizes() const override;
  std::vector<double> QueryLoadCounts() const override;
  void ResetQueryLoad() override { visit_counts_.Clear(); }
  std::vector<double> OutlinkCounts() const override;
  std::size_t TotalInfoPieces() const override;
  ReplicationStats ReplicationWork() const override { return repl_.stats(); }

  std::size_t WithdrawProvider(NodeAddr provider);

  chord::Key AttributeKeyFor(AttrId attr) const;
  chord::Key ValueKeyFor(AttrId attr, const resource::AttrValue& v) const;

  const Ring& overlay() const { return ring_; }
  const SelectivityEstimator& selectivity() const { return selectivity_; }
  const DirectoryStore<chord::Key>& directories() const { return store_; }

 private:
  using Store = DirectoryStore<chord::Key>;

  template <typename Service>
  friend QueryResult ExecuteQuery(const Service&, const resource::MultiQuery&,
                                  QueryScratch&);
  /// kLeading: attribute-root lookup, value-root lookup, then the
  /// system-wide value walk over value records. kDominated: the attribute
  /// root alone, read through its attribute records (executor contract:
  /// query_executor.hpp).
  void ResolveSub(NodeAddr requester, const resource::SubQuery& sub,
                  double lo, double hi, SubRole role, QueryScratch& scratch,
                  QueryStats& stats,
                  std::vector<resource::ResourceInfo>& matches) const;

  /// Unreplicated crash repair: a tuple's two records (attribute + value)
  /// live on different nodes, so a single crash kills one copy and strands
  /// its twin. Re-synchronizes the two record sets so dominated sub-queries
  /// (which read attribute records) and leading ones (value records) keep
  /// agreeing after failures.
  void ReconcileTwins(NodeAddr node);

  void OnJoin(NodeAddr node, NodeAddr successor) override;
  void OnLeave(NodeAddr node, NodeAddr successor) override;
  void OnFail(NodeAddr node) override;

  const resource::AttributeRegistry& registry_;
  Config cfg_;
  Ring ring_;
  /// Declared before store_ so the directories (whose destructor un-counts
  /// entries from the estimator) die first.
  SelectivityEstimator selectivity_;
  Store store_;
  std::vector<chord::Key> attr_key_;
  std::vector<LocalityPreservingHash> lph_;
  std::uint64_t epoch_ = 0;
  /// Handoff work done by the replication protocol (replicas > 1 only).
  ReplicationRecorder repl_{Substrate::kName};
  /// Visits absorbed per node (roots + walk probes); mutable because Query
  /// is const, internally synchronized because the parallel experiment
  /// engine replays queries from many threads.
  mutable VisitCounter visit_counts_;
  /// (attr, range) -> matches (cfg_.result_cache); mutable because Query is
  /// const. Invalidated on every event that can change ground truth.
  mutable cache::ResultCache result_cache_;
};

extern template class BasicMaanService<chord::ChordRing>;
extern template class BasicMaanService<singlehop::SingleHopRing>;

using MaanService = BasicMaanService<chord::ChordRing>;

}  // namespace lorm::discovery
