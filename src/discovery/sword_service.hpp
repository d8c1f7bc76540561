// SWORD-style single-DHT centralized resource discovery
// (Oppenheimer et al., UC Berkeley TR CSD04-1334), as modelled by the paper.
//
// One Chord ring; the consistent hash of the *attribute name* is the key, so
// all resource information of one attribute pools at a single directory node
// (§II: "pools together resource information of all values for a specific
// resource attribute in a single node"). Range sub-queries are resolved
// entirely inside that node's directory — one lookup, one visited node —
// at the price of the worst information-balance of the four systems
// (Theorems 4.4, 4.9). Per the paper's setup, Bamboo is replaced by Chord.
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

namespace lorm::discovery {

class SwordService final : public DiscoveryService,
                           private chord::MembershipObserver {
 public:
  struct Config {
    chord::Config ring;
    bool deterministic_ids = true;
    /// Copies of each directory entry (1 = primary only; replicas go to the
    /// owner's ring successors).
    std::size_t replicas = 1;
    /// Serve repeated (attribute, range) sub-queries from a result cache,
    /// invalidated on every membership/advertise/expiry event (`--cache`).
    bool result_cache = false;
    /// Selectivity-driven query planning (`--plan`): execute sub-queries
    /// most-selective-first, intersect incrementally, stop when the
    /// candidate set empties. Off = the classic path, byte-identical to
    /// pre-planner builds.
    bool plan = false;
  };

  SwordService(std::size_t n, const resource::AttributeRegistry& registry,
               Config cfg);
  ~SwordService() override;

  SwordService(const SwordService&) = delete;
  SwordService& operator=(const SwordService&) = delete;

  std::string name() const override { return "SWORD"; }

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

  /// The placement key of an attribute: H(attribute name).
  chord::Key KeyFor(AttrId attr) const;

  const chord::ChordRing& overlay() const { return ring_; }
  const SelectivityEstimator& selectivity() const { return selectivity_; }
  const DirectoryStore<chord::Key>& directories() const { return store_; }

 private:
  using Store = DirectoryStore<chord::Key>;

  template <typename Service>
  friend QueryResult ExecuteQuery(const Service&, const resource::MultiQuery&,
                                  QueryScratch&);
  /// One lookup to the attribute root, whose directory answers the whole
  /// range (executor contract: query_executor.hpp).
  void ResolveSub(NodeAddr requester, const resource::SubQuery& sub,
                  double lo, double hi, SubRole role, QueryScratch& scratch,
                  QueryStats& stats,
                  std::vector<resource::ResourceInfo>& matches) const;

  void OnJoin(NodeAddr node, NodeAddr successor) override;
  void OnLeave(NodeAddr node, NodeAddr successor) override;
  void OnFail(NodeAddr node) override;

  const resource::AttributeRegistry& registry_;
  Config cfg_;
  chord::ChordRing ring_;
  /// Declared before store_ so the directories (whose destructor un-counts
  /// entries from the estimator) die first.
  SelectivityEstimator selectivity_;
  Store store_;
  std::vector<chord::Key> attr_key_;
  std::uint64_t epoch_ = 0;
  /// Handoff work done by the replication protocol (replicas > 1 only).
  ReplicationRecorder repl_{"SWORD"};
  /// Visits absorbed per node (roots + walk probes); mutable because Query
  /// is const, internally synchronized because the parallel experiment
  /// engine replays queries from many threads.
  mutable VisitCounter visit_counts_;
  /// (attr, range) -> matches (cfg_.result_cache); mutable because Query is
  /// const. Invalidated on every event that can change ground truth.
  mutable cache::ResultCache result_cache_;
};

}  // namespace lorm::discovery
