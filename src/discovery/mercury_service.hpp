// Mercury: multi-attribute range queries over one DHT per attribute
// (Bharambe, Agrawal, Seshan — SIGCOMM 2004), as modelled by the paper.
//
// Each attribute has its own "hub" — here a full Chord ring containing every
// node, as the paper prescribes ("we use Chord for attribute hubs in
// Mercury"). Within hub a, a tuple is placed by the locality-preserving hash
// of its value, so ranges are contiguous ring segments. A node therefore
// maintains routing state in all m rings (m * O(log n) outlinks — the
// overhead Theorem 4.1 charges against it), while its resource information
// is spread value-uniformly (the balance Theorem 4.5 credits it with).
//
// The data-record/pointer optimization of the original system is disabled,
// exactly as in the paper's comparative setup (§IV).
#pragma once

#include <memory>
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

class MercuryService final : public DiscoveryService {
 public:
  struct Config {
    chord::Config ring;  ///< per-hub Chord parameters (bits sized to n)
    /// Copies of each directory entry (1 = primary only; replicas go to the
    /// owner's ring successors).
    std::size_t replicas = 1;
    /// Evenly spaced deterministic IDs (the paper's fully populated rings)
    /// for the initial population; churn joins always use hashed IDs.
    bool deterministic_ids = true;
    /// Serve repeated (attribute, range) sub-queries from a result cache,
    /// invalidated on every membership/advertise/expiry event (`--cache`).
    bool result_cache = false;
    /// Selectivity-driven query planning (`--plan`): execute sub-queries
    /// most-selective-first and stop walking hubs once the candidate
    /// intersection empties. Off = the classic path, byte-identical to
    /// pre-planner builds.
    bool plan = false;
  };

  MercuryService(std::size_t n, const resource::AttributeRegistry& registry,
                 Config cfg);
  ~MercuryService() override;

  MercuryService(const MercuryService&) = delete;
  MercuryService& operator=(const MercuryService&) = delete;

  std::string name() const override { return "Mercury"; }

  bool JoinNode(NodeAddr addr) override;
  void LeaveNode(NodeAddr addr) override;
  void FailNode(NodeAddr addr) override;
  bool HasNode(NodeAddr addr) const override;
  std::size_t NetworkSize() const override;
  std::vector<NodeAddr> Nodes() const override;
  void Maintain() override;
  std::uint64_t MaintenanceMessages() const override;
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

  chord::Key KeyFor(AttrId attr, const resource::AttrValue& v) const;
  const chord::ChordRing& hub(AttrId attr) const;
  const SelectivityEstimator& selectivity() const { return selectivity_; }
  const DirectoryStore<chord::Key>& directories() const { return store_; }

 private:
  using Store = DirectoryStore<chord::Key>;

  template <typename Service>
  friend QueryResult ExecuteQuery(const Service&, const resource::MultiQuery&,
                                  QueryScratch&);
  /// Routes to the range's lower endpoint in the attribute's hub, then walks
  /// hub successors across the range (executor contract:
  /// query_executor.hpp).
  void ResolveSub(NodeAddr requester, const resource::SubQuery& sub,
                  double lo, double hi, SubRole role, QueryScratch& scratch,
                  QueryStats& stats,
                  std::vector<resource::ResourceInfo>& matches) const;

  /// Adapter wiring one hub's membership events back to the service.
  class HubObserver final : public chord::MembershipObserver {
   public:
    HubObserver(MercuryService* svc, AttrId attr) : svc_(svc), attr_(attr) {}
    void OnJoin(NodeAddr node, NodeAddr successor) override;
    void OnLeave(NodeAddr node, NodeAddr successor) override;
    void OnFail(NodeAddr node) override;

   private:
    MercuryService* svc_;
    AttrId attr_;
  };

  void HubJoin(AttrId attr, NodeAddr node, NodeAddr successor);
  void HubLeave(AttrId attr, NodeAddr node, NodeAddr successor);
  void HubFail(AttrId attr, NodeAddr node);

  const resource::AttributeRegistry& registry_;
  Config cfg_;
  std::vector<std::unique_ptr<chord::ChordRing>> hubs_;  // one per attribute
  std::vector<std::unique_ptr<HubObserver>> observers_;
  std::vector<LocalityPreservingHash> lph_;  // one per attribute
  /// Declared before store_ so the directories (whose destructor un-counts
  /// entries from the estimator) die first.
  SelectivityEstimator selectivity_;
  Store store_;
  std::uint64_t epoch_ = 0;
  /// Handoff work done by the replication protocol (replicas > 1 only),
  /// summed over all hubs.
  ReplicationRecorder repl_{"Mercury"};
  /// Visits absorbed per node (roots + walk probes); mutable because Query
  /// is const, internally synchronized because the parallel experiment
  /// engine replays queries from many threads.
  mutable VisitCounter visit_counts_;
  /// (attr, range) -> matches (cfg_.result_cache); mutable because Query is
  /// const. Invalidated on every event that can change ground truth.
  mutable cache::ResultCache result_cache_;
};

}  // namespace lorm::discovery
