// Call-site-cached observability instruments for the discovery services.
//
// One instance per service and operation lives in a function-local static
// (ExecuteQuery's per service type, each Advertise's own), so the name-keyed
// registry lookups happen once per process and the per-query cost is the
// MetricsEnabled() gate plus a few relaxed atomic adds.
#pragma once

#include <string>

#include "discovery/stats.hpp"
#include "obs/metrics.hpp"

namespace lorm::discovery {

/// Per-query cost distributions under "<system>.query.*".
class QueryInstruments {
 public:
  explicit QueryInstruments(const std::string& system)
      : system_(system),
        hops_(obs::Registry::Global().GetHistogram(
            system + ".query.hops",
            obs::Histogram::LinearBounds(0.0, 1.0, 64))),
        visited_(obs::Registry::Global().GetHistogram(
            system + ".query.visited",
            obs::Histogram::LinearBounds(0.0, 1.0, 64))),
        walk_steps_(obs::Registry::Global().GetHistogram(
            system + ".query.walk_steps",
            obs::Histogram::LinearBounds(0.0, 1.0, 64))),
        queries_(obs::Registry::Global().GetCounter(system + ".queries")),
        failures_(
            obs::Registry::Global().GetCounter(system + ".query.failures")) {}

  void Record(const QueryStats& s) {
    if (!obs::MetricsEnabled()) return;
    queries_.AddUnchecked(1);
    hops_.RecordUnchecked(static_cast<double>(s.dht_hops));
    visited_.RecordUnchecked(static_cast<double>(s.visited_nodes));
    walk_steps_.RecordUnchecked(static_cast<double>(s.walk_steps));
    if (s.failed) failures_.AddUnchecked(1);
    if (s.replica_hits != 0) {
      // Interned on first nonzero hit: replica-free runs (replication off)
      // keep the metrics JSON key set unchanged.
      if (replica_hits_ == nullptr) {
        replica_hits_ = &obs::Registry::Global().GetCounter(
            system_ + ".query.replica_hits");
      }
      replica_hits_->AddUnchecked(s.replica_hits);
    }
  }

 private:
  std::string system_;
  obs::Histogram& hops_;
  obs::Histogram& visited_;
  obs::Histogram& walk_steps_;
  obs::Counter& queries_;
  obs::Counter& failures_;
  obs::Counter* replica_hits_ = nullptr;  // lazily interned (see Record)
};

/// Advertise cost under "<system>.advertise.*".
class AdvertiseInstruments {
 public:
  explicit AdvertiseInstruments(const std::string& system)
      : hops_(obs::Registry::Global().GetHistogram(
            system + ".advertise.hops",
            obs::Histogram::LinearBounds(0.0, 1.0, 64))),
        count_(
            obs::Registry::Global().GetCounter(system + ".advertise.count")) {}

  void Record(HopCount hops) {
    if (!obs::MetricsEnabled()) return;
    count_.AddUnchecked(1);
    hops_.RecordUnchecked(static_cast<double>(hops));
  }

 private:
  obs::Histogram& hops_;
  obs::Counter& count_;
};

}  // namespace lorm::discovery
