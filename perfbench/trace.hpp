// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around its calls into each
// library module (nothing inside src/ is instrumented). A span carries the
// layer name, the system it ran against, the request it belongs to, its
// parent span and a work count (hops, visited nodes, probes, ...), so unit
// costs are measured where the work happens. Per-(layer, system) totals are
// kept incrementally — total and self time, span count, work — and the raw
// span log is written out once, at exit. A disabled recorder costs one
// branch per span, which is how the traced run measures its own overhead.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kKey,             ///< services' KeyFor / ValueKeyFor / AttributeKeyFor
  kChordLookup,     ///< chord::ChordRing::LookupInto
  kCycloidLookup,   ///< cycloid::CycloidNetwork::LookupInto
  kSingleHopLookup, ///< singlehop::SingleHopRing::LookupInto
  kWalk,            ///< WalkBegin / WalkAdvance / WalkFinish
  kClusterWalk,     ///< ClusterWalkBegin / ClusterWalkAdvance
  kDirectory,       ///< DirectoryStore::Find + Directory::ForEachMatch
  kJoin,            ///< DedupMatches + JoinProviders + liveness filter
  kCacheProbe,      ///< cache::ResultCache::Lookup
  kShadowQuery,     ///< one query decomposed into the layers above
  kQuery,           ///< DiscoveryService::Query
  kJoinNode,        ///< JoinNode plus the joiner's Advertise calls
  kLeaveNode,       ///< LeaveNode
  kMaintain,        ///< Maintain
  kSimEvent,        ///< sim::EventQueue::RunOne (children: the calls above)
  kBuild,           ///< harness::MakeService
  kAdvertiseAll,    ///< harness::AdvertiseAll
  kCount
};

const char* LayerName(Layer layer);

/// System index of a span; kNoSystem for spans that span all systems.
inline constexpr std::uint8_t kNoSystem = 5;
inline constexpr std::size_t kSystemSlots = 6;

struct LayerTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t spans = 0;
  std::uint64_t work = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// `log_capacity` bounds the raw span log (totals are always kept).
  Tracer(bool enabled, std::size_t log_capacity);

  void Begin(Layer layer, std::uint8_t system, std::uint64_t request) {
    if (!enabled_) return;
    BeginSlow(layer, system, request);
  }
  /// Closes the innermost open span, crediting it with `work` units.
  void End(std::uint64_t work = 0) {
    if (!enabled_) return;
    EndSlow(work);
  }

  const LayerTotals& Totals(Layer layer, std::uint8_t system) const {
    return totals_[static_cast<std::size_t>(layer)][system];
  }

  /// Writes the span log as TSV (one span per line); false on I/O error.
  bool WriteLog(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    std::uint8_t system;
    std::int64_t start;
    std::int64_t child_ns;   ///< time covered by closed child spans
    std::int64_t log_index;  ///< -1 when the log was full
  };
  struct Record {
    Layer layer;
    std::uint8_t system;
    std::uint64_t request;
    std::int64_t parent;  ///< log index of the parent span, -1 for roots
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t work;
  };

  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  void BeginSlow(Layer layer, std::uint8_t system, std::uint64_t request);
  void EndSlow(std::uint64_t work);

  bool enabled_;
  std::size_t log_capacity_;
  std::int64_t epoch_ns_;
  std::vector<Open> stack_;
  std::vector<Record> log_;
  std::array<std::array<LayerTotals, kSystemSlots>,
             static_cast<std::size_t>(Layer::kCount)>
      totals_{};
};

/// RAII span; `work` may be set before the scope closes.
class Span {
 public:
  Span(Tracer& tracer, Layer layer, std::uint8_t system, std::uint64_t request)
      : tracer_(tracer) {
    tracer_.Begin(layer, system, request);
  }
  ~Span() { tracer_.End(work); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t work = 0;

 private:
  Tracer& tracer_;
};

}  // namespace perfbench
