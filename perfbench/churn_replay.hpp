// Membership churn on the simulated clock: schedule generation and replay.
//
// The schedule is generated from the seed before anything is timed: node
// joins (each joiner advertises three tuples) and graceful departures as
// Poisson arrivals, periodic maintenance rounds, and three-attribute point
// queries aimed at live providers. Counts are fixed (a Poisson process
// conditioned on its count), so two seeds differ in order and timing but
// not in how much work a replay does. A model of the membership — who is
// live, which tuples are advertised — picks departing nodes, requesters and
// query targets, and keeps joins within the overlays' identifier space.
//
// The replay runs every event against all five systems in turn through one
// sim::EventQueue, timing each system's call separately, so machine noise
// spreads evenly over the systems. Answers are checked between events,
// outside every timed call.
#pragma once

#include <cstdint>
#include <vector>

#include "world.hpp"

namespace perfbench {

struct ChurnPlan {
  /// Departures applied before the replay (untimed): the paper-scale
  /// overlays fill their identifier spaces, and a join into a full space
  /// first probes for a free identifier, which would make the first joins
  /// of a replay cost many times the later ones.
  std::size_t warmup_leaves = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t maintains = 0;
  std::size_t queries = 0;
  /// Queries checked against brute force: every `check_stride`-th one.
  std::size_t check_stride = 10;
  /// Targeted point queries over the final membership (traced runs).
  std::size_t post_queries = 0;
  double join_rate = 0.4;  ///< joins per simulated second (paper §V-C)
};

struct ChurnEvent {
  enum class Kind : std::uint8_t { kJoin, kLeave, kMaintain, kQuery };
  double at = 0;
  Kind kind = Kind::kQuery;
  lorm::NodeAddr node = lorm::kNoNode;  ///< joiner / leaver
  std::uint32_t index = 0;  ///< first advert (join) or query index (query)
  bool check = false;       ///< query checked against brute force
};

struct ChurnSchedule {
  std::vector<lorm::NodeAddr> warmup_leaves;  ///< see ChurnPlan
  std::vector<ChurnEvent> events;  ///< in time order
  std::vector<lorm::resource::ResourceInfo> adverts;  ///< 3 per join
  std::vector<lorm::resource::MultiQuery> queries;
  std::vector<lorm::resource::MultiQuery> post_queries;
  double horizon = 0;    ///< simulated seconds
  double mean_live = 0;  ///< time-averaged membership
};

inline constexpr std::size_t kAdvertsPerJoin = 3;

/// Generates a schedule against the world's current membership (addresses
/// 0..n-1, tuples `world.infos`). Joiners take addresses from `first_addr`.
ChurnSchedule MakeChurnSchedule(const World& world, const ChurnPlan& plan,
                                lorm::NodeAddr first_addr, lorm::Rng& rng);

/// What one system did during a replay.
struct ChurnSystemResult {
  std::vector<double> event_us;  ///< each event's timed call, schedule order
  std::uint64_t hops = 0;
  std::uint64_t visited = 0;
  std::uint64_t queries = 0;
  std::uint64_t maint_bytes = 0;     ///< MaintenanceBytes() delta
  std::uint64_t maint_messages = 0;  ///< MaintenanceMessages() delta
};

struct ChurnResult {
  std::vector<ChurnSystemResult> systems;
  std::size_t membership_events = 0;
};

/// Per-event times (schedule order) split by kind.
struct ChurnTimes {
  std::vector<double> update_us;  ///< membership events
  std::vector<double> query_us;   ///< queries
  double busy_s = 0;              ///< every event, maintenance rounds too
  std::uint64_t ops = 0;
};
ChurnTimes SplitTimes(const ChurnSchedule& schedule,
                      const std::vector<double>& event_us);

/// Applies the schedule's warm-up departures to every system (untimed).
void ApplyWarmup(World& world, const ChurnSchedule& schedule);

/// Replays `schedule` against every system of `world`. `advertised` holds
/// every tuple advertised so far (the brute-force reference); joiners'
/// tuples are appended as their joins replay.
ChurnResult ReplayChurn(World& world, const ChurnSchedule& schedule,
                        std::vector<lorm::resource::ResourceInfo>& advertised,
                        Tracer& tracer, Checker& checker);

}  // namespace perfbench
