#include "trace.hpp"

#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kKey: return "common.key";
    case Layer::kChordLookup: return "chord.lookup";
    case Layer::kCycloidLookup: return "cycloid.lookup";
    case Layer::kSingleHopLookup: return "singlehop.lookup";
    case Layer::kWalk: return "discovery.walk";
    case Layer::kClusterWalk: return "discovery.cluster_walk";
    case Layer::kDirectory: return "discovery.directory";
    case Layer::kJoin: return "discovery.join";
    case Layer::kCacheProbe: return "cache.result.probe";
    case Layer::kShadowQuery: return "discovery.shadow_query";
    case Layer::kQuery: return "discovery.query";
    case Layer::kJoinNode: return "discovery.node_join";
    case Layer::kLeaveNode: return "discovery.node_leave";
    case Layer::kMaintain: return "discovery.maintain";
    case Layer::kSimEvent: return "sim.event";
    case Layer::kBuild: return "harness.build";
    case Layer::kAdvertiseAll: return "harness.advertise";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(bool enabled, std::size_t log_capacity)
    : enabled_(enabled), log_capacity_(log_capacity), epoch_ns_(Now()) {
  stack_.reserve(16);
  if (enabled_) log_.reserve(log_capacity_);
}

void Tracer::BeginSlow(Layer layer, std::uint8_t system,
                       std::uint64_t request) {
  const std::int64_t parent_log =
      stack_.empty() ? -1 : stack_.back().log_index;
  std::int64_t log_index = -1;
  if (log_.size() < log_capacity_) {
    log_index = static_cast<std::int64_t>(log_.size());
    log_.push_back(Record{layer, system, request, parent_log, 0, 0, 0});
  }
  stack_.push_back(Open{layer, system, Now(), 0, log_index});
}

void Tracer::EndSlow(std::uint64_t work) {
  const std::int64_t end = Now();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - open.start;
  LayerTotals& t =
      totals_[static_cast<std::size_t>(open.layer)][open.system];
  t.total_ns += dur;
  t.self_ns += dur - open.child_ns;
  t.spans += 1;
  t.work += work;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (open.log_index >= 0) {
    Record& r = log_[static_cast<std::size_t>(open.log_index)];
    r.start_ns = open.start - epoch_ns_;
    r.end_ns = end - epoch_ns_;
    r.work = work;
  }
}

bool Tracer::WriteLog(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span\tparent\tlayer\tsystem\trequest\tstart_ns\tend_ns\twork\n");
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Record& r = log_[i];
    std::fprintf(f, "%zu\t%lld\t%s\t%u\t%llu\t%lld\t%lld\t%llu\n", i,
                 static_cast<long long>(r.parent), LayerName(r.layer),
                 static_cast<unsigned>(r.system),
                 static_cast<unsigned long long>(r.request),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<unsigned long long>(r.work));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
