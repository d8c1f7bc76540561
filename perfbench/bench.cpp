#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "cache/result_cache.hpp"
#include "churn_replay.hpp"
#include "harness/experiments.hpp"
#include "obs/metrics.hpp"
#include "shadow.hpp"
#include "stats.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using lorm::NodeAddr;
using lorm::harness::SystemKind;
namespace discovery = lorm::discovery;
namespace resource = lorm::resource;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double GeoOr0(const std::vector<double>& v) { return GeoMean(v).value_or(0); }

double SortedMedian(std::vector<double> v) { return Median(std::move(v)).value_or(0); }

// ---- Scale -----------------------------------------------------------------

struct Scale {
  lorm::harness::Setup setup;
  std::size_t setups = 5;         ///< builds per untraced run (setup_s median)
  std::size_t pool = 0;           ///< static workload's queries (p99 needs 1,000)
  double pass_s = 0.1;            ///< one pass over the pool, on the reference host
  std::size_t templates = 200;    ///< hotspot: single-attribute templates
  std::size_t brute_stride = 20;  ///< static: every n-th query brute-forced
  std::size_t shadow = 0;         ///< queries the traced layer replay runs
  ChurnPlan tail;                 ///< static workloads' membership phase
  ChurnPlan churn;                ///< the churn workload
};

Scale MakeScale(const Options& opt) {
  Scale sc;
  sc.setup = opt.small ? lorm::harness::Setup::Small()
                       : lorm::harness::Setup::Paper();
  const bool small = opt.small;
  if (opt.workload == WorkloadKind::kHotspot) {
    sc.setup.cache = true;
    sc.setup.plan = true;
  }
  switch (opt.workload) {
    case WorkloadKind::kPoint:
    case WorkloadKind::kHotspot:
      sc.pool = small ? 1000 : 4000;
      sc.pass_s = opt.workload == WorkloadKind::kPoint ? 0.3 : 0.55;
      sc.shadow = small ? 300 : 2000;
      break;
    case WorkloadKind::kRange:
      sc.pool = 1000;
      sc.pass_s = 4.5;
      sc.shadow = small ? 150 : 400;
      break;
    case WorkloadKind::kChurn:
      sc.pool = 0;
      sc.shadow = small ? 300 : 1000;
      break;
  }
  if (small) {
    sc.setups = 2;
    sc.templates = 50;
  }
  sc.brute_stride = sc.pool > 0 ? std::max<std::size_t>(sc.pool / 200, 1) : 1;
  // Joins outnumber departures two to one, so that the median membership
  // event falls among the joins and not on the edge between the two kinds.
  // Warm-up departures keep every join out of a full identifier space,
  // where Mercury's joins cost several times more until gaps appear. At
  // least 200 events put ten beyond the band of update_p90_us.
  const std::size_t warmup = small ? 150 : 250;
  sc.tail = small ? ChurnPlan{warmup, 140, 70, 2, 200, 4, 0, 0.4}
                  : ChurnPlan{warmup, 200, 100, 2, 200, 4, 0, 0.4};
  sc.churn.warmup_leaves = warmup;
  const auto j = static_cast<std::size_t>(std::max(140.0, std::round(14 * opt.seconds)));
  sc.churn.joins = j;
  sc.churn.leaves = j / 2;
  sc.churn.maintains =
      static_cast<std::size_t>(std::max(2.0, std::round(0.6 * opt.seconds)));
  sc.churn.queries = std::max<std::size_t>(1100, 24 * j);
  sc.churn.check_stride = 20;
  sc.churn.post_queries = opt.trace ? sc.shadow : 0;
  return sc;
}

// ---- Inputs ----------------------------------------------------------------

std::vector<resource::MultiQuery> MakePool(WorkloadKind kind,
                                           const World& world,
                                           const Scale& sc, lorm::Rng& rng) {
  std::vector<resource::MultiQuery> pool;
  const std::size_t n = world.setup.nodes;
  const auto requester = [&] { return static_cast<NodeAddr>(rng.NextBelow(n)); };
  switch (kind) {
    case WorkloadKind::kPoint: {
      const TuplesByProvider tuples = GroupByProvider(world.infos, n);
      std::vector<NodeAddr> providers;
      for (std::size_t i = 0; i < n; ++i) providers.push_back(static_cast<NodeAddr>(i));
      for (std::size_t i = 0; i < sc.pool; ++i) {
        pool.push_back(TargetedPointQuery(tuples, providers, requester(), rng));
      }
      break;
    }
    case WorkloadKind::kRange:
      for (std::size_t i = 0; i < sc.pool; ++i) {
        pool.push_back(world.workload.MakeRangeQuery(
            3, requester(), resource::RangeStyle::kBounded, rng));
      }
      break;
    case WorkloadKind::kHotspot: {
      // Template of popularity rank r spans the fraction vdc2(r) of half the
      // value domain and starts at the fraction vdc3(r) of the room left
      // (van der Corput sequences in bases 2 and 3). The hot head of the
      // Zipf draw then mixes narrow and wide, low and high ranges the same
      // way for every seed; the attributes stay random.
      const auto vdc = [](std::size_t x, std::size_t base) {
        double v = 0;
        double digit = 1.0 / static_cast<double>(base);
        for (; x != 0; x /= base, digit /= static_cast<double>(base)) {
          v += static_cast<double>(x % base) * digit;
        }
        return v;
      };
      const auto& wc = world.workload.config();
      const double domain = wc.value_max - wc.value_min;
      std::vector<resource::SubQuery> templates;
      for (std::size_t r = 1; r <= sc.templates; ++r) {
        const double width = domain / 2 * vdc(r, 2);
        const double lo = wc.value_min + (domain - width) * vdc(r, 3);
        templates.push_back(resource::SubQuery{
            static_cast<lorm::AttrId>(rng.NextBelow(world.workload.registry().size())),
            resource::ValueRange::Between(resource::AttrValue::Number(lo),
                                          resource::AttrValue::Number(lo + width))});
      }
      const lorm::Zipf popularity(templates.size(), 1.0);
      for (std::size_t i = 0; i < sc.pool; ++i) {
        resource::MultiQuery q;
        q.requester = requester();
        while (q.subs.size() < 3) {
          const auto& t = templates[popularity.Sample(rng) - 1];
          const bool dup = std::any_of(q.subs.begin(), q.subs.end(),
                                       [&](const resource::SubQuery& s) { return s.attr == t.attr; });
          if (!dup) q.subs.push_back(t);
        }
        pool.push_back(std::move(q));
      }
      break;
    }
    case WorkloadKind::kChurn:
      break;
  }
  return pool;
}

// ---- Static workloads ------------------------------------------------------

/// Per-system, per-query outcome of the untimed check pass.
struct CheckPass {
  std::vector<std::vector<std::vector<NodeAddr>>> answers;  ///< [s][i]
  std::vector<std::vector<std::uint32_t>> hops;             ///< [s][i]
  std::vector<std::vector<std::uint32_t>> visited;          ///< [s][i]
  std::vector<double> hops_mean;                            ///< [s]
  std::vector<double> visited_mean;                         ///< [s]
};

/// Runs every query once on every system: answers are compared across
/// systems and, every `brute_stride`-th query, against brute force over
/// `advertised` (every tuple advertised so far).
CheckPass RunCheckPass(World& world,
                       const std::vector<resource::MultiQuery>& pool,
                       const std::vector<resource::ResourceInfo>& advertised,
                       std::size_t brute_stride, Checker& checker) {
  const std::size_t systems = world.services.size();
  CheckPass out;
  out.answers.assign(systems, {});
  out.hops.assign(systems, {});
  out.visited.assign(systems, {});
  std::vector<discovery::QueryScratch> scratch(systems);
  std::vector<const std::vector<NodeAddr>*> ptrs(systems);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t s = 0; s < systems; ++s) {
      auto res = world.services[s]->Query(pool[i], scratch[s]);
      if (res.stats.failed) {
        checker.Fail(std::string(world.name(s)) + " failed to route query " +
                     std::to_string(i));
      }
      out.hops[s].push_back(static_cast<std::uint32_t>(res.stats.dht_hops));
      out.visited[s].push_back(static_cast<std::uint32_t>(res.stats.visited_nodes));
      out.answers[s].push_back(std::move(res.providers));
    }
    checker.attempted += systems;
    for (std::size_t s = 0; s < systems; ++s) ptrs[s] = &out.answers[s][i];
    if (i % brute_stride == 0) {
      const auto reference = lorm::harness::BruteForceProviders(
          advertised, pool[i], *world.services.front());
      checker.CheckAnswers(i, ptrs, &reference, world);
    } else {
      checker.CheckAnswers(i, ptrs, nullptr, world);
    }
  }
  for (std::size_t s = 0; s < systems; ++s) {
    double h = 0;
    double v = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      h += out.hops[s][i];
      v += out.visited[s][i];
    }
    out.hops_mean.push_back(h / static_cast<double>(pool.size()));
    out.visited_mean.push_back(v / static_cast<double>(pool.size()));
  }
  return out;
}

/// Hotspot warm-up: the pool once through every system, cold caches. Its
/// routing work is the workload's deterministic hops/visited count.
void ColdPass(World& world, const std::vector<resource::MultiQuery>& pool,
              std::vector<double>& hops_mean, std::vector<double>& visited_mean) {
  hops_mean.assign(world.services.size(), 0);
  visited_mean.assign(world.services.size(), 0);
  for (std::size_t s = 0; s < world.services.size(); ++s) {
    discovery::QueryScratch scratch;
    for (const auto& q : pool) {
      const auto res = world.services[s]->Query(q, scratch);
      hops_mean[s] += static_cast<double>(res.stats.dht_hops);
      visited_mean[s] += static_cast<double>(res.stats.visited_nodes);
    }
    hops_mean[s] /= static_cast<double>(pool.size());
    visited_mean[s] /= static_cast<double>(pool.size());
  }
}

/// What the closed loop measured for one system. The machine is shared,
/// and its speed swings by a third and more over seconds as other tenants'
/// load comes and goes; an execution in a slow spell says more about them
/// than about the system. So every query runs once per pass, and its time
/// is the fastest of its executions (the rule the churn replay applies to
/// each event). Every system is measured on the whole pool.
struct LoopMeasurement {
  double ops_per_s = 0;  ///< pool size over the sum of the fastest times
  double mean_ns = 0;    ///< mean fastest Query() time
  std::vector<double> latency_us;  ///< per query, fastest execution
};

/// Passes of the closed loop that take about `seconds` on the reference
/// host (the one the README's figures come from), at least two. The count
/// is fixed for a given `--seconds`: on a faster host or program, more
/// passes would lower each query's fastest time further.
std::size_t Passes(double seconds, double pass_s) {
  return static_cast<std::size_t>(std::max(2.0, std::round(seconds / pass_s)));
}

/// The closed loop: `passes` passes over the whole pool. Within a pass the
/// systems take turns on the same stretch of `kStretch` queries, so a
/// spell of the host falls on every system alike.
std::vector<LoopMeasurement> TimedQueries(World& world,
                                          const std::vector<resource::MultiQuery>& pool,
                                          std::size_t passes, Checker& checker) {
  constexpr std::size_t kStretch = 50;
  const std::size_t systems = world.services.size();
  std::vector<std::vector<double>> fastest(
      systems, std::vector<double>(pool.size(), HUGE_VAL));
  std::vector<discovery::QueryScratch> scratch(systems);
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t lo = 0; lo < pool.size(); lo += kStretch) {
      const std::size_t hi = std::min(pool.size(), lo + kStretch);
      for (std::size_t s = 0; s < systems; ++s) {
        const discovery::DiscoveryService& svc = *world.services[s];
        std::uint64_t failed = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const Clock::time_point t0 = Clock::now();
          const auto res = svc.Query(pool[i], scratch[s]);
          const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
          fastest[s][i] = std::min(fastest[s][i], us);
          failed += res.stats.failed ? 1 : 0;
        }
        checker.attempted += hi - lo;
        for (std::uint64_t f = 0; f < failed; ++f) {
          checker.Fail(std::string(world.name(s)) + " failed to route a timed query");
        }
      }
    }
  }
  std::vector<LoopMeasurement> out(systems);
  for (std::size_t s = 0; s < systems; ++s) {
    double total_us = 0;
    for (const double us : fastest[s]) total_us += us;
    const double n = static_cast<double>(pool.size());
    out[s].ops_per_s = Ratio(n * 1e6, total_us);
    out[s].mean_ns = total_us * 1e3 / n;
    out[s].latency_us = std::move(fastest[s]);
  }
  return out;
}

// ---- Traced layer replays --------------------------------------------------

struct ShadowRun {
  std::vector<ShadowCounts> counts;  ///< [s], traced pass
  std::vector<double> traced_s;      ///< [s]
  std::vector<double> untraced_s;    ///< [s]
  std::uint64_t queries = 0;         ///< per system
};

/// Replays the first `limit` pool queries through the shadow executor,
/// alternating traced and untraced chunks per system, and checks each
/// answer (and, if `compare_counts`, hops and visited nodes) against the
/// system's own Query() result from the check pass.
ShadowRun RunShadow(World& world, const std::vector<resource::MultiQuery>& pool,
                    std::size_t limit, const CheckPass& check,
                    bool compare_counts, Tracer& tracer, Checker& checker) {
  const std::size_t systems = world.services.size();
  const std::size_t count = std::min(limit, pool.size());
  ShadowRun out;
  out.counts.resize(systems);
  out.traced_s.assign(systems, 0);
  out.untraced_s.assign(systems, 0);
  out.queries = count;
  Tracer off(false, 0);
  std::vector<ShadowExecutor> executors;
  for (std::size_t s = 0; s < systems; ++s) {
    executors.emplace_back(world.kinds[s], *world.services[s],
                           world.workload.registry(), static_cast<std::uint8_t>(s));
  }
  ShadowAnswer answer;
  constexpr std::size_t kChunks = 4;
  for (std::size_t c = 0; c < kChunks; ++c) {
    const std::size_t lo = count * c / kChunks;
    const std::size_t hi = count * (c + 1) / kChunks;
    for (std::size_t s = 0; s < systems; ++s) {
      ShadowExecutor& ex = executors[s];
      // Both passes run the same code; only the tracer differs.
      const auto pass = [&](Tracer& t, bool report) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = lo; i < hi; ++i) {
          ex.Run(pool[i], i, t, answer);
          const bool same = answer.providers == check.answers[s][i] &&
                            (!compare_counts || (answer.hops == check.hops[s][i] &&
                                                 answer.visited == check.visited[s][i]));
          if (report && (answer.failed || !same)) {
            checker.Fail(std::string(world.name(s)) +
                         " layer replay disagrees with Query() on query " +
                         std::to_string(i));
          }
        }
        return Since(t0);
      };
      out.traced_s[s] += pass(tracer, true);
      checker.attempted += hi - lo;
      out.counts[s] += ex.counts();  // the traced pass's work only
      out.untraced_s[s] += pass(off, false);
      ex.ResetCounts();
    }
  }
  return out;
}

/// A standalone cache::ResultCache replay of the pool's (attr, lo, hi)
/// sub-query keys, holding LORM's real match lists. Returns ns per probe.
double CacheProbeNs(World& world, const std::vector<resource::MultiQuery>& pool,
                    Tracer& tracer) {
  struct Key {
    lorm::AttrId attr;
    double lo;
    double hi;
  };
  lorm::cache::ResultCache cache;
  cache.Enable();
  std::vector<Key> keys;
  const std::size_t count = std::min<std::size_t>(pool.size(), 256);
  const auto& registry = world.workload.registry();
  for (std::size_t i = 0; i < count; ++i) {
    const auto res = world.services.front()->Query(pool[i]);
    for (std::size_t k = 0; k < pool[i].subs.size(); ++k) {
      const auto& sub = pool[i].subs[k];
      const auto& schema = registry.Get(sub.attr);
      const Key key{sub.attr, schema.OrdinalOf(sub.range.lo),
                    schema.OrdinalOf(sub.range.hi)};
      cache.Store(key.attr, key.lo, key.hi, res.per_sub[k]);
      keys.push_back(key);
    }
  }
  std::vector<resource::ResourceInfo> out;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t rep = 0; rep < 3 || Since(t0) < 0.05; ++rep) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      Span span(tracer, Layer::kCacheProbe, 0, i);
      cache.Lookup(keys[i].attr, keys[i].lo, keys[i].hi, out);
      span.work = 1;
    }
  }
  const LayerTotals& t = tracer.Totals(Layer::kCacheProbe, 0);
  return t.spans > 0 ? static_cast<double>(t.total_ns) / static_cast<double>(t.spans) : 0;
}

std::uint64_t CounterValue(const char* name) {
  return lorm::obs::Registry::Global().GetCounter(name).Value();
}

// ---- Metric assembly -------------------------------------------------------


double Tail(std::vector<double> v, double p, const char* what, const char* system) {
  std::sort(v.begin(), v.end());
  const auto q = ReportablePercentile(v, p);
  if (!q) {
    throw std::runtime_error(std::string("too few samples for ") + what + " of " +
                             system + ": " + std::to_string(v.size()));
  }
  return *q;
}

/// Membership-event percentiles: the mean of the samples within five
/// percentage points of the percentile (BandPercentile).
double Band(std::vector<double> v, double p, const char* what, const char* system) {
  std::sort(v.begin(), v.end());
  const auto q = BandPercentile(v, p, 0.05);
  if (!q) {
    throw std::runtime_error(std::string("too few samples for ") + what + " of " +
                             system + ": " + std::to_string(v.size()));
  }
  return *q;
}

long PeakRssKiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Everything a run measured, before it is turned into metrics.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> ops_per_s;      ///< [s]
  std::vector<std::vector<double>> query_us;   ///< [s]
  std::vector<std::vector<double>> update_us;  ///< [s]
  std::vector<double> hops_mean;      ///< [s]
  std::vector<double> visited_mean;   ///< [s]
  std::vector<double> maint_bytes_per_node_s;  ///< [s]
  // Traced runs only.
  std::vector<double> query_mean_ns;  ///< [s] Query() mean in the traced run
  ShadowRun shadow;
  double cache_probe_ns = 0;
  std::vector<double> maint_msgs_per_event;  ///< [s]
  std::string loop_note;  ///< static workloads: passes and their wall time
};

void Add(Report& r, std::string name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    r.correct = false;
    r.notes.push_back("metric " + name + " is not finite");
    value = 0;
  }
  r.metrics.push_back(Metric{std::move(name), value, unit});
}

void AddEndToEnd(Report& r, const Measured& m) {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> u50;
  std::vector<double> u90;
  for (std::size_t s = 0; s < kSystems; ++s) {
    p50.push_back(SortedMedian(m.query_us[s]));
    p99.push_back(Tail(m.query_us[s], 0.99, "query_p99_us", kSystemNames[s]));
    // About one SWORD node in ten holds an attribute directory, and
    // handing one on makes a second mode of SWORD's membership costs whose
    // share sits right at the 90th percentile; a nearest-rank p90 would
    // jump between the two modes from seed to seed.
    u50.push_back(Band(m.update_us[s], 0.50, "update_p50_us", kSystemNames[s]));
    u90.push_back(Band(m.update_us[s], 0.90, "update_p90_us", kSystemNames[s]));
  }
  char line[200];
  r.notes.push_back("system        ops/s  query_p50  query_p99  update_p50  update_p90 (us)");
  for (std::size_t s = 0; s < kSystems; ++s) {
    std::snprintf(line, sizeof line, "%-8s %10.1f %10.2f %10.2f %11.2f %11.2f",
                  kSystemNames[s], m.ops_per_s[s], p50[s], p99[s], u50[s], u90[s]);
    r.notes.push_back(line);
  }
  Add(r, "setup_s", SortedMedian(m.setup_s), "s");
  Add(r, "peak_rss_mb", static_cast<double>(PeakRssKiB()) / 1024.0, "MiB");
  for (std::size_t s = 0; s < kSystems; ++s) {
    Add(r, std::string("ops_per_s.") + kSystemNames[s], m.ops_per_s[s], "ops/s");
  }
  Add(r, "ops_per_s", GeoOr0(m.ops_per_s), "ops/s");
  Add(r, "query_p50_us", GeoOr0(p50), "us");
  Add(r, "query_p99_us", GeoOr0(p99), "us");
  Add(r, "update_p50_us", GeoOr0(u50), "us");
  Add(r, "update_p90_us", GeoOr0(u90), "us");
  Add(r, "hops_per_query", GeoOr0(m.hops_mean), "count");
  Add(r, "visited_per_query", GeoOr0(m.visited_mean), "count");
  Add(r, "maint_bytes_per_node_s", GeoOr0(m.maint_bytes_per_node_s), "B/node/s");
}

struct LayerView {
  const Tracer& t;
  double ns(Layer l, std::size_t s) const {
    return static_cast<double>(t.Totals(l, static_cast<std::uint8_t>(s)).total_ns);
  }
  double spans(Layer l, std::size_t s) const {
    return static_cast<double>(t.Totals(l, static_cast<std::uint8_t>(s)).spans);
  }
  double work(Layer l, std::size_t s) const {
    return static_cast<double>(t.Totals(l, static_cast<std::uint8_t>(s)).work);
  }
};

void AddPerLayer(Report& r, const Measured& m, const Tracer& tracer) {
  const LayerView v{tracer};
  const ShadowRun& sh = m.shadow;
  const auto over = [&](std::initializer_list<SystemIndex> systems, auto fn) {
    std::vector<double> vals;
    for (const std::size_t s : systems) vals.push_back(fn(s));
    return GeoOr0(vals);
  };
  const auto all = {kLorm, kMercury, kSword, kMaan, kD1ht};
  const auto chord = {kMercury, kSword, kMaan};
  const auto walkers = {kMercury, kMaan, kD1ht};

  Add(r, "common.key_ns", over(all, [&](std::size_t s) {
        return Ratio(v.ns(Layer::kKey, s), v.work(Layer::kKey, s)); }), "ns");
  const auto route = [&](const char* prefix, Layer layer,
                         std::initializer_list<SystemIndex> systems) {
    Add(r, std::string(prefix) + ".lookup_ns", over(systems, [&](std::size_t s) {
          return Ratio(v.ns(layer, s), v.spans(layer, s)); }), "ns");
    Add(r, std::string(prefix) + ".ns_per_hop", over(systems, [&](std::size_t s) {
          return Ratio(v.ns(layer, s), v.work(layer, s)); }), "ns");
    Add(r, std::string(prefix) + ".hops_per_lookup", over(systems, [&](std::size_t s) {
          return Ratio(v.work(layer, s), v.spans(layer, s)); }), "count");
  };
  route("chord", Layer::kChordLookup, chord);
  route("cycloid", Layer::kCycloidLookup, {kLorm});
  route("singlehop", Layer::kSingleHopLookup, {kD1ht});
  Add(r, "discovery.walk.ns_per_visited", over(walkers, [&](std::size_t s) {
        return Ratio(v.ns(Layer::kWalk, s), v.work(Layer::kWalk, s)); }), "ns");
  Add(r, "discovery.cluster_walk.ns_per_visited",
      Ratio(v.ns(Layer::kClusterWalk, kLorm), v.work(Layer::kClusterWalk, kLorm)), "ns");
  Add(r, "discovery.directory.ns_per_probe", over(all, [&](std::size_t s) {
        return Ratio(v.ns(Layer::kDirectory, s), static_cast<double>(sh.counts[s].probes)); }), "ns");
  Add(r, "discovery.directory.ns_per_match", over(all, [&](std::size_t s) {
        return Ratio(v.ns(Layer::kDirectory, s), static_cast<double>(sh.counts[s].matches)); }), "ns");
  Add(r, "discovery.directory.matches_per_probe", over(all, [&](std::size_t s) {
        return Ratio(static_cast<double>(sh.counts[s].matches),
                     static_cast<double>(sh.counts[s].probes)); }), "count");
  Add(r, "discovery.join.ns_per_provider", over(all, [&](std::size_t s) {
        return Ratio(v.ns(Layer::kJoin, s), v.work(Layer::kJoin, s)); }), "ns");

  const double plan_queries = static_cast<double>(CounterValue("lorm.plan.queries"));
  Add(r, "discovery.plan.reordered_frac",
      Ratio(static_cast<double>(CounterValue("lorm.plan.reordered")), plan_queries), "fraction");
  Add(r, "discovery.plan.subs_skipped_frac",
      Ratio(static_cast<double>(CounterValue("lorm.plan.subs_skipped")), 3 * plan_queries),
      "fraction");
  const auto hit_ratio = [](const char* hits, const char* misses) {
    const double h = static_cast<double>(CounterValue(hits));
    return Ratio(h, h + static_cast<double>(CounterValue(misses)));
  };
  Add(r, "cache.result.hit_ratio",
      hit_ratio("lorm.cache.result.hits", "lorm.cache.result.misses"), "fraction");
  Add(r, "cache.route.hit_ratio",
      hit_ratio("lorm.cache.route.hits", "lorm.cache.route.misses"), "fraction");
  Add(r, "cache.result.probe_ns", m.cache_probe_ns, "ns");

  for (std::size_t s = 0; s < kSystems; ++s) {
    const std::string sys = kSystemNames[s];
    Add(r, "discovery.query_p50_us." + sys, SortedMedian(m.query_us[s]), "us");
    Add(r, "discovery.hops_per_query." + sys, m.hops_mean[s], "count");
    Add(r, "discovery.visited_per_query." + sys, m.visited_mean[s], "count");
  }
  for (std::size_t s = 0; s < kSystems; ++s) {
    const std::string sys = kSystemNames[s];
    Add(r, "discovery.node_join_us." + sys,
        Ratio(v.ns(Layer::kJoinNode, s), v.spans(Layer::kJoinNode, s)) / 1e3, "us");
    Add(r, "discovery.node_leave_us." + sys,
        Ratio(v.ns(Layer::kLeaveNode, s), v.spans(Layer::kLeaveNode, s)) / 1e3, "us");
    Add(r, "discovery.maintain_ms." + sys,
        Ratio(v.ns(Layer::kMaintain, s), v.spans(Layer::kMaintain, s)) / 1e6, "ms");
    Add(r, "discovery.maint_msgs_per_event." + sys, m.maint_msgs_per_event[s], "count");
  }
  std::vector<double> advertise_us;
  for (std::size_t s = 0; s < kSystems; ++s) {
    const std::string sys = kSystemNames[s];
    Add(r, "harness.build_s." + sys, v.ns(Layer::kBuild, s) / 1e9, "s");
    Add(r, "harness.advertise_s." + sys, v.ns(Layer::kAdvertiseAll, s) / 1e9, "s");
    advertise_us.push_back(Ratio(v.ns(Layer::kAdvertiseAll, s), v.work(Layer::kAdvertiseAll, s)) / 1e3);
  }
  Add(r, "harness.advertise_us", GeoOr0(advertise_us), "us");
  const LayerTotals& sim = tracer.Totals(Layer::kSimEvent, kNoSystem);
  Add(r, "sim.event_ns", Ratio(static_cast<double>(sim.self_ns), static_cast<double>(sim.spans)), "ns");

  std::vector<double> traced_ops;
  std::vector<double> untraced_ops;
  for (std::size_t s = 0; s < kSystems; ++s) {
    const double q = static_cast<double>(sh.queries);
    traced_ops.push_back(Ratio(q, sh.traced_s[s]));
    untraced_ops.push_back(Ratio(q, sh.untraced_s[s]));
  }
  Add(r, "obs.trace_overhead_frac",
      1.0 - Ratio(GeoOr0(traced_ops), GeoOr0(untraced_ops)), "fraction");

  // Closure: sum over layers of unit cost x work per query, against the
  // measured Query() time. Shares: each layer's part of the traced query.
  char line[256];
  r.notes.push_back("where the time goes (share of the traced layer replay of one query):");
  r.notes.push_back("system    query_us  route   walk   scan   join    key  other  closure");
  for (std::size_t s = 0; s < kSystems; ++s) {
    const std::string sys = kSystemNames[s];
    const ShadowCounts& c = sh.counts[s];
    const double q = static_cast<double>(std::max<std::uint64_t>(c.queries, 1));
    const Layer route_layer = s == kLorm   ? Layer::kCycloidLookup
                              : s == kD1ht ? Layer::kSingleHopLookup
                                           : Layer::kChordLookup;
    const Layer walk_layer = s == kLorm ? Layer::kClusterWalk : Layer::kWalk;
    const double unit_key = Ratio(v.ns(Layer::kKey, s), static_cast<double>(c.keys));
    const double unit_hop = Ratio(v.ns(route_layer, s), static_cast<double>(c.hops));
    const double unit_visit = Ratio(v.ns(walk_layer, s), static_cast<double>(c.walk_visited));
    const double unit_probe = Ratio(v.ns(Layer::kDirectory, s), static_cast<double>(c.probes));
    const double unit_provider = Ratio(v.ns(Layer::kJoin, s), static_cast<double>(c.join_inputs));
    const double key_ns = unit_key * static_cast<double>(c.keys) / q;
    const double route_ns = unit_hop * static_cast<double>(c.hops) / q;
    const double walk_ns = unit_visit * static_cast<double>(c.walk_visited) / q;
    const double scan_ns = unit_probe * static_cast<double>(c.probes) / q;
    const double join_ns = unit_provider * static_cast<double>(c.join_inputs) / q;
    const double predicted = key_ns + route_ns + walk_ns + scan_ns + join_ns;
    const double closure = Ratio(predicted, m.query_mean_ns[s]);
    Add(r, "model.closure_ratio." + sys, closure, "ratio");
    const double total = Ratio(v.ns(Layer::kShadowQuery, s), q);
    const double route_share = Ratio(route_ns, total);
    const double walk_share = Ratio(walk_ns, total);
    const double scan_share = Ratio(scan_ns, total);
    const double join_share = Ratio(join_ns, total);
    Add(r, "model.share.route." + sys, route_share, "fraction");
    Add(r, "model.share.walk." + sys, walk_share, "fraction");
    Add(r, "model.share.scan." + sys, scan_share, "fraction");
    Add(r, "model.share.join." + sys, join_share, "fraction");
    std::snprintf(line, sizeof line, "%-8s %9.2f %6.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %8.3f",
                  sys.c_str(), total / 1e3, 100 * route_share, 100 * walk_share,
                  100 * scan_share, 100 * join_share, 100 * Ratio(key_ns, total),
                  100 * (1 - Ratio(predicted, total)), closure);
    r.notes.push_back(line);
  }
}

// ---- Workloads -------------------------------------------------------------

/// Replays of one churn schedule, one per build, in which the overlays pass
/// through the same states. Each event's time is the fastest of its
/// executions, as for the queries of TimedQueries; the counted work must
/// come out identical in every replay.
struct Replays {
  std::vector<std::vector<double>> fastest_us;  ///< [s] per event
  ChurnResult counted;                          ///< the first replay's

  void Take(const ChurnResult& churn, Checker& checker) {
    if (fastest_us.empty()) {
      for (const ChurnSystemResult& cs : churn.systems) fastest_us.push_back(cs.event_us);
      counted = churn;
      return;
    }
    for (std::size_t s = 0; s < fastest_us.size(); ++s) {
      const ChurnSystemResult& a = counted.systems[s];
      const ChurnSystemResult& b = churn.systems[s];
      if (a.hops != b.hops || a.visited != b.visited || a.queries != b.queries ||
          a.maint_bytes != b.maint_bytes || a.maint_messages != b.maint_messages) {
        checker.Fail(std::string(kSystemNames[s]) + " counted different work in a churn replay");
      }
      for (std::size_t i = 0; i < fastest_us[s].size(); ++i) {
        fastest_us[s][i] = std::min(fastest_us[s][i], b.event_us[i]);
      }
    }
  }
};

/// Replays `schedule` on overlays built from `world.infos` and already
/// past its warm-up departures. Returns every tuple advertised by its end.
std::vector<resource::ResourceInfo> Replay(World& world, const ChurnSchedule& schedule,
                                           Tracer& tracer, Checker& checker,
                                           Replays& replays) {
  std::vector<resource::ResourceInfo> advertised = world.infos;
  replays.Take(ReplayChurn(world, schedule, advertised, tracer, checker), checker);
  return advertised;
}

/// Turns the replays of a membership phase into per-system measurements.
void TakeMembership(const Replays& replays, const ChurnSchedule& schedule,
                    Measured& m) {
  for (std::size_t s = 0; s < kSystems; ++s) {
    const ChurnSystemResult& cs = replays.counted.systems[s];
    m.update_us.push_back(SplitTimes(schedule, replays.fastest_us[s]).update_us);
    m.maint_bytes_per_node_s.push_back(static_cast<double>(cs.maint_bytes) /
                                       schedule.mean_live / schedule.horizon);
    m.maint_msgs_per_event.push_back(
        Ratio(static_cast<double>(cs.maint_messages),
              static_cast<double>(replays.counted.membership_events)));
  }
}

void RunStatic(const Options& opt, const Scale& sc, World& world, Tracer& tracer,
               Checker& checker, Measured& m, lorm::Rng& rng) {
  const bool hotspot = opt.workload == WorkloadKind::kHotspot;
  // Inputs first: the query pool and the membership phase.
  const auto pool = MakePool(opt.workload, world, sc, rng);
  const ChurnSchedule tail = MakeChurnSchedule(
      world, sc.tail, static_cast<NodeAddr>(world.setup.nodes), rng);

  // Every build but the last replays only the membership phase; the last
  // one measures the queries first.
  Tracer off(false, 0);
  if (opt.trace && hotspot) lorm::obs::SetMetricsEnabled(true);
  const std::size_t builds = opt.trace ? 1 : sc.setups;
  Replays replays;
  for (std::size_t b = 0;; ++b) {
    const bool last = b + 1 == builds;
    const Clock::time_point t0 = Clock::now();
    world.Build(last ? tracer : off);
    if (hotspot) ColdPass(world, pool, m.hops_mean, m.visited_mean);
    m.setup_s.push_back(Since(t0));
    if (last) break;
    ApplyWarmup(world, tail);
    Replay(world, tail, off, checker, replays);
  }
  const CheckPass check =
      RunCheckPass(world, pool, world.infos, sc.brute_stride, checker);
  if (opt.trace && hotspot) lorm::obs::SetMetricsEnabled(false);
  if (!hotspot) {
    m.hops_mean = check.hops_mean;
    m.visited_mean = check.visited_mean;
  }

  const std::size_t passes = Passes(opt.trace ? opt.seconds / 2 : opt.seconds, sc.pass_s);
  const Clock::time_point loop_start = Clock::now();
  std::vector<LoopMeasurement> loop = TimedQueries(world, pool, passes, checker);
  m.loop_note = "closed loop: " + std::to_string(passes) + " passes in " +
                std::to_string(Since(loop_start)) + " s";
  for (std::size_t s = 0; s < kSystems; ++s) {
    LoopMeasurement& lm = loop[s];
    m.ops_per_s.push_back(lm.ops_per_s);
    m.query_us.push_back(std::move(lm.latency_us));
    m.query_mean_ns.push_back(lm.mean_ns);
  }
  if (opt.trace) {
    m.shadow = RunShadow(world, pool, sc.shadow, check, /*compare_counts=*/!hotspot,
                         tracer, checker);
    m.cache_probe_ns = CacheProbeNs(world, pool, tracer);
  }

  ApplyWarmup(world, tail);
  Replay(world, tail, tracer, checker, replays);
  TakeMembership(replays, tail, m);
}

void RunChurnWorkload(const Options& opt, const Scale& sc, World& world,
                      Tracer& tracer, Checker& checker, Measured& m,
                      lorm::Rng& rng) {
  const ChurnSchedule schedule = MakeChurnSchedule(
      world, sc.churn, static_cast<NodeAddr>(world.setup.nodes), rng);
  Tracer off(false, 0);
  const std::size_t builds = opt.trace ? 1 : sc.setups;
  Replays replays;
  std::vector<resource::ResourceInfo> advertised;
  for (std::size_t b = 0; b < builds; ++b) {
    Tracer& t = b + 1 == builds ? tracer : off;
    const Clock::time_point t0 = Clock::now();
    world.Build(t);
    ApplyWarmup(world, schedule);
    m.setup_s.push_back(Since(t0));
    advertised = Replay(world, schedule, t, checker, replays);
  }
  TakeMembership(replays, schedule, m);
  for (std::size_t s = 0; s < kSystems; ++s) {
    const ChurnSystemResult& cs = replays.counted.systems[s];
    m.hops_mean.push_back(Ratio(static_cast<double>(cs.hops), static_cast<double>(cs.queries)));
    m.visited_mean.push_back(Ratio(static_cast<double>(cs.visited), static_cast<double>(cs.queries)));
    ChurnTimes times = SplitTimes(schedule, replays.fastest_us[s]);
    m.ops_per_s.push_back(Ratio(static_cast<double>(times.ops), times.busy_s));
    m.query_us.push_back(std::move(times.query_us));
  }
  if (opt.trace) {
    // Layer unit costs on the post-churn overlays, through point queries
    // aimed at the final membership's providers.
    const auto& post = schedule.post_queries;
    const CheckPass check = RunCheckPass(world, post, advertised, 20, checker);
    for (const LoopMeasurement& lm :
         TimedQueries(world, post, Passes(opt.seconds / 4, sc.pass_s), checker)) {
      m.query_mean_ns.push_back(lm.mean_ns);
    }
    m.shadow = RunShadow(world, post, sc.shadow, check, /*compare_counts=*/true,
                         tracer, checker);
    m.cache_probe_ns = CacheProbeNs(world, post, tracer);
  }
}

}  // namespace

std::vector<std::string> EndToEndMetricNames() {
  std::vector<std::string> names = {"setup_s", "peak_rss_mb"};
  for (const char* s : kSystemNames) names.push_back(std::string("ops_per_s.") + s);
  for (const char* n : {"ops_per_s", "query_p50_us", "query_p99_us", "update_p50_us",
                        "update_p90_us", "hops_per_query", "visited_per_query",
                        "maint_bytes_per_node_s"}) {
    names.push_back(n);
  }
  return names;
}

Report RunBenchmark(const Options& opt) {
  const Scale sc = MakeScale(opt);
  World world(sc.setup);
  lorm::Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 0x5E1F);
  {
    std::vector<NodeAddr> providers;
    for (std::size_t i = 0; i < world.setup.nodes; ++i) providers.push_back(static_cast<NodeAddr>(i));
    lorm::Rng info_rng = rng.Fork();
    world.infos = world.workload.GenerateInfos(providers, info_rng);
  }
  Tracer tracer(opt.trace, opt.trace ? std::size_t{1} << 20 : 0);
  Checker checker;
  Measured m;
  if (opt.workload == WorkloadKind::kChurn) {
    RunChurnWorkload(opt, sc, world, tracer, checker, m, rng);
  } else {
    RunStatic(opt, sc, world, tracer, checker, m, rng);
  }

  Report report;
  if (opt.trace) {
    AddPerLayer(report, m, tracer);
    if (!opt.trace_out.empty() && !tracer.WriteLog(opt.trace_out)) {
      report.notes.push_back("could not write the span log to " + opt.trace_out);
    }
  } else {
    AddEndToEnd(report, m);
  }
  report.attempted = checker.attempted;
  report.failed = checker.failed;
  report.correct = report.correct && checker.failed == 0;
  report.answer_digest = checker.digest;
  char line[160];
  std::snprintf(line, sizeof line, "failed_frac %.6g (%llu of %llu operations)",
                Ratio(static_cast<double>(checker.failed), static_cast<double>(checker.attempted)),
                static_cast<unsigned long long>(checker.failed),
                static_cast<unsigned long long>(checker.attempted));
  report.notes.push_back(line);
  if (!m.loop_note.empty()) report.notes.push_back(m.loop_note);
  for (const auto& p : checker.problems) report.notes.push_back(p);
  return report;
}

std::vector<std::string> PerLayerMetricNames() {
  // The traced run's names, in print order; kept in step with AddPerLayer
  // by the self-test that compares both with BENCHMARK.json.
  std::vector<std::string> names = {"common.key_ns"};
  for (const char* p : {"chord", "cycloid", "singlehop"}) {
    for (const char* m : {".lookup_ns", ".ns_per_hop", ".hops_per_lookup"}) {
      names.push_back(std::string(p) + m);
    }
  }
  for (const char* n : {"discovery.walk.ns_per_visited", "discovery.cluster_walk.ns_per_visited",
                        "discovery.directory.ns_per_probe", "discovery.directory.ns_per_match",
                        "discovery.directory.matches_per_probe", "discovery.join.ns_per_provider",
                        "discovery.plan.reordered_frac", "discovery.plan.subs_skipped_frac",
                        "cache.result.hit_ratio", "cache.route.hit_ratio", "cache.result.probe_ns"}) {
    names.push_back(n);
  }
  for (const char* s : kSystemNames) {
    for (const char* m : {"discovery.query_p50_us.", "discovery.hops_per_query.",
                          "discovery.visited_per_query."}) {
      names.push_back(std::string(m) + s);
    }
  }
  for (const char* s : kSystemNames) {
    for (const char* m : {"discovery.node_join_us.", "discovery.node_leave_us.",
                          "discovery.maintain_ms.", "discovery.maint_msgs_per_event."}) {
      names.push_back(std::string(m) + s);
    }
  }
  for (const char* s : kSystemNames) {
    names.push_back(std::string("harness.build_s.") + s);
    names.push_back(std::string("harness.advertise_s.") + s);
  }
  for (const char* n : {"harness.advertise_us", "sim.event_ns", "obs.trace_overhead_frac"}) {
    names.push_back(n);
  }
  for (const char* s : kSystemNames) {
    for (const char* m : {"model.closure_ratio.", "model.share.route.", "model.share.walk.",
                          "model.share.scan.", "model.share.join."}) {
      names.push_back(std::string(m) + s);
    }
  }
  return names;
}

std::string ResultLine(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
