#include "discovery/join.hpp"

#include <algorithm>

namespace lorm::discovery {

void ProvidersOf(const std::vector<resource::ResourceInfo>& matches,
                 std::vector<NodeAddr>& out) {
  out.clear();
  out.reserve(matches.size());
  // Matches arrive sorted by provider (DedupMatches, or a cache entry stored
  // after it), so one pass that drops repeats is the whole job. A descent
  // means some other order; only then sort.
  bool sorted = true;
  for (const auto& info : matches) {
    if (!out.empty()) {
      if (info.provider == out.back()) continue;
      sorted &= out.back() < info.provider;
    }
    out.push_back(info.provider);
  }
  if (sorted) return;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void IntersectSorted(std::vector<NodeAddr>& acc,
                     const std::vector<NodeAddr>& cur,
                     std::vector<NodeAddr>& tmp) {
  tmp.clear();
  // For each element of the smaller set, gallop forward from the cursor in
  // the larger: double the step until it passes x, then binary-search the
  // last bracket. Output order follows the sorted inputs, so the result
  // equals std::set_intersection's.
  const std::vector<NodeAddr>& small = acc.size() <= cur.size() ? acc : cur;
  const std::vector<NodeAddr>& large = acc.size() <= cur.size() ? cur : acc;
  const NodeAddr* it = large.data();
  const NodeAddr* const end = it + large.size();
  for (const NodeAddr x : small) {
    const auto left = static_cast<std::size_t>(end - it);
    std::size_t step = 1;
    while (step < left && it[step] < x) step *= 2;
    it = std::lower_bound(it + step / 2, it + std::min(step, left), x);
    if (it == end) break;
    if (*it == x) {
      tmp.push_back(x);
      ++it;
    }
  }
  acc.swap(tmp);
}

std::vector<NodeAddr> JoinProviders(
    const std::vector<std::vector<resource::ResourceInfo>>& per_sub) {
  if (per_sub.empty()) return {};

  std::vector<NodeAddr> acc;
  ProvidersOf(per_sub.front(), acc);

  std::vector<NodeAddr> cur;
  std::vector<NodeAddr> tmp;
  for (std::size_t i = 1; i < per_sub.size() && !acc.empty(); ++i) {
    ProvidersOf(per_sub[i], cur);
    IntersectSorted(acc, cur, tmp);
  }
  return acc;
}

void DedupMatches(std::vector<resource::ResourceInfo>& matches) {
  std::sort(matches.begin(), matches.end(),
            [](const resource::ResourceInfo& a,
               const resource::ResourceInfo& b) {
              if (a.attr != b.attr) return a.attr < b.attr;
              if (a.provider != b.provider) return a.provider < b.provider;
              return a.value < b.value;
            });
  matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
}

}  // namespace lorm::discovery
