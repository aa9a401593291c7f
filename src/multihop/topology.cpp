#include "multihop/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

#include "util/bitwords.hpp"

namespace ccd {

void Topology::add_edge(std::size_t a, std::size_t b) {
  assert(a != b && a < size() && b < size());
  adjacency_[a].push_back(static_cast<std::uint32_t>(b));
  adjacency_[b].push_back(static_cast<std::uint32_t>(a));
}

Topology Topology::clique(std::size_t n) {
  // Each row is every other node, ascending: one exact allocation per row.
  Topology t(n);
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<std::uint32_t>& row = t.adjacency_[a];
    row.reserve(n - 1);
    for (std::size_t b = 0; b < n; ++b) {
      if (b != a) row.push_back(static_cast<std::uint32_t>(b));
    }
  }
  return t;
}

Topology Topology::line(std::size_t n) {
  Topology t(n);
  for (std::size_t i = 0; i + 1 < n; ++i) t.add_edge(i, i + 1);
  return t;
}

Topology Topology::ring(std::size_t n) {
  if (n < 3) return line(n);
  Topology t(n);
  for (std::size_t i = 0; i + 1 < n; ++i) t.add_edge(i, i + 1);
  t.add_edge(n - 1, 0);
  for (auto& adj : t.adjacency_) std::sort(adj.begin(), adj.end());
  return t;
}

Topology Topology::grid_n(std::size_t n) {
  Topology t(n);
  std::size_t width = 1;
  while (width * width < n) ++width;  // ceil(sqrt(n))
  for (std::size_t i = 0; i < n; ++i) {
    const bool row_end = (i % width) + 1 == width;
    if (!row_end && i + 1 < n) t.add_edge(i, i + 1);
    if (i + width < n) t.add_edge(i, i + width);
  }
  for (auto& adj : t.adjacency_) std::sort(adj.begin(), adj.end());
  return t;
}

Topology Topology::grid(std::size_t width, std::size_t height) {
  Topology t(width * height);
  auto id = [width](std::size_t x, std::size_t y) { return y * width + x; };
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      if (x + 1 < width) t.add_edge(id(x, y), id(x + 1, y));
      if (y + 1 < height) t.add_edge(id(x, y), id(x, y + 1));
    }
  }
  for (auto& adj : t.adjacency_) std::sort(adj.begin(), adj.end());
  return t;
}

Topology Topology::random_geometric(std::size_t n, double radius,
                                    std::uint64_t seed) {
  Topology t(n);
  Rng rng(seed);
  std::vector<std::pair<double, double>> points(n);
  for (auto& p : points) p = {rng.uniform(), rng.uniform()};
  const double r2 = radius * radius;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double dx = points[a].first - points[b].first;
      const double dy = points[a].second - points[b].second;
      if (dx * dx + dy * dy <= r2) t.add_edge(a, b);
    }
  }
  for (auto& adj : t.adjacency_) std::sort(adj.begin(), adj.end());
  return t;
}

bool Topology::adjacent(std::size_t a, std::size_t b) const {
  const auto& adj = adjacency_[a];
  return std::binary_search(adj.begin(), adj.end(),
                            static_cast<std::uint32_t>(b));
}

std::size_t Topology::max_degree() const {
  std::size_t best = 0;
  for (const auto& adj : adjacency_) best = std::max(best, adj.size());
  return best;
}

namespace {

/// Breadth-first search over adjacency bit rows: a level's frontier
/// expands as the OR of its nodes' rows, so one level costs one row per
/// frontier node rather than one visit per edge.  The buffers are reused
/// across searches, so diameter() allocates once for all n of them.
class RowBfs {
 public:
  explicit RowBfs(const std::vector<std::vector<std::uint32_t>>& adjacency)
      : n_(adjacency.size()),
        words_(word_count(n_)),
        rows_(n_ * words_, 0),
        visited_(words_),
        frontier_(words_),
        next_(words_) {
    for (std::size_t u = 0; u < n_; ++u) {
      std::uint64_t* row = &rows_[u * words_];
      for (std::uint32_t v : adjacency[u]) row[v / 64] |= bit(v);
    }
  }

  /// Hop count from `from` to `to`; with to == n, to the farthest node
  /// (the eccentricity).  kUnreachable if that node is never reached.
  std::uint32_t levels(std::size_t from, std::size_t to) {
    std::fill(visited_.begin(), visited_.end(), 0);
    std::fill(frontier_.begin(), frontier_.end(), 0);
    visited_[from / 64] = frontier_[from / 64] = bit(from);
    std::size_t reached = 1;
    std::uint32_t depth = 0;
    auto arrived = [&] {
      return to < n_ ? (visited_[to / 64] & bit(to)) != 0 : reached == n_;
    };
    while (!arrived()) {
      std::fill(next_.begin(), next_.end(), 0);
      for (std::size_t w = 0; w < words_; ++w) {
        for_each_bit(frontier_[w], w * 64, [&](std::size_t u) {
          const std::uint64_t* row = &rows_[u * words_];
          for (std::size_t x = 0; x < words_; ++x) next_[x] |= row[x];
        });
      }
      std::size_t fresh = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        next_[w] &= ~visited_[w];
        visited_[w] |= next_[w];
        fresh += bit_count(next_[w]);
      }
      if (fresh == 0) return Topology::kUnreachable;
      reached += fresh;
      frontier_.swap(next_);
      ++depth;
    }
    return depth;
  }

 private:
  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i % 64);
  }

  std::size_t n_, words_;
  std::vector<std::uint64_t> rows_;  ///< n_ rows of words_ words
  std::vector<std::uint64_t> visited_, frontier_, next_;
};

}  // namespace

std::uint32_t Topology::distance(std::size_t from, std::size_t to) const {
  return RowBfs(adjacency_).levels(from, to);
}

bool Topology::connected() const {
  return size() == 0 ||
         RowBfs(adjacency_).levels(0, size()) != kUnreachable;
}

std::uint32_t Topology::eccentricity(std::size_t from) const {
  return RowBfs(adjacency_).levels(from, size());
}

std::vector<std::uint32_t> Topology::articulation_points() const {
  const std::size_t n = size();
  std::vector<std::uint32_t> disc(n, 0), low(n, 0);
  std::vector<bool> is_cut(n, false);
  std::uint32_t timer = 0;

  // Iterative Tarjan DFS (an explicit stack keeps 1e5-node rgg sweeps off
  // the call stack).  Each frame remembers which neighbor index it resumes
  // at; low-link values propagate when a child frame retires.
  struct Frame {
    std::uint32_t node;
    std::uint32_t parent;
    std::size_t next_edge = 0;
    std::uint32_t children = 0;  // DFS-tree children (root cut rule)
  };
  std::vector<Frame> stack;
  for (std::size_t root = 0; root < n; ++root) {
    if (disc[root] != 0) continue;
    stack.push_back({static_cast<std::uint32_t>(root), kUnreachable});
    disc[root] = low[root] = ++timer;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_edge < adjacency_[f.node].size()) {
        const std::uint32_t to = adjacency_[f.node][f.next_edge++];
        if (to == f.parent) continue;
        if (disc[to] != 0) {
          low[f.node] = std::min(low[f.node], disc[to]);
        } else {
          ++f.children;
          disc[to] = low[to] = ++timer;
          stack.push_back({to, f.node});
        }
      } else {
        const Frame done = f;
        stack.pop_back();
        if (done.parent == kUnreachable) {
          // Root rule: a DFS root is a cut vertex iff it has > 1 children.
          if (done.children > 1) is_cut[done.node] = true;
        } else {
          Frame& up = stack.back();
          low[up.node] = std::min(low[up.node], low[done.node]);
          // Non-root rule: no back edge from `done`'s subtree climbs above
          // `up`, so removing `up` severs that subtree.
          if (low[done.node] >= disc[up.node] &&
              up.parent != kUnreachable) {
            is_cut[up.node] = true;
          }
        }
      }
    }
  }
  std::vector<std::uint32_t> cuts;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_cut[i]) cuts.push_back(static_cast<std::uint32_t>(i));
  }
  return cuts;
}

std::size_t Topology::largest_component_without(std::size_t v) const {
  const std::size_t n = size();
  std::vector<bool> seen(n, false);
  seen[v] = true;  // removed
  std::size_t largest = 0;
  std::deque<std::uint32_t> queue;
  for (std::size_t s = 0; s < n; ++s) {
    if (seen[s]) continue;
    std::size_t count = 0;
    seen[s] = true;
    queue.push_back(static_cast<std::uint32_t>(s));
    while (!queue.empty()) {
      const std::uint32_t u = queue.front();
      queue.pop_front();
      ++count;
      for (std::uint32_t w : adjacency_[u]) {
        if (!seen[w]) {
          seen[w] = true;
          queue.push_back(w);
        }
      }
    }
    largest = std::max(largest, count);
  }
  return largest;
}

namespace {

/// Unit-capacity flow network for vertex connectivity (Even's split-vertex
/// construction): node v becomes v_in (2v) -> v_out (2v+1) with capacity 1,
/// every undirected edge (u, v) becomes u_out -> v_in and v_out -> u_in
/// with effectively infinite capacity.  A max flow from s_out to t_in then
/// equals the minimum number of vertices (s, t excluded) whose removal
/// separates t from s, and the saturated split edges on the residual
/// frontier ARE that vertex cut.
class SplitVertexFlow {
 public:
  explicit SplitVertexFlow(
      const std::vector<std::vector<std::uint32_t>>& adjacency) {
    const std::size_t n = adjacency.size();
    graph_.resize(2 * n);
    for (std::uint32_t v = 0; v < n; ++v) {
      add_edge(2 * v, 2 * v + 1, 1);
      for (std::uint32_t w : adjacency[v]) {
        add_edge(2 * v + 1, 2 * w, kInf);
      }
    }
  }

  /// Max flow s_out -> t_in by BFS augmentation (each augmenting path adds
  /// exactly 1), stopping early once `bound` is reached -- callers only
  /// care whether a cut smaller than `bound` exists.
  std::uint32_t max_flow(std::uint32_t s, std::uint32_t t,
                         std::uint32_t bound) {
    for (Edge& e : edges_) e.flow = 0;
    const std::uint32_t source = 2 * s + 1, sink = 2 * t;
    std::uint32_t flow = 0;
    std::vector<std::int32_t> via(graph_.size());
    std::deque<std::uint32_t> queue;
    while (flow < bound) {
      std::fill(via.begin(), via.end(), -1);
      via[source] = -2;
      queue.clear();
      queue.push_back(source);
      while (!queue.empty() && via[sink] == -1) {
        const std::uint32_t u = queue.front();
        queue.pop_front();
        for (std::int32_t id : graph_[u]) {
          const Edge& e = edges_[static_cast<std::size_t>(id)];
          if (via[e.to] == -1 && e.flow < e.cap) {
            via[e.to] = id;
            queue.push_back(e.to);
          }
        }
      }
      if (via[sink] == -1) break;
      for (std::uint32_t u = sink; u != source;) {
        Edge& e = edges_[static_cast<std::size_t>(via[u])];
        e.flow += 1;
        edges_[static_cast<std::size_t>(via[u]) ^ 1].flow -= 1;
        u = edges_[static_cast<std::size_t>(via[u]) ^ 1].to;
      }
      ++flow;
    }
    return flow;
  }

  /// The vertex cut certified by the last max_flow call: vertices whose
  /// split edge is saturated with v_in residual-reachable from the source
  /// and v_out not.  Only meaningful when that flow hit its min cut (was
  /// not stopped early by `bound`).  Ascending.
  std::vector<std::uint32_t> cut_vertices(std::uint32_t s) {
    std::vector<bool> reach(graph_.size(), false);
    std::deque<std::uint32_t> queue;
    reach[2 * s + 1] = true;
    queue.push_back(2 * s + 1);
    while (!queue.empty()) {
      const std::uint32_t u = queue.front();
      queue.pop_front();
      for (std::int32_t id : graph_[u]) {
        const Edge& e = edges_[static_cast<std::size_t>(id)];
        if (!reach[e.to] && e.flow < e.cap) {
          reach[e.to] = true;
          queue.push_back(e.to);
        }
      }
    }
    std::vector<std::uint32_t> cut;
    for (std::uint32_t v = 0; 2 * v + 1 < graph_.size(); ++v) {
      if (reach[2 * v] && !reach[2 * v + 1]) cut.push_back(v);
    }
    return cut;
  }

 private:
  static constexpr std::int32_t kInf = 1 << 29;
  struct Edge {
    std::uint32_t to;
    std::int32_t cap;
    std::int32_t flow = 0;
  };

  void add_edge(std::uint32_t from, std::uint32_t to, std::int32_t cap) {
    graph_[from].push_back(static_cast<std::int32_t>(edges_.size()));
    edges_.push_back({to, cap});
    graph_[to].push_back(static_cast<std::int32_t>(edges_.size()));
    edges_.push_back({from, 0});  // residual twin at id ^ 1
  }

  std::vector<Edge> edges_;
  std::vector<std::vector<std::int32_t>> graph_;
};

}  // namespace

std::vector<std::uint32_t> Topology::min_vertex_cut(
    std::size_t max_size) const {
  const std::size_t n = size();
  if (n < 3 || max_size == 0) return {};

  // Largest surviving component with the candidate set removed, or n when
  // the removal does NOT separate the survivors (not a cut).
  std::vector<bool> removed(n, false);
  std::vector<bool> seen(n, false);
  std::deque<std::uint32_t> queue;
  auto damage = [&](const std::vector<std::uint32_t>& cut) -> std::size_t {
    std::fill(removed.begin(), removed.end(), false);
    for (std::uint32_t v : cut) removed[v] = true;
    std::fill(seen.begin(), seen.end(), false);
    std::size_t components = 0, survivors = 0, largest = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (removed[s] || seen[s]) continue;
      ++components;
      std::size_t count = 0;
      seen[s] = true;
      queue.push_back(static_cast<std::uint32_t>(s));
      while (!queue.empty()) {
        const std::uint32_t u = queue.front();
        queue.pop_front();
        ++count;
        for (std::uint32_t w : adjacency_[u]) {
          if (!removed[w] && !seen[w]) {
            seen[w] = true;
            queue.push_back(w);
          }
        }
      }
      survivors += count;
      largest = std::max(largest, count);
    }
    if (components < 2 || survivors < 2) return n;  // not a separator
    return largest;
  };

  // Damage-ranked sweep over all size-k combinations: the selection rule
  // of record (most damaging, lexicographically-first on ties).
  auto best_of_size = [&](std::size_t k) -> std::vector<std::uint32_t> {
    std::vector<std::uint32_t> best;
    std::size_t best_damage = n;
    std::vector<std::uint32_t> pick(k);
    for (std::size_t i = 0; i < k; ++i) {
      pick[i] = static_cast<std::uint32_t>(i);
    }
    while (true) {
      const std::size_t d = damage(pick);
      if (d < best_damage) {
        best_damage = d;
        best = pick;
      }
      // Advance the ascending-combination odometer.
      bool advanced = false;
      for (std::size_t i = k; i-- > 0;) {
        if (pick[i] + (k - i) < n) {
          ++pick[i];
          for (std::size_t j = i + 1; j < k; ++j) {
            pick[j] = pick[j - 1] + 1;
          }
          advanced = true;
          break;
        }
      }
      if (!advanced) break;
    }
    return best;
  };

  // Disconnected graph: any vertex whose removal still leaves >= 2 nodes
  // in >= 2 components is a size-1 "cut" (and one always exists at n >= 3),
  // so the damage-ranked single-vertex sweep is both exact and cheap.
  if (!connected()) return best_of_size(1);

  // Vertex connectivity kappa by max flow over the split-vertex graph.
  // Any cut S of size < bound misses at least one of the first |S| + 1
  // vertices, and that survivor is non-adjacent to everything S separates
  // it from -- so scanning sources s = 0 .. kappa (dynamically shrunk) over
  // all non-adjacent sinks visits a certifying pair.  Flows are capped at
  // bound = max_size + 1: a graph more connected than the budget returns
  // empty without ever running a deeper flow.
  const std::uint32_t bound =
      static_cast<std::uint32_t>(std::min(max_size + 1, n - 2));
  SplitVertexFlow flow(adjacency_);
  std::uint32_t kappa = bound;
  std::vector<std::vector<std::uint32_t>> certified;  // min cuts seen
  for (std::uint32_t s = 0; s <= kappa && s < n; ++s) {
    for (std::uint32_t t = 0; t < n; ++t) {
      if (t == s || adjacent(s, t)) continue;
      const std::uint32_t f = flow.max_flow(s, t, kappa + 1);
      if (f > kappa) continue;  // stopped early: cut here is >= ours
      if (f < kappa) {
        kappa = f;
        certified.clear();
      }
      certified.push_back(flow.cut_vertices(s));
    }
  }
  if (kappa > max_size || certified.empty()) return {};

  // Selection among size-kappa cuts.  Under a combinatorial budget the
  // full enumeration reproduces the historical ranking exactly; beyond it
  // (big graphs with kappa >= 2, where C(n, kappa) explodes) the flow
  // certificates stand in as the candidate pool, ranked the same way.
  constexpr std::size_t kEnumBudget = 200'000;
  std::size_t combinations = 1;
  for (std::size_t i = 0; i < kappa && combinations <= kEnumBudget; ++i) {
    combinations = combinations * (n - i) / (i + 1);
  }
  if (combinations <= kEnumBudget) return best_of_size(kappa);

  std::vector<std::uint32_t> best;
  std::size_t best_damage = n;
  std::sort(certified.begin(), certified.end());
  certified.erase(std::unique(certified.begin(), certified.end()),
                  certified.end());
  for (const std::vector<std::uint32_t>& cut : certified) {
    const std::size_t d = damage(cut);
    if (d < best_damage) {
      best_damage = d;
      best = cut;
    }
  }
  return best;
}

std::uint32_t Topology::diameter() const {
  RowBfs bfs(adjacency_);
  std::uint32_t worst = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    const std::uint32_t e = bfs.levels(i, size());
    if (e == kUnreachable) return kUnreachable;
    worst = std::max(worst, e);
  }
  return worst;
}

}  // namespace ccd
