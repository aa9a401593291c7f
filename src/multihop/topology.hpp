// Multihop network topologies -- the extension the paper's conclusion
// announces ("In the near future, we plan to extend our formal model to
// describe a multihop network").
//
// A topology is a fixed undirected graph over process indices; local radio
// broadcast reaches exactly the neighbors.  Generators cover the standard
// shapes of the broadcast literature discussed in Section 1.1: cliques
// (which recover the single-hop model), lines and grids (diameter-bound
// experiments, cf. the Omega(D log(N/D)) broadcast bound [46]), and random
// geometric graphs (unit-disk radio models).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace ccd {

class Topology {
 public:
  static Topology clique(std::size_t n);
  static Topology line(std::size_t n);
  /// Cycle over n nodes (degenerates to line(n) for n < 3).
  static Topology ring(std::size_t n);
  static Topology grid(std::size_t width, std::size_t height);
  /// Row-major grid over EXACTLY n nodes with ceil(sqrt(n)) columns; the
  /// last row may be partial.  This is the spec-driven form (the sweep
  /// engine's n axis does not factor nicely into width x height).
  static Topology grid_n(std::size_t n);
  /// n points uniform in the unit square, edge iff distance <= radius.
  static Topology random_geometric(std::size_t n, double radius,
                                   std::uint64_t seed);

  std::size_t size() const { return adjacency_.size(); }

  /// Neighbors of i (excluding i), sorted ascending.
  const std::vector<std::uint32_t>& neighbors(std::size_t i) const {
    return adjacency_[i];
  }

  bool adjacent(std::size_t a, std::size_t b) const;

  std::size_t degree(std::size_t i) const { return adjacency_[i].size(); }
  std::size_t max_degree() const;

  /// BFS hop distance; kUnreachable if disconnected.
  static constexpr std::uint32_t kUnreachable = ~0u;
  std::uint32_t distance(std::size_t from, std::size_t to) const;

  bool connected() const;

  /// Max over pairs of the hop distance (kUnreachable if disconnected).
  std::uint32_t diameter() const;

  /// Eccentricity of one node: max hop distance to any other node.
  std::uint32_t eccentricity(std::size_t from) const;

  /// Cut vertices (Tarjan low-link), ascending.  A node is an articulation
  /// point iff removing it disconnects its connected component -- every
  /// interior node of a line, no node of a ring or clique.  The
  /// "articulation-point" crash-schedule generator targets these.
  std::vector<std::uint32_t> articulation_points() const;

  /// Size of the largest connected component of the graph with node `v`
  /// removed (0 for a graph of one node).  Ranks articulation points by
  /// damage: smaller is a more balanced, worse partition.
  std::size_t largest_component_without(std::size_t v) const;

  /// A minimum vertex cut of size at most `max_size`: the smallest set S
  /// whose removal leaves >= 2 nodes in >= 2 components.  Among same-size
  /// cuts the most damaging wins (smallest largest surviving component),
  /// lexicographically-first on ties.  Empty when no such cut exists
  /// (cliques, graphs with < 3 nodes, min cut > max_size).
  ///
  /// The cut size is found by BFS max-flow over the split-vertex graph
  /// (Even's construction: v_in -> v_out at capacity 1), with every flow
  /// capped at max_size + 1 -- so the cost is O(max_size * n * edges) at
  /// ANY n, with no small-graph size cap.  The damage ranking then runs
  /// over all C(n, kappa) size-kappa sets while that count is modest
  /// (every graph the old brute force could handle, pinned equal by test);
  /// past ~200k combinations the flow's own min-cut certificates become
  /// the candidate pool, ranked by the same (damage, lex) rule.
  std::vector<std::uint32_t> min_vertex_cut(std::size_t max_size = 3) const;

  friend bool operator==(const Topology&, const Topology&) = default;

 private:
  explicit Topology(std::size_t n) : adjacency_(n) {}
  void add_edge(std::size_t a, std::size_t b);

  std::vector<std::vector<std::uint32_t>> adjacency_;
};

}  // namespace ccd
