#include "multihop/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

namespace ccd {
namespace {

/// The queue BFS the bit-row search replaced: hop distances from `from`,
/// kUnreachable where it never arrives.
std::vector<std::uint32_t> reference_bfs(const Topology& t, std::size_t from) {
  std::vector<std::uint32_t> dist(t.size(), Topology::kUnreachable);
  std::deque<std::uint32_t> queue;
  dist[from] = 0;
  queue.push_back(static_cast<std::uint32_t>(from));
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop_front();
    for (std::uint32_t v : t.neighbors(u)) {
      if (dist[v] == Topology::kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

/// connected(), eccentricity(i), diameter() and distance() against the
/// queue BFS, the way the replaced code derived each of them.
void expect_bfs_matches_reference(const Topology& t, const char* what) {
  const std::size_t n = t.size();
  SCOPED_TRACE(::testing::Message() << what << " n=" << n);
  std::uint32_t diameter = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::uint32_t> dist = reference_bfs(t, i);
    const bool reaches_all =
        std::find(dist.begin(), dist.end(), Topology::kUnreachable) ==
        dist.end();
    const std::uint32_t ecc =
        reaches_all ? *std::max_element(dist.begin(), dist.end())
                    : Topology::kUnreachable;
    ASSERT_EQ(t.eccentricity(i), ecc) << "from " << i;
    if (diameter != Topology::kUnreachable) {
      diameter = ecc == Topology::kUnreachable ? ecc : std::max(diameter, ecc);
    }
    if (i == 0) {
      ASSERT_EQ(t.connected(), reaches_all);
    }
    // Every target from the first and last node; one from the others.
    for (std::size_t j = 0; j < n; ++j) {
      if (i == 0 || i + 1 == n || j == (i * 7 + 3) % n) {
        ASSERT_EQ(t.distance(i, j), dist[j]) << i << " -> " << j;
      }
    }
  }
  ASSERT_EQ(t.diameter(), diameter);
  if (n == 0) {
    ASSERT_TRUE(t.connected());
  }
}

TEST(Topology, CliqueEveryoneAdjacent) {
  const Topology t = Topology::clique(5);
  EXPECT_EQ(t.size(), 5u);
  for (std::size_t a = 0; a < 5; ++a) {
    EXPECT_EQ(t.degree(a), 4u);
    for (std::size_t b = 0; b < 5; ++b) {
      EXPECT_EQ(t.adjacent(a, b), a != b);
    }
  }
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.diameter(), 1u);
}

TEST(Topology, LineDistancesAndDiameter) {
  const Topology t = Topology::line(10);
  EXPECT_EQ(t.distance(0, 9), 9u);
  EXPECT_EQ(t.distance(3, 7), 4u);
  EXPECT_EQ(t.diameter(), 9u);
  EXPECT_EQ(t.degree(0), 1u);
  EXPECT_EQ(t.degree(5), 2u);
  EXPECT_TRUE(t.connected());
}

TEST(Topology, GridStructure) {
  const Topology t = Topology::grid(4, 3);
  EXPECT_EQ(t.size(), 12u);
  // Corner degree 2, edge degree 3, interior degree 4.
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.degree(1), 3u);
  EXPECT_EQ(t.degree(5), 4u);
  // Manhattan distances.
  EXPECT_EQ(t.distance(0, 11), 3u + 2u);
  EXPECT_EQ(t.diameter(), 5u);
}

TEST(Topology, RingStructure) {
  const Topology t = Topology::ring(8);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.diameter(), 4u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(t.degree(i), 2u);
  EXPECT_TRUE(t.adjacent(7, 0));
  EXPECT_EQ(t.distance(0, 5), 3u);  // the wrap-around is shorter
}

TEST(Topology, RingDegeneratesToLineBelowThree) {
  EXPECT_EQ(Topology::ring(2).diameter(), 1u);
  EXPECT_EQ(Topology::ring(1).diameter(), 0u);
  EXPECT_TRUE(Topology::ring(0).connected());
}

TEST(Topology, GridNCoversExactlyNNodes) {
  for (std::size_t n : {1u, 2u, 5u, 8u, 9u, 12u, 17u, 36u}) {
    const Topology t = Topology::grid_n(n);
    EXPECT_EQ(t.size(), n) << n;
    EXPECT_TRUE(t.connected()) << n;
  }
  // A perfect square matches the rectangular generator.
  const Topology square = Topology::grid_n(9);
  const Topology rect = Topology::grid(3, 3);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(square.neighbors(i), rect.neighbors(i));
  }
  // Partial last row: n=8, width 3 -> rows {0,1,2},{3,4,5},{6,7}.
  const Topology partial = Topology::grid_n(8);
  EXPECT_TRUE(partial.adjacent(6, 7));
  EXPECT_TRUE(partial.adjacent(4, 7));
  EXPECT_FALSE(partial.adjacent(5, 7));
  EXPECT_EQ(partial.degree(7), 2u);
}

TEST(Topology, BitRowSearchMatchesQueueBfsOnEveryShippedShape) {
  for (std::size_t n = 0; n <= 70; ++n) {
    expect_bfs_matches_reference(Topology::clique(n), "clique");
    expect_bfs_matches_reference(Topology::line(n), "line");
    expect_bfs_matches_reference(Topology::ring(n), "ring");
    expect_bfs_matches_reference(Topology::grid_n(n), "grid_n");
  }
  for (std::size_t w = 1; w <= 8; ++w) {
    for (std::size_t h = 1; h <= 8; ++h) {
      expect_bfs_matches_reference(Topology::grid(w, h), "grid");
    }
  }
}

TEST(Topology, BitRowSearchMatchesQueueBfsOnRandomGeometricDraws) {
  // Radii from a quarter to twice the connectivity threshold, so both
  // connected and split graphs come up, at sizes that fill one, two and
  // three bit words (65 and 130 end one bit into their last word).
  std::size_t draws = 0, split = 0;
  for (std::size_t n : {2, 5, 17, 33, 63, 64, 65, 100, 128, 129, 130}) {
    const double threshold =
        std::sqrt(std::log(static_cast<double>(n)) /
                  (3.14159265358979323846 * static_cast<double>(n)));
    for (std::uint64_t seed = 0; seed < 190; ++seed) {
      const double radius = threshold * (0.25 + 1.75 * (seed % 19) / 18.0);
      const Topology t = Topology::random_geometric(n, radius, seed);
      expect_bfs_matches_reference(t, "rgg");
      if (::testing::Test::HasFatalFailure()) return;
      ++draws;
      split += !t.connected();
    }
  }
  EXPECT_GE(draws, 2000u);
  EXPECT_GT(split, 0u);
  EXPECT_LT(split, draws);
}

TEST(Topology, SingletonAndEmpty) {
  const Topology one = Topology::line(1);
  EXPECT_TRUE(one.connected());
  EXPECT_EQ(one.diameter(), 0u);
  const Topology two = Topology::line(2);
  EXPECT_EQ(two.diameter(), 1u);
}

TEST(Topology, DisconnectedGeometricDetected) {
  // Tiny radius: n isolated points.
  const Topology t = Topology::random_geometric(20, 1e-6, 3);
  EXPECT_FALSE(t.connected());
  EXPECT_EQ(t.diameter(), Topology::kUnreachable);
  EXPECT_EQ(t.distance(0, 1), Topology::kUnreachable);
}

TEST(Topology, DenseGeometricConnected) {
  // Radius ~ full square: a clique.
  const Topology t = Topology::random_geometric(20, 2.0, 3);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.diameter(), 1u);
  EXPECT_EQ(t.max_degree(), 19u);
}

TEST(Topology, GeometricDeterministicPerSeed) {
  const Topology a = Topology::random_geometric(30, 0.3, 7);
  const Topology b = Topology::random_geometric(30, 0.3, 7);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(a.neighbors(i), b.neighbors(i));
  }
}

TEST(Topology, EccentricityConsistentWithDiameter) {
  const Topology t = Topology::grid(5, 5);
  std::uint32_t worst = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    worst = std::max(worst, t.eccentricity(i));
  }
  EXPECT_EQ(worst, t.diameter());
  // Center of the grid has the smallest eccentricity.
  EXPECT_EQ(t.eccentricity(12), 4u);
  EXPECT_EQ(t.eccentricity(0), 8u);
}

TEST(Topology, ArticulationPointsOnStandardShapes) {
  // Line: every interior node is a cut vertex (the Omega(D) worst case is
  // also the partition worst case).
  const Topology line = Topology::line(5);
  EXPECT_EQ(line.articulation_points(),
            (std::vector<std::uint32_t>{1, 2, 3}));
  // Ring and clique: 2-connected, no cut vertex anywhere.
  EXPECT_TRUE(Topology::ring(6).articulation_points().empty());
  EXPECT_TRUE(Topology::clique(5).articulation_points().empty());
  // 2xN grid: 2-connected as well.
  EXPECT_TRUE(Topology::grid(2, 4).articulation_points().empty());
  // Degenerate sizes.
  EXPECT_TRUE(Topology::line(1).articulation_points().empty());
  EXPECT_TRUE(Topology::line(2).articulation_points().empty());
}

TEST(Topology, LargestComponentWithoutRanksCutDamage) {
  const Topology line = Topology::line(5);
  // Removing node 1 leaves {0} and {2,3,4}; removing the middle node 2
  // leaves two pairs -- the most balanced (worst) partition.
  EXPECT_EQ(line.largest_component_without(1), 3u);
  EXPECT_EQ(line.largest_component_without(2), 2u);
  // Removing a ring node leaves one path of n-1.
  EXPECT_EQ(Topology::ring(6).largest_component_without(0), 5u);
  EXPECT_EQ(Topology::line(1).largest_component_without(0), 0u);
}

}  // namespace
}  // namespace ccd
