// Multihop flooding demo: disseminate a firmware-update announcement from
// one corner of a 6x6 sensor grid using collision-detector-assisted
// flooding (the multihop extension module).
//
// Watch the wavefront: the per-node reception round is printed as a map;
// it grows roughly with hop distance from the source, and the CD-backoff
// policy keeps dense neighbourhoods from jamming themselves.
#include <cstdio>
#include <iostream>

#include "cd/oracle_detector.hpp"
#include "engine/lane_engine.hpp"
#include "multihop/flood.hpp"

int main() {
  using namespace ccd;

  const std::size_t width = 6, height = 6;
  Topology topo = Topology::grid(width, height);

  std::vector<std::unique_ptr<Process>> nodes;
  for (std::size_t i = 0; i < topo.size(); ++i) {
    FloodProcess::Options o;
    o.is_source = i == 0;  // top-left corner
    o.policy = FloodPolicy::kCdBackoff;
    o.p_broadcast = 0.5;
    o.fresh_rounds = 400;
    o.seed = 100 + i;
    nodes.push_back(std::make_unique<FloodProcess>(o));
  }

  // One world on the round engine's multihop channel: capture-effect
  // radio physics and per-neighbourhood collision detection.
  EngineWorld world;
  world.world.processes = std::move(nodes);
  world.world.cd = std::make_unique<OracleDetector>(DetectorSpec::ZeroAC(),
                                                    make_truthful_policy());
  world.topology = std::make_shared<const Topology>(topo);
  world.channel = ChannelModel::kCapture;
  world.scope = CollisionScope::kLocal;
  world.link = {0.95, 0.1};
  world.link_seed = 4;
  EngineOptions options;
  options.stop_when_all_decided = false;
  LaneEngine ex(std::move(world), options);

  Round completed = 0;
  for (Round r = 1; r <= 2000; ++r) {
    ex.step();
    bool all = true;
    for (std::size_t i = 0; i < ex.size(); ++i) {
      if (!static_cast<FloodProcess&>(ex.process(0, i)).has_message()) {
        all = false;
        break;
      }
    }
    if (all) {
      completed = r;
      break;
    }
  }

  if (completed == 0) {
    std::cout << "flood did not complete within 2000 rounds\n";
    return 1;
  }

  std::cout << "firmware announcement reached all " << topo.size()
            << " nodes in " << completed << " rounds (grid diameter "
            << topo.diameter() << ")\n\nreception round per node:\n";
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const auto& node = static_cast<FloodProcess&>(
          ex.process(0, y * width + x));
      std::printf("%5u", node.received_at());
    }
    std::printf("\n");
  }
  std::cout << "\n(source at top-left received in round 0; the wavefront "
               "tracks hop distance)\n";
  return 0;
}
