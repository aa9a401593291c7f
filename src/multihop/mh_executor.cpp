#include "multihop/mh_executor.hpp"

namespace ccd {

MultihopExecutor::MultihopExecutor(
    Topology topology, std::vector<std::unique_ptr<Process>> processes,
    DetectorSpec spec, std::unique_ptr<AdvicePolicy> policy, MhLinkModel link,
    std::uint64_t seed, std::unique_ptr<FailureAdversary> fault)
    : engine_(
          [&] {
            EngineWorld ew;
            ew.world.processes = std::move(processes);
            ew.world.cd =
                std::make_unique<OracleDetector>(spec, std::move(policy));
            ew.world.fault = std::move(fault);  // null -> NoFailures
            ew.topology = std::move(topology);
            ew.channel = ChannelModel::kCapture;
            ew.scope = CollisionScope::kLocal;
            ew.link = link;
            ew.link_seed = seed;
            return ew;
          }(),
          EngineOptions{/*record_rounds=*/false, /*record_views=*/false,
                        /*stop_when_all_decided=*/false}) {}

}  // namespace ccd
