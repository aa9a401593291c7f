#include "sim/executor.hpp"

namespace ccd {

Executor::Executor(World world, ExecutorOptions options)
    : engine_(
          [&] {
            EngineWorld ew;
            ew.world = std::move(world);
            ew.channel = ChannelModel::kMatrix;
            ew.scope = CollisionScope::kGlobal;
            return ew;
          }(),
          EngineOptions{/*record_rounds=*/true, options.record_views,
                        options.stop_when_all_decided}) {}

}  // namespace ccd
