// Lanes on/off differential property test: the engine's batching
// acceptance gate.  A seeded random-ScenarioSpec generator draws specs
// across every axis the engine executes (topology x workload x channel x
// scope x fault x CM/CD x loss x policy x chaos), builds a single-cell
// sweep around each, and runs it with lanes ON (blocks of up to 64 seeds)
// and lanes OFF (one-lane blocks).  The two result sets must be
// indistinguishable, and equal to the reference frozen from the deleted
// scalar engine:
//
//   * the JSON and CSV reports are byte-identical, and
//   * every run's EngineCounters are exactly equal
//
// -- i.e. a batched lane is not "statistically equivalent", it is the SAME
// execution.  Any divergence in RNG stream discipline, component call
// order, crash-point semantics, delivery multiset order, termination
// accounting or counter increment sites shows up here as a spec JSON the
// failure message prints verbatim for replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "exp/aggregator.hpp"
#include "exp/lane_executor.hpp"
#include "exp/sweep_grid.hpp"
#include "exp/sweep_runner.hpp"
#include "obs/telemetry.hpp"
#include "util/rng.hpp"

namespace ccd::exp {
namespace {

template <typename E>
E pick(Rng& rng, std::initializer_list<E> choices) {
  return *(choices.begin() + rng.below(choices.size()));
}

/// Draw a random but valid spec.  Axis weights keep the sweep broad while
/// bounding runtime: small n dominates, the occasional 33/64 exercises
/// multi-word process masks.
ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.workload =
      pick(rng, {WorkloadKind::kConsensus, WorkloadKind::kConsensus,
                 WorkloadKind::kConsensus, WorkloadKind::kFlood,
                 WorkloadKind::kMis, WorkloadKind::kMisThenConsensus});
  if (spec.workload == WorkloadKind::kConsensus) {
    spec.topology =
        pick(rng, {TopologyKind::kSingleHop, TopologyKind::kSingleHop,
                   TopologyKind::kSingleHop, TopologyKind::kLine,
                   TopologyKind::kRing, TopologyKind::kGrid,
                   TopologyKind::kRandomGeometric});
  } else {
    spec.topology = pick(rng, {TopologyKind::kLine, TopologyKind::kRing,
                               TopologyKind::kGrid, TopologyKind::kGrid,
                               TopologyKind::kRandomGeometric});
  }
  spec.n = pick(rng, {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 12u, 16u, 33u,
                      64u});
  spec.alg = pick(rng, {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg3,
                        AlgKind::kAlg4, AlgKind::kNaive});
  spec.detector =
      pick(rng, {DetectorKind::kAC, DetectorKind::kMajAC,
                 DetectorKind::kHalfAC, DetectorKind::kZeroAC,
                 DetectorKind::kOAC, DetectorKind::kMajOAC,
                 DetectorKind::kHalfOAC, DetectorKind::kZeroOAC,
                 DetectorKind::kNoCd, DetectorKind::kNoAcc});
  spec.policy =
      pick(rng, {PolicyKind::kTruthful, PolicyKind::kPreferNull,
                 PolicyKind::kPreferCollision, PolicyKind::kSpurious,
                 PolicyKind::kFlakyMajority, PolicyKind::kRandomLegal});
  spec.cm = pick(rng, {CmKind::kNoCm, CmKind::kWakeup, CmKind::kLeader,
                       CmKind::kBackoff});
  spec.loss = pick(rng, {LossKind::kNoLoss, LossKind::kEcf,
                         LossKind::kProbabilistic, LossKind::kUnrestricted});
  spec.fault = pick(rng, {FaultKind::kNone, FaultKind::kRandomCrash,
                          FaultKind::kRandomCrash, FaultKind::kScheduled});
  if (spec.fault == FaultKind::kScheduled) {
    // Both crash points in one deterministic schedule; process ids are
    // reduced mod n at factory time by the named generators, but an
    // explicit list must stay in range itself.
    spec.crash_schedule = {
        {2, static_cast<ProcessId>(rng.below(spec.n)),
         CrashPoint::kAfterSend},
        {4, static_cast<ProcessId>(rng.below(spec.n)),
         CrashPoint::kBeforeSend},
    };
  }
  spec.init = pick(rng, {InitKind::kRandom, InitKind::kSplit,
                         InitKind::kAllSame});
  spec.chaos = pick(rng, {ChaosKind::kCalm, ChaosKind::kChaotic});
  spec.num_values = pick(rng, {2ull, 4ull, 16ull, 32ull});
  spec.cst_target = static_cast<Round>(1 + rng.below(10));
  spec.p_deliver = 0.3 + 0.1 * static_cast<double>(rng.below(8));
  spec.spurious_p = 0.1 * static_cast<double>(rng.below(9));
  spec.crash_p = 0.02 + 0.02 * static_cast<double>(rng.below(5));
  // Cap never-deciding cells (NoCD / naive / unrestricted) well below the
  // derived default budget; equivalence is just as observable at 60 rounds.
  spec.max_rounds = static_cast<Round>(30 + rng.below(31));
  return spec;
}

struct SweepResult {
  std::string json;
  std::string csv;
  std::vector<obs::EngineCounters> counters;
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a over every run's counters, field by field in the sidecar's
/// field-table order, each value as 8 little-endian bytes.
std::uint64_t fnv1a(const std::vector<obs::EngineCounters>& counters) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const obs::EngineCounters& c : counters) {
    for (const obs::EngineCounterField& field : obs::kEngineCounterFields) {
      const std::uint64_t v = c.*field.member;
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buffer;
}

struct Frozen {
  std::uint64_t json;
  std::uint64_t csv;
  std::uint64_t counters;
  friend bool operator==(const Frozen&, const Frozen&) = default;
};

// FNV-1a of each random spec's JSON report, CSV report and per-run
// counters, captured from the scalar RoundEngine (lanes off) immediately
// before it was deleted.  Both paths must keep reproducing them.
constexpr Frozen kFrozenReference[] = {
    {0x34f18f20a247fe49ull, 0xf9cfbb65c8ca96a8ull, 0x50c2b03cf55df864ull},
    {0x806f9e2515aff37dull, 0x339c68b272e47769ull, 0x9e569c266ebe6d5aull},
    {0x76659e69c20b3f02ull, 0xacd0e9b668d6b5ddull, 0x89e342ac96b1ce17ull},
    {0xbad65340b6c7713cull, 0x838668ef39bfda38ull, 0xc67ec9f5775bfee5ull},
    {0x655334d957edbbaeull, 0xfbb8107955c81275ull, 0xe93993d990fb7195ull},
    {0x555160489355a8d7ull, 0xb41cfd2bb4362301ull, 0x3f4d8afbd8a7f723ull},
    {0xc5e213cdace90b43ull, 0x947f6b3432543239ull, 0x6f936571d1c5cd19ull},
    {0xcd276ed0ba737c21ull, 0x62a532b0a26ac7faull, 0x1e5ba72bbc99b919ull},
    {0x36e1b94cef6c7a53ull, 0x01887a6bd2798c7full, 0x611aea9d9371b68eull},
    {0x0ee4ab94d40e539aull, 0x61861d6824bcb741ull, 0x66512d22f0abaebcull},
    {0x17ecff69f1711196ull, 0xaafb9cd1f5e35386ull, 0x4b9974835d839555ull},
    {0xcc13815f65978876ull, 0x4d3dbaa432812772ull, 0xebe731a1b7b61b07ull},
    {0x4cfec3f9e8edd9f4ull, 0xe14116ca0582f8afull, 0x29abb363aa5cfac6ull},
    {0x49cba78f779355c7ull, 0x842990e8206dec58ull, 0x2733c798666ab257ull},
    {0xa7ce40426c4f3402ull, 0x159d86fd4715efc6ull, 0xdaca9636b51d3c4cull},
    {0x0adf9bb914fb1617ull, 0x871333d625b48abaull, 0x350d996af593f7b3ull},
    {0xe6878721bbbc0410ull, 0x60458cc27bd8bd70ull, 0x7d3f7efd3487cce1ull},
    {0x284455a1f097669bull, 0x7ed3c6796c7f625bull, 0x6d00c006790ab921ull},
    {0x95b9539af4dbd820ull, 0x6a42ed45b055bbe8ull, 0xa4508efe00d28fdfull},
    {0xd632dfe32f02acd6ull, 0x87ad5b6fd0a8b978ull, 0xb9bda8b6243c375aull},
    {0xb7853be0210c23e4ull, 0x5e34acd12f6161bbull, 0x08e6fb6da3e3b5daull},
    {0xd87ff612ebc65a90ull, 0xfedcf84673cf29fdull, 0x2a8f19fdf4fa0143ull},
    {0x3243c6ab297747d5ull, 0x5835c58f1bd119a1ull, 0x98a93a6707e6d09eull},
    {0x7a8cbfc0719d1144ull, 0x4445b75da8c5886full, 0xaefb4e0100817184ull},
    {0x25a043f6538d5eb3ull, 0x8aeead539cf18a6bull, 0x08ca823c7f9abcd8ull},
    {0xee6d6d694b5fb956ull, 0x961be3a82654bd3dull, 0x7946a254e8ed851aull},
    {0x49026bdfabe20b27ull, 0x072ee1adf17d42e9ull, 0x69c68183bbbcc3deull},
    {0xa3825ff13f7335d3ull, 0xd9a8b3c4c89d7345ull, 0x909d4b01f4117857ull},
    {0x3821dd18bcb74674ull, 0xedd789e21b023567ull, 0x7204f41d08157af9ull},
    {0x1300e99886e6617aull, 0x38ff281d75f9955aull, 0x9ccd6cdccdcfc225ull},
    {0x3ef0992d8389f19aull, 0x0b2b2c06e5676128ull, 0xfbdabb39f1847150ull},
    {0xba928063165e1534ull, 0x7475c0d188955896ull, 0x5f5035d95dd08c26ull},
    {0x466cf44346f92372ull, 0x6563f0c735c41d37ull, 0x4511497dba067307ull},
    {0xd72fb760367d1586ull, 0x4e8a70f3bcd85f22ull, 0x712f3726c16df9e7ull},
    {0xdfe458c382c7d219ull, 0x75efeefcee812e2cull, 0x6f5479ce5283907full},
    {0x1ecccb3601261d7cull, 0x37fbd80d0e105398ull, 0xc9dcee0b91bdc367ull},
    {0x9d909cb51db6593bull, 0x7945b6ea646eb4cbull, 0x37f8a3e240c34725ull},
    {0xf6965aa4acf4c4dcull, 0x35b6158474cc39d8ull, 0x1dd6856fe6079a43ull},
    {0x280ff0173ceed583ull, 0x3aa0f60dcfdbdf0bull, 0x36d082f7a61f265eull},
    {0x9905642fd761373dull, 0xac1612cb3872ca11ull, 0x214092ee32a35548ull},
    {0xfe4f81d09095be3dull, 0x63b941c549259989ull, 0x5b3276e3871c05ecull},
    {0xd57c6556d91a232dull, 0x55eb1ff15764268bull, 0x405c7d86a95a1ea5ull},
    {0xcef8a0232612ca73ull, 0x098bc1e3109009f8ull, 0x2a1e3c9049b84b06ull},
    {0xf113bae8f0d94a40ull, 0xa39e0bb9d6fc7236ull, 0x08993ec5b9c86f4cull},
    {0xeb06d91b0ac7cff1ull, 0xfd68b8116d1a31c1ull, 0x1ffa8cbd5960258eull},
    {0x6377cad8caffaaa4ull, 0x30b3b67203bf0330ull, 0xf2efcb44afdbbd25ull},
    {0x73b8607a356a084cull, 0xfd67ebdb273c440aull, 0xbd58d4de823d0db1ull},
    {0x2131548d92e28cffull, 0x1bb379c6a3253c65ull, 0x642ee0f1524490baull},
    {0xd3bae07c34d17eb3ull, 0x05f4d13e337c1e50ull, 0x1094a20e8f55ebdeull},
    {0x867521235fdc2eccull, 0x95e4c5fe7e0afae9ull, 0x60b32bc2da99ce99ull},
    {0x67b3d780c884d5deull, 0xfecb810c7d3e171bull, 0xde46cec001ce508aull},
    {0x3b79b74b4c2fe1a3ull, 0xa21408c7621fe008ull, 0x11d0a16c9fa50897ull},
    {0x0c048839a6999556ull, 0x917f77bf66c5d60dull, 0x8c70afd5bcf40725ull},
    {0xbfef2cd39399cfb0ull, 0x78b4448648599f6bull, 0x7ca4ac180c5c8485ull},
    {0x185f63a18b1ee381ull, 0xbff83fe703f0beb5ull, 0xe8cd5695512e6067ull},
    {0x3dc84eb7a1065b29ull, 0xc20def6e4060f234ull, 0xd0321e232ae802cbull},
    {0x1c6079258171044eull, 0x17ab8ab14a34e2abull, 0x11908def1968f00dull},
    {0xd05d007c8d0b70deull, 0xeb10bb42c8900930ull, 0x6fc698ce70454c30ull},
    {0x3d7a35d451afaf90ull, 0xccf82aecf6d28706ull, 0xe4d0844c04e7aa14ull},
    {0x658a5a81c244a7c6ull, 0xe55f292ea88bc5c4ull, 0xf8740595c0462380ull},
    {0x000633ae21303a54ull, 0x83900e8049556e5eull, 0x0e34d3708bf6263cull},
    {0x23f956ab9d6f493full, 0x101b79e3967c471dull, 0xc5659dd665ec2bc2ull},
    {0xa2a6537c2e93d810ull, 0xe040409a17cfccf2ull, 0x3860951a0931aa9aull},
    {0xd9c4e9d81c341906ull, 0x7d2ad85a2a3c085full, 0x1f8f0e9447cbf6ecull},
    {0x6f57ed2fb9fcf160ull, 0x91c4f70f1501fb16ull, 0x28fcd3559c945e0aull},
    {0x49a652377bb55809ull, 0xc26fe2b03c8d62f8ull, 0x21f18a29690b359aull},
    {0x207901cdbd1a3462ull, 0xabe145ea44ce408aull, 0xbdc08c80f2c5dca8ull},
    {0x4ec63389778d404eull, 0x12ea4f2fd1f44cd0ull, 0xcc6de198d508d125ull},
    {0x65edab4d9fea1d0cull, 0xc45efbc17b3275f7ull, 0x1167c698864b5349ull},
    {0x9b882782e3013b4cull, 0xddab7d65170f0cbfull, 0xb59534b6b46b9871ull},
    {0xef7e5405a63c5bc5ull, 0x82994cdf781d5c52ull, 0x4356ced215f1986dull},
    {0x4713a4c2c4caad86ull, 0xdaad2a900a1294fdull, 0xa682b9b77abb6725ull},
    {0x066b736ea7c83e1aull, 0x833c7b395e9fa6b8ull, 0xdba803cf63005834ull},
    {0x79576dd1114eaf5cull, 0xf730bf0f80ad6032ull, 0xd2222df0382cdb8cull},
    {0xec64823d794b1478ull, 0x7e3ef5211e360528ull, 0x6dff69ded457a625ull},
    {0x7d708e71809328b6ull, 0x08a41fe1a89278e7ull, 0xd94630385c31288full},
    {0x33ac6ff705541c55ull, 0x2d959b281a3978cdull, 0x4f056aef4e4e1149ull},
    {0x9b49dcb9cd570c00ull, 0x7d11af43e6f2c4f4ull, 0xcaf8229ee19ccedbull},
    {0x7b9c417d34b7539eull, 0x0a6aacdee891b2b3ull, 0x2bf9c390b127e5bbull},
    {0xc9881d5750f92a3bull, 0x8839582a87a6fad0ull, 0x6ed3e5f8f1192accull},
    {0x7473cfc1621c2fd5ull, 0x9fa2f070ff68f3a6ull, 0x9c419c4fa3fbb406ull},
    {0x892f488a08179c66ull, 0xeef592244687d346ull, 0x7d8b4e5eca177925ull},
    {0x00ca54e16328e2e9ull, 0x8c9581285a4bb6d1ull, 0xc8d72ef783b056d3ull},
    {0x37280ac82d25241bull, 0xc46de3aa3c46f0e1ull, 0x93bc6a17088886f8ull},
    {0x8823911f4424e4abull, 0xa2fced2b0bb0863aull, 0x89daebfaa5eba625ull},
    {0x569237a58adedf3cull, 0xfee118396b9fbd12ull, 0x17cd18e2f9e0d225ull},
    {0xed251bd6b74efd93ull, 0xf04f9c74c7f8444bull, 0xfe88db9953792c66ull},
    {0xa05fe1cef58d91d5ull, 0xb9ae41ea5e1a81a3ull, 0xf94142550bd52c79ull},
    {0xd82b71296f440c3cull, 0xa30ddc1d62c8ada5ull, 0x51075736128153d2ull},
    {0xced725e4617ebca9ull, 0x46511d9d7a7f3c2dull, 0x6fec732a89c3073eull},
    {0x2f4cbf27b1be11abull, 0x8d97ed020258f786ull, 0xb90b76814bf6214aull},
    {0x9832b179a22a00edull, 0x110dc5ac41dcc9b2ull, 0x3fa1d2fbf38e223dull},
    {0x4eb1f2aebeca53b3ull, 0x894b8e87f048e718ull, 0x1edc7a7eab7ef65bull},
    {0xfbbb3769aec21647ull, 0x213e9019b91d776dull, 0xf3149a58f6650887ull},
    {0x7103965f40be9b79ull, 0x93d3b33eb7901fffull, 0xda931c10e6e2811dull},
    {0xc50ba4753d7a112dull, 0x841b47dae9510749ull, 0xc8a0a0654453fc12ull},
    {0x6933b19a3cd90979ull, 0x9f069d5ce9d24d33ull, 0x2cad35a51d492f30ull},
    {0x2dd8fce22a8395f5ull, 0x3b8ad30acaa12d46ull, 0xb963a5ad4a57c58cull},
    {0x404647a2dd370e58ull, 0xfaa58b7a1f555d8aull, 0xd6e8aa04566e2cc0ull},
    {0xf18cd81907cb18b7ull, 0xa61b26d05651007cull, 0xd86e8447b26d624bull},
    {0xa0b1d59fd40202cfull, 0xedab881c83d538a1ull, 0xefd2cc39e1f69dd0ull},
    {0x25778358471f9a44ull, 0xdc859c9b5c1616d1ull, 0xe0cdbec9eea56ac6ull},
    {0x3f3b43733b65347aull, 0x5a39ed70555a45bcull, 0x3a63bfe9bef3bf4bull},
    {0x4f533b7e41f246efull, 0xc63610a6d5df6918ull, 0xd0f929d251869d81ull},
    {0x2a92b06656ee4026ull, 0x47ebe68767183049ull, 0xa37bb9d29f790b29ull},
    {0xefd65268e64f6171ull, 0x33b442b1fce966deull, 0x03f062301216cc23ull},
    {0x6bc2e02e3ef99f61ull, 0x751a209aba6d079dull, 0x7e48d0bda024dea0ull},
    {0x019564a8b4897d99ull, 0xbad31465ed24f81full, 0xc6b96632482e0da6ull},
    {0xf4d989690205674cull, 0x9fc2ed2f6efc176eull, 0x7d6d871530a46c9eull},
    {0xd392a12169d45f46ull, 0x606ad37b7ffe0459ull, 0x1f587fe9d2497146ull},
    {0x93f3ce01c9880e18ull, 0x716b6507fb452a82ull, 0x3461340e0a95e1a1ull},
    {0x14d0913b297c05b1ull, 0xa7d4529a5369a2e8ull, 0x37f8a3e240c34725ull},
    {0x4077fda2cbb5ce9bull, 0x4f794d6b2d178fc7ull, 0xc8d5c9b4d536201bull},
    {0x36f1c0513804d19bull, 0xee8ec574ab08e389ull, 0x9de368c533030d42ull},
    {0x412532fcde9986aeull, 0x4b16fdd748b4e0e5ull, 0x3c31828efb53159full},
    {0x6d0b460237c61153ull, 0xa225f2eb594b7557ull, 0xb5970bdfa63a43c1ull},
    {0x3c08df5b6651f603ull, 0x59f98cf111e9706eull, 0xab0f7218888afef4ull},
    {0x91f85de2ef2acffcull, 0x7520635457d49fa0ull, 0x5cbac5b072b04408ull},
    {0x5b30c18b5c9fe656ull, 0x846bb89635cb71b4ull, 0xc4eb5ff7043024bcull},
    {0x19830fc6dcd4f0a7ull, 0x5c041bd559c720eeull, 0x3140f61606b1b965ull},
    {0xff3f2ccc799cb47dull, 0x1afae55831039383ull, 0x68a671838b6ddab8ull},
    {0x22038b7c14d8a25aull, 0x78f59141186bfed8ull, 0x64577a635708d43dull},
    {0x6df2001d5125a0f3ull, 0x118b649418a224c8ull, 0x248a6862ae8792c1ull},
    {0x617301d6c65bf3b6ull, 0xfd7b06357242e520ull, 0x6f6ab21f68930502ull},
    {0xe3303619e4df1ca8ull, 0x9cd582aa14abca26ull, 0x0df0d31d9ae84d35ull},
    {0x273e5b1cf0c45d53ull, 0x1847ebd640b17421ull, 0x6105fd7ed7100c77ull},
    {0xf45e19f0354773c9ull, 0xd3f96fae8f0c9bacull, 0xbfec64dbecfd3704ull},
    {0x22df2271284e6b63ull, 0x4ff3e1b8561875c3ull, 0x9a6c44f0e89f7483ull},
    {0xdbc76ba362875b7dull, 0x0915a859ec3d15a8ull, 0x4f61a9dc2bdd5b25ull},
    {0xd0f6183258b740b1ull, 0x035a78558ee4bbdbull, 0x71586daa74a8f933ull},
    {0x7ef56e6380e96e81ull, 0x8ec00dbabb07f7c2ull, 0x30187e0d9ee1982bull},
    {0x45f8e3b7a1d7888eull, 0x4cd2f65232059d26ull, 0xee57e8a54d3f1006ull},
    {0x83589402857fcf63ull, 0x62f620d38107c07bull, 0x21a43c7457404f9dull},
    {0xe675d401114b6278ull, 0x380c99ea8d8abcd3ull, 0x38299fba91ac47a1ull},
    {0xde060bb7ba83ef28ull, 0xfb18a63f08cf1a2bull, 0x9569f401270b454bull},
    {0xb3b2175095c46ebfull, 0xf309b5b7398cc208ull, 0x5dffd3c1301f97abull},
    {0x90d8ce529777d345ull, 0x22438ab30635a0e8ull, 0xdc6ae59b5b944025ull},
    {0xd972d5e084abb6aeull, 0x8d553d0428d26553ull, 0x7ece190ec3291a26ull},
    {0xc6aa4e58940b27d7ull, 0x50d5fb0fec013866ull, 0xad4a1b40a82dd3dbull},
    {0x08f55e8e03fbf6eaull, 0xf33b9f4e1cc6e03eull, 0x37f8a3e240c34725ull},
    {0x5043d58c4356f3d8ull, 0x662b196e60e6a0adull, 0xb7a9dca0cf82cf1aull},
    {0x21dc937f0c8ca7c0ull, 0x02cda76cc1bf3290ull, 0x2580bee833037ca4ull},
    {0x5c6a218ad906ea2cull, 0xf0cadfb95c6f3dc1ull, 0x6dea360d48b3ec61ull},
    {0xd3d9eac234c85157ull, 0xd5c93dd36040a645ull, 0x29efda2543009dc6ull},
    {0x010063a99b2cdd28ull, 0x980a144c75064683ull, 0xbac3eedec597ea5cull},
    {0x0e68c263a84fc82dull, 0xf41f08fb464a5bc9ull, 0xc322cd8eed9af185ull},
    {0x65999fd1ea059b86ull, 0xa13f6174e7d93ee7ull, 0xccd14d5afae3254eull},
    {0xf1f604c6251c39ceull, 0x27c748609653a5bfull, 0x3442a0467bb53ae7ull},
    {0xc1c713ac3bb7089cull, 0x8ca655a66e4781beull, 0x92bd7e86cc378ffdull},
    {0xa70efd68cabf8402ull, 0x3bf84d57487a2a34ull, 0x454a16b1f238569full},
    {0x6218e9f7a3aa8d8dull, 0xdf8adfc5364dec79ull, 0x323417f65aeb030bull},
    {0x44a5957715e6a953ull, 0x32b537d78d6094f4ull, 0x8a0864eea104ab7dull},
    {0xf80c145b1a624ac6ull, 0xbb797740076ea2baull, 0x3f6e4666bee11adbull},
    {0x0340e91d20d28181ull, 0x483da52693795a0eull, 0xe4ba3bc2be5555e6ull},
    {0x29c5437944084ee4ull, 0x9a9c40db6ab59131ull, 0x8544fcf27d904103ull},
    {0x296e2e5524a5944eull, 0x7dfd7b6e6d7bef7eull, 0x8e2c28e1408fc28eull},
    {0x751ef495298dacc2ull, 0xaba5bac5d6049192ull, 0xd643162340a1e9a1ull},
    {0x3238c9ee1a3ff415ull, 0x9cc596f2958f29e3ull, 0xdf568c82ebee8586ull},
    {0xa1667d91965e8c01ull, 0x08ea05c36b5b2301ull, 0x76463172edc28857ull},
    {0x289912ea934fe0e4ull, 0x0142c273fd98bf76ull, 0xfc76c2b23ffc3485ull},
    {0xdb7db57e6be6b81bull, 0x5128a0944b3ae74full, 0xf0759accd08107d5ull},
    {0x1e66fcf12202902eull, 0xff1871ecba01bdbdull, 0xae0d4a7c97dccb65ull},
    {0x1a1adb40e1647468ull, 0xc49edb23ead0a1b8ull, 0x6803d3f6a250c4a6ull},
    {0xb5b9eef4fb544ffbull, 0x2c108d33357212fdull, 0x3c1fb3b5c5ee2d7full},
    {0xa2ee479e23d05df4ull, 0x4eccdbc3b884073dull, 0xa61393c108e6d525ull},
    {0x1c0b7d088849ba00ull, 0x7700f046794a34c7ull, 0xf13862184c1fa546ull},
    {0x7f7af5d49fe8d963ull, 0xc267d83fb0710a85ull, 0xee1bad06eab61665ull},
    {0x5f28ffe03e751eceull, 0x93ecd10dfce91c5aull, 0x6600177a7bcb1c36ull},
    {0x350428541cbb3fe3ull, 0x513a6ae920e0ec63ull, 0xdbb5e4035713c3a3ull},
    {0x5e1d80cb7478c43bull, 0xb5330a3484c74238ull, 0x80c710c53eaa77e5ull},
    {0xb6b560cdbc89dbfaull, 0xab87d7d0ca2ac86eull, 0xde2b06275ed4d40full},
    {0xfaa1c4b084fb155full, 0xd5134ba0049696cbull, 0x184a1504414a028cull},
    {0x9c79cb1edf497ed0ull, 0xbecb9df8b917ab0full, 0x4a4a2dfef11f6082ull},
    {0x5e1000d35b8c23bbull, 0x55ff128c159600f8ull, 0x93ebfa942a6a274dull},
    {0x03e9bfc68226c793ull, 0x7e7b7ff19e23ef68ull, 0x65fb731bb7a12fb6ull},
    {0x8d1f1feadaa2e837ull, 0x020dad9f13d1eab4ull, 0x1108b8f97a9a579cull},
    {0x520f7eb8597ebdcdull, 0x69b60f2d23e670e2ull, 0xb5db63f84182ab82ull},
    {0xfb72bcf74da69392ull, 0x474b958018035b5eull, 0xba158d22dd29ac7bull},
    {0x9b6c30fe85cfec5cull, 0x7201260b6c9d0f28ull, 0x8bf8ec5ccf36232aull},
    {0x44b7084b1ef2450eull, 0x1772e5bb471180f3ull, 0x5385490d81a0c67cull},
    {0x73a7ce088dd735c4ull, 0xa9843c2e9a074734ull, 0x81d07a3185c07c5aull},
    {0xdfec4b3b2a638397ull, 0xfe400356bc31e9bcull, 0x5c8496479002b625ull},
    {0x641241047828f864ull, 0x12bedcb095ebd205ull, 0x8b8dcd37483482f9ull},
    {0x64f80412ddf58fe1ull, 0x3a6106789b444c4dull, 0x31dd0644c4b8e7f7ull},
    {0x4087e3ae246d560full, 0x96d1e2b72029d864ull, 0xb51d90ed8ee6b8a3ull},
    {0x90e04ba893363693ull, 0xf01005fcf5d3f30dull, 0xf20f3c120a3ac7adull},
    {0xa038509e7fad0292ull, 0xc45b77e6112ecd14ull, 0x3647e580f87907eeull},
    {0x5cc94359d6714506ull, 0xde0fae02130a1293ull, 0x30e64af12efb6156ull},
    {0x663a3f98d1d6ccceull, 0x613a779fab146b5aull, 0x53546fa1ae8f9166ull},
    {0x5f264d1bcf43281full, 0x61835a540c1d6108ull, 0x20b096dc9348b245ull},
    {0x52987bdc5c44fd27ull, 0x1c24776e0cabc652ull, 0x93ae4ce23b707f24ull},
    {0x8dda0bf531fae4c1ull, 0xd25f31ccf77a5abaull, 0xb4d2847c5710fef2ull},
    {0x09efdfe83929d560ull, 0x2aaef19179833ebfull, 0x41a10b3202bd05b3ull},
    {0x304ec224bf4e0479ull, 0x88c1534709f3c17full, 0xc20a5401fdac6ec5ull},
    {0xd260a3cced0babf8ull, 0xe527c5888e027c1eull, 0x364a861532d546a9ull},
    {0x50ff3f72a1c0b452ull, 0x1c3074117b73a154ull, 0x92d58ebdbe10e145ull},
    {0xce95f3ebff87a905ull, 0x47709f33bcbb0b8aull, 0xf2d093df6795c841ull},
    {0x7d0bb7da9a6c8a1eull, 0xa99535e8fbe2bcf6ull, 0x22b5a56ef5275c9bull},
    {0xc56ea09e532d4d91ull, 0xbda03c97845b268cull, 0x634832d0727de595ull},
    {0x0e73e9f230e2e230ull, 0x5989d844fffab51full, 0xb8d04754086f3361ull},
    {0x31ea263b73828329ull, 0x919c0f09c62d3772ull, 0xd16dd00c44d563f6ull},
    {0x5057e4e7e9ea4b17ull, 0xee09517ade379e37ull, 0x0bdacc0f8bfc8beaull},
    {0x9229f28d47cfee60ull, 0xadcaf3bf3a8ef8abull, 0xfec066e55ec4d0faull},
    {0x63ad62ff0a36ce48ull, 0x1ed4ec3818044a48ull, 0x9abba1df2e83ae26ull},
    {0x3d6ce5cf98da603full, 0x5ad4187b1ee39733ull, 0x265850a28bd32b61ull},
    {0xfda3a5a97a1fdf9aull, 0x6569da2e3ca9f314ull, 0x581411022f28bb6dull},
    {0x7b04c168d7612fb1ull, 0xe434347ff7de6f9bull, 0xc4bc48e2a121cbacull},
    {0x265d053ab57e556eull, 0xa2775ab800e3680bull, 0x17b095dd60d40505ull},
    {0xb88b9f0f597881feull, 0x5f5ddad6600747f4ull, 0xed00660287934a5cull},
    {0xed30e89994369f34ull, 0x6b712e1a1c52558full, 0xf505ee3499aeaaa6ull},
    {0x82ebbcd3ca4508c1ull, 0x6d9dd26b4de223c4ull, 0x80d7a5da0bf5124dull},
    {0x1c6710edadcde894ull, 0x21127d3dad0f1fc9ull, 0xcd42ea4f6a559efbull},
    {0x038be75884f5a5f2ull, 0x1e0e9a191964b28dull, 0x957977910586d4abull},
    {0x5207820739e07c46ull, 0xf34950187f869af8ull, 0xfc7754188bf445beull},
    {0xe7287e884e8db9f7ull, 0x92613f692bfc0f73ull, 0xd75296db49a40ce2ull},
    {0x2d1f71078ddf51a5ull, 0x12dd759f67f0d9ffull, 0xb8eea6db60bf1110ull},
    {0xbd2739335b07b0cbull, 0x98db473474385d13ull, 0xe73527e9315c4bc4ull},
    {0xc9884d066eb7f06aull, 0xaee4d39ee120bc1full, 0x9dd6ac2865d57aa5ull},
    {0xad6db474c469b7d1ull, 0x51b10040e3d19a1full, 0x404ae3d58ded7525ull},
    {0x0f27127198b48b92ull, 0x3723b6255e005207ull, 0x5c11eb4f0f830cb3ull},
};

SweepResult run(const SweepGrid& grid, bool lanes, unsigned threads) {
  SweepOptions options;
  options.threads = threads;
  options.lanes = lanes;
  const std::vector<RunRecord> records = run_sweep(grid, options);
  SweepResult result;
  const auto cells = aggregate(grid, records);
  result.json = aggregates_to_json(grid, cells);
  result.csv = aggregates_to_csv(cells);
  result.counters.reserve(records.size());
  for (const RunRecord& record : records) {
    result.counters.push_back(record.perf.engine);
  }
  return result;
}

TEST(LaneDifferential, RandomSpecsLaneVsScalarByteIdentical) {
  constexpr int kSpecs = 220;
  static_assert(std::size(kFrozenReference) == kSpecs);
  Rng rng(0x1a9e5u);
  for (int i = 0; i < kSpecs; ++i) {
    SweepGrid grid;
    grid.base = random_spec(rng);
    // Mostly small cells; occasionally straddle the 64-lane block boundary.
    const std::uint32_t seeds =
        pick(rng, {1u, 2u, 3u, 4u, 5u, 6u, 8u, 8u, 13u, 65u});
    grid.seeds_per_cell = seeds;
    grid.grid_seed = rng();
    ASSERT_FALSE(grid.validate().has_value())
        << *grid.validate() << "\nspec: " << grid.base.to_json();
    // Alternate single- and multi-threaded pools: lane blocks must be
    // byte-stable under work stealing exactly like scalar runs.
    const unsigned threads = (i % 3 == 0) ? 3 : 1;
    const SweepResult lane = run(grid, /*lanes=*/true, threads);
    const SweepResult scalar = run(grid, /*lanes=*/false, threads);
    ASSERT_EQ(lane.json, scalar.json)
        << "lane/scalar JSON diverged for spec " << i << ":\n"
        << grid.base.to_json() << "\nseeds_per_cell=" << seeds
        << " grid_seed=" << grid.grid_seed;
    ASSERT_EQ(lane.csv, scalar.csv)
        << "lane/scalar CSV diverged for spec " << i << ":\n"
        << grid.base.to_json();
    ASSERT_EQ(lane.counters.size(), scalar.counters.size());
    for (std::size_t r = 0; r < lane.counters.size(); ++r) {
      ASSERT_EQ(lane.counters[r], scalar.counters[r])
          << "EngineCounters diverged at run " << r << " for spec " << i
          << ":\n"
          << grid.base.to_json() << "\nseeds_per_cell=" << seeds
          << " grid_seed=" << grid.grid_seed;
    }
    const Frozen got{fnv1a(scalar.json), fnv1a(scalar.csv),
                     fnv1a(scalar.counters)};
    EXPECT_EQ(got, kFrozenReference[i])
        << "spec " << i << " drifted from the frozen reference; got {"
        << hex(got.json) << ", " << hex(got.csv) << ", "
        << hex(got.counters) << "}\n"
        << grid.base.to_json();
  }
}

/// The two-word table: worlds of 65, 100 and 130 processes, where every
/// process set spans two or three words and the last one is partial.
/// Clique/kGlobal consensus sweeps each loss kind, contention manager and
/// fault (a scheduled crash hits process 64, bit 0 of word 1); consensus
/// on line, grid and rgg runs kMatrix/kLocal; flood and MIS run kCapture.
/// Algorithm, detector and policy cycle with the row index.
std::vector<ScenarioSpec> two_word_specs() {
  std::vector<ScenarioSpec> specs;
  for (std::uint32_t n : {65u, 100u, 130u}) {
    ScenarioSpec base;
    base.n = n;
    base.num_values = 4;
    base.cst_target = 4;
    base.p_deliver = 0.6;
    base.crash_p = 0.05;
    base.max_rounds = 40;
    for (LossKind loss : {LossKind::kNoLoss, LossKind::kEcf,
                          LossKind::kProbabilistic, LossKind::kUnrestricted}) {
      for (ChaosKind chaos : {ChaosKind::kCalm, ChaosKind::kChaotic}) {
        ScenarioSpec spec = base;
        spec.loss = loss;
        spec.chaos = chaos;
        specs.push_back(spec);
      }
    }
    for (CmKind cm : {CmKind::kNoCm, CmKind::kWakeup, CmKind::kLeader,
                      CmKind::kBackoff}) {
      ScenarioSpec spec = base;
      spec.cm = cm;
      spec.loss = LossKind::kProbabilistic;
      specs.push_back(spec);
    }
    ScenarioSpec random_crash = base;
    random_crash.fault = FaultKind::kRandomCrash;
    specs.push_back(random_crash);
    ScenarioSpec scheduled = base;
    scheduled.fault = FaultKind::kScheduled;
    scheduled.crash_schedule = {{2, 64, CrashPoint::kAfterSend},
                                {3, n - 1, CrashPoint::kBeforeSend},
                                {3, 0, CrashPoint::kAfterSend},
                                {5, 63, CrashPoint::kBeforeSend}};
    specs.push_back(scheduled);
    for (TopologyKind topo : {TopologyKind::kLine, TopologyKind::kGrid,
                              TopologyKind::kRandomGeometric}) {
      ScenarioSpec spec = base;
      spec.topology = topo;
      spec.loss = LossKind::kProbabilistic;
      spec.fault = FaultKind::kRandomCrash;
      specs.push_back(spec);
      spec.loss = LossKind::kEcf;
      spec.fault = FaultKind::kScheduled;
      spec.crash_schedule_name = "min-vertex-cut";
      specs.push_back(spec);
      for (WorkloadKind workload : {WorkloadKind::kFlood, WorkloadKind::kMis}) {
        ScenarioSpec mh = base;
        mh.topology = topo;
        mh.workload = workload;
        mh.fault = workload == WorkloadKind::kFlood ? FaultKind::kRandomCrash
                                                    : FaultKind::kNone;
        specs.push_back(mh);
      }
    }
  }
  constexpr AlgKind kAlgs[] = {AlgKind::kAlg1, AlgKind::kAlg2, AlgKind::kAlg3,
                               AlgKind::kAlg4, AlgKind::kNaive};
  constexpr DetectorKind kDetectors[] = {
      DetectorKind::kMajOAC, DetectorKind::kZeroOAC, DetectorKind::kAC,
      DetectorKind::kHalfAC, DetectorKind::kNoCd,    DetectorKind::kOAC,
      DetectorKind::kNoAcc};
  constexpr PolicyKind kPolicies[] = {
      PolicyKind::kTruthful,      PolicyKind::kPreferNull,
      PolicyKind::kPreferCollision, PolicyKind::kSpurious,
      PolicyKind::kFlakyMajority, PolicyKind::kRandomLegal};
  for (std::size_t k = 0; k < specs.size(); ++k) {
    specs[k].alg = kAlgs[k % std::size(kAlgs)];
    specs[k].detector = kDetectors[k % std::size(kDetectors)];
    specs[k].policy = kPolicies[k % std::size(kPolicies)];
  }
  return specs;
}

// FNV-1a of each two_word_specs() cell's JSON report, CSV report and
// per-run counters (3 seeds, grid_seed 0x2b0d), captured from the engine
// as it stood before the adversary seams took bit words (when it still
// handed them vector<bool> copies of its masks).
constexpr Frozen kFrozenTwoWord[] = {
    {0xa5eefcd6d7a3db1eull, 0x743a5efd7660b0c0ull, 0x3436e8286c0c9b95ull},
    {0xfd59741117a3a02full, 0x140adf8d0dd3bbc3ull, 0xdebbaa9bfe550b26ull},
    {0x1df138294df3fac5ull, 0xaa64a01cb4837049ull, 0x18cf7e22516f2158ull},
    {0x4d79794768d6fc4bull, 0x6c49d46d2f8ce1d3ull, 0xd65a36e0f1b17c1cull},
    {0x0e2f56334a4af635ull, 0x69d588321381025full, 0x3a159a6a572ffd07ull},
    {0x0d0b119a7e9a8615ull, 0xd846e67d845523f1ull, 0xc6f56bb9001fcc2dull},
    {0xb78b90342269d743ull, 0xfddd766967ead5e7ull, 0xb98ee118e60fae72ull},
    {0x03fd056fac1b7ea7ull, 0x4a5283fab96129e4ull, 0x5d79a8f92af4e422ull},
    {0x9ac9958813a09345ull, 0xc20d2d3e1828efd7ull, 0x16e3a18801ca5de2ull},
    {0x77f639df5867eb36ull, 0x08c5511017b1cab6ull, 0x3a159a6a572ffd07ull},
    {0x65dbbc4dc9e08bf2ull, 0x72624a4f39051b34ull, 0x3d5e5b55551fa1abull},
    {0x49af79966b196bdaull, 0x19142ef567a48126ull, 0xf54509afb646b765ull},
    {0x94c2064ef2857fc4ull, 0xdea05ee702f1b044ull, 0x64d0934ab696bc5aull},
    {0xc8c8dbde73a6d8d7ull, 0xe5e0a81be8700ec5ull, 0x2c7c290e441e7cbbull},
    {0xd6202c39d334d949ull, 0x6efe4beeeb531521ull, 0xd295a5cd712b8290ull},
    {0xe525b8454a80890bull, 0x4f5034bad671daaaull, 0x44050410b39e6446ull},
    {0x11cea053e8dcc229ull, 0x8df2c4d14018b95full, 0xb273d94fc4c1f648ull},
    {0x8933c1c6e829aaf6ull, 0xb7410aa47946c68bull, 0x9a683d9542dbb8d7ull},
    {0x4a483a17079cc780ull, 0xfdff86ed809d05e4ull, 0xd9c0f42172c668a5ull},
    {0x89396cd35915a27bull, 0x37162e1ddaf57c14ull, 0x2e7b676f01ea8d6aull},
    {0x15012dcb7b281a17ull, 0xa4e8ce5bedc726dcull, 0x4c0fb5aef7f69130ull},
    {0x1aa6ccbeed6d513cull, 0x1e77c036a932e02bull, 0xa220bd9d15f12f3bull},
    {0xd59285ea9f1116a5ull, 0x5ea8654ede8c6a70ull, 0x52835fd292674b20ull},
    {0x0b495dbf29d06b7cull, 0xe5f8cdca087017edull, 0x24bb0ae9fe59e83cull},
    {0x4516d831c629c7dfull, 0xbe846035778381c3ull, 0x30818635b8fe0273ull},
    {0xfd45038faa3a5319ull, 0x7a6cfd2664a18426ull, 0x682e32477084ca19ull},
    {0xba7a16508243267dull, 0x2cb5d20d1fd67a2full, 0x240fa392f4156232ull},
    {0x86fb0e3fb113418bull, 0x381be5e2a3ce2a5cull, 0x7b78c0e0f2d81a7full},
    {0x84dda78f0ff88ed5ull, 0x65e9a6f144237d3aull, 0xde5124e5cbe6dda5ull},
    {0x72b104f8aa62d389ull, 0x3053af16b492333bull, 0xd81e0ec12a4eb54aull},
    {0x6bdf2cd5d7fe5ea9ull, 0x5d51ed31e06d73d9ull, 0x2d1d4567bb6e9b21ull},
    {0x9a77c862067776d9ull, 0x12f1f194e3191cc6ull, 0xdec19143a6c52280ull},
    {0xae9eceb14546b35cull, 0x412526218454cdbbull, 0x2fe3804d6bc5cac2ull},
    {0x53baa377d846d322ull, 0x4d927c795863fdb4ull, 0x503430f24c6f579eull},
    {0x7387a2d67f00ba89ull, 0xc9d1704711e3bd7full, 0xf8538adb51c16c67ull},
    {0xe7d0235ad7be57b4ull, 0x72b95ee7ddfc017cull, 0x2d1d4567bb6e9b21ull},
    {0x48793f4665cff69bull, 0xeac5e35d20f68f64ull, 0xa18023ebdf91acdeull},
    {0x9ec228a4f5abc141ull, 0xa9e19c14025c721aull, 0xf845ded90d0cba08ull},
    {0x34d4f04386820c4eull, 0x917c01cd1d6595c0ull, 0x196accfbd3a367e7ull},
    {0x1210597ca85500f3ull, 0x8fdafc3ddb3e4a46ull, 0xf8538adb51c16c67ull},
    {0x19519d39f77e425eull, 0xb59fcbed7f2fe04bull, 0xe004e82e2453af5eull},
    {0xf1a691b83fc9ea6full, 0x1a350aa3d1966a89ull, 0x51e4c1dd49e11089ull},
    {0x7766d6355f8eef72ull, 0xcadec8b0f70f9749ull, 0x393e3387ffb9a3daull},
    {0x0eb97caab5cc3829ull, 0x1728bd7b7ae354d5ull, 0xf3e6bb9521506ca6ull},
    {0xd29b667bd13dfd28ull, 0x6101af65a6ac1fbaull, 0x93794e59eb4437a3ull},
    {0x6c01415e68e59521ull, 0x6c45f829ceb6ac72ull, 0x18ccc953d11fabdaull},
    {0x6b5f677ebf85e2a3ull, 0x8ea6ce9b3f365f3bull, 0x9f0027f55c25c043ull},
    {0x4baa4afd5a5a31a1ull, 0xebaf7e640e7a2916ull, 0x82be4f0ff9daa330ull},
    {0x603d77718d6ab722ull, 0xe9e3ba6be320e9a3ull, 0x93f82f6d4817cd0aull},
    {0x18c2b0ea6c33dac8ull, 0xacbee5cbc66dec8full, 0x7aa5e17d6c0b5eb1ull},
    {0x8d0bbd8e81dab6e5ull, 0x8700cbb411078ee1ull, 0xd72699e9f28f047full},
    {0xde6160416f9f0359ull, 0xab647ac102a5e920ull, 0x0ce39e3a71687d67ull},
    {0x7b56221509aaafe0ull, 0xb615c0c2d5e2f2e6ull, 0x4da8898da7931b2aull},
    {0x46c3f1c12f883a07ull, 0xb15442600e6546edull, 0xabf3f20dd930dba7ull},
    {0xbcb86d8a28d3bb64ull, 0x84aa78d62689ac7full, 0xfe13a7361534d9a3ull},
    {0xd5bd2617fc37fbf8ull, 0xf22f13c7883a2733ull, 0x48bd04873be7e40bull},
    {0xa7ccc98569812853ull, 0xbbc10af73e94ccf7ull, 0xdeccf46231991116ull},
    {0x021142f006dc8a1dull, 0xf185cb7b7908c540ull, 0x5fa50ef04be5906cull},
    {0xfdf600bbee439d31ull, 0x55eb6b49a80b9d33ull, 0x8755c7538855d896ull},
    {0xb39466a7438bcad5ull, 0x0a2da1f4bd20e47eull, 0x2d00e8e01d9956caull},
    {0xe79f01b0471c3948ull, 0x360914f2db5c6a20ull, 0x1986f528f57a3cceull},
    {0x3d0b1cd3dd36eb05ull, 0x67f9f9ec9caa909dull, 0xdeccf46231991116ull},
    {0x13502a22454d1658ull, 0xda14e86fcdaf4b0full, 0x5fa50ef04be5906cull},
    {0x7913a30424651234ull, 0xb36374ae5d45d5faull, 0x49900b6cb859ed01ull},
    {0x8a33c85c11e83189ull, 0x101bbe86f349e9f6ull, 0x38381680b9e2c50dull},
    {0x349a41e065cf1adfull, 0xacfdfeaffc8cd32eull, 0xb10c6ce07b1b816eull},
    {0x4158a0d4f99fa486ull, 0x1c23eb835d17125cull, 0x0becde7f8d6654c4ull},
    {0x52aabba104528c15ull, 0x2bc49bedab8439e4ull, 0x1c2e43d031a1e5a9ull},
    {0xff65321e7307b21aull, 0xc5267bf7a0a49db1ull, 0xbe712fe8cd57c6b2ull},
    {0x0b8b3185fa882e90ull, 0xa4edb03d7c8545e9ull, 0xbe172d371e580471ull},
    {0xdde040fb6f38c21aull, 0x13de89f74c29d474ull, 0x1557666595a1d9baull},
    {0x5aac58826d8cccecull, 0x8bc4cfc4c629283bull, 0x5bc7da1d1a8f87ebull},
    {0xc0d51a72869cadd1ull, 0x0bc874ca4e245d22ull, 0xb4818f840a054765ull},
    {0x8b725eaa526843eaull, 0x2577330541da0b89ull, 0x8140717b517b14adull},
    {0x54177c2839a35bafull, 0x81d79235d1b3de7aull, 0x9f816cb581c21753ull},
    {0x7e99a290fcfbacd8ull, 0x19aebe4921cd104bull, 0xe84c5c249f92e366ull},
    {0x64d827c372b530f0ull, 0x22e5b029d040800bull, 0x21ebf028f6e27538ull},
    {0x9990bf11d7d4afe2ull, 0x7056c61f4f22e0d2ull, 0x3c0aaaa081c61aadull},
};

TEST(LaneDifferential, TwoWordWorldsMatchFrozenReference) {
  const std::vector<ScenarioSpec> specs = two_word_specs();
  ASSERT_EQ(specs.size(), std::size(kFrozenTwoWord));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SweepGrid grid;
    grid.base = specs[i];
    grid.seeds_per_cell = 3;
    grid.grid_seed = 0x2b0d;
    ASSERT_FALSE(grid.validate().has_value())
        << *grid.validate() << "\nspec: " << grid.base.to_json();
    const SweepResult result = run(grid, /*lanes=*/true, 1);
    const Frozen got{fnv1a(result.json), fnv1a(result.csv),
                     fnv1a(result.counters)};
    EXPECT_EQ(got, kFrozenTwoWord[i])
        << "two-word spec " << i << " drifted from the frozen reference; "
        << "got {" << hex(got.json) << ", " << hex(got.csv) << ", "
        << hex(got.counters) << "}\n"
        << grid.base.to_json();
  }
}

/// The dormant table: the workloads whose processes go dormant (flood
/// nodes without the message, dominated MIS nodes) under every detector
/// shape of a silent round -- ac and zero-ac (null forced), nocd
/// (collision forced), noacc, and oac / zero-oac with a late CST (advice
/// the policy chooses) -- and four policies.  Rows are workload x detector
/// x policy; topology, fault and n cycle Latin-square style, so every
/// workload x detector pair meets every topology, fault kind and n.  The
/// budgets are the default 200 + 40n, so floods that a crash partitioned
/// idle for hundreds of rounds.
std::vector<ScenarioSpec> dormant_specs() {
  constexpr WorkloadKind kWorkloads[] = {WorkloadKind::kFlood,
                                         WorkloadKind::kMis,
                                         WorkloadKind::kMisThenConsensus};
  constexpr DetectorKind kDetectors[] = {
      DetectorKind::kAC,    DetectorKind::kZeroAC, DetectorKind::kNoCd,
      DetectorKind::kNoAcc, DetectorKind::kOAC,    DetectorKind::kZeroOAC};
  constexpr PolicyKind kPolicies[] = {
      PolicyKind::kTruthful, PolicyKind::kRandomLegal,
      PolicyKind::kPreferCollision, PolicyKind::kSpurious};
  constexpr TopologyKind kTopologies[] = {
      TopologyKind::kLine, TopologyKind::kRing, TopologyKind::kGrid,
      TopologyKind::kRandomGeometric};
  constexpr FaultKind kFaults[] = {FaultKind::kNone, FaultKind::kRandomCrash,
                                   FaultKind::kScheduled};
  constexpr std::uint32_t kNs[] = {16, 33, 65};
  std::vector<ScenarioSpec> specs;
  for (std::size_t w = 0; w < std::size(kWorkloads); ++w) {
    for (std::size_t d = 0; d < std::size(kDetectors); ++d) {
      for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
        ScenarioSpec spec;
        spec.workload = kWorkloads[w];
        spec.detector = kDetectors[d];
        spec.policy = kPolicies[p];
        spec.alg = AlgKind::kAlg2;
        spec.topology = kTopologies[(2 * w + d + p) % 4];
        spec.fault = kFaults[(w + d + p) % 3];
        spec.n = kNs[(w + 2 * d + p) % 3];
        spec.crash_p = 0.05;
        if (spec.fault == FaultKind::kScheduled) {
          spec.crash_schedule_name = "min-vertex-cut";
        }
        if (spec.detector == DetectorKind::kOAC ||
            spec.detector == DetectorKind::kZeroOAC) {
          spec.cst_target = 60;
        }
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

// FNV-1a of each dormant_specs() cell's JSON report, CSV report and
// per-run counters (3 seeds, grid_seed 0xd0a7), captured from the engine
// as it stood before it skipped dormant processes.
constexpr Frozen kFrozenDormant[] = {
    {0xe926ad496761b156ull, 0xd9e3a0335faaae84ull, 0x06e44ca29f1f390full},
    {0x77dda66d7bf4fa1dull, 0x9371b840555c3e8eull, 0xc85152da1f2f3e32ull},
    {0xbc2b40de501f2e20ull, 0xf2ae0d185407a80bull, 0x97cad805c5480842ull},
    {0xa8937469d1bd6839ull, 0xa2cd10789d997144ull, 0xa4380375899072ffull},
    {0x4fbbe998a728f768ull, 0x82cd2a9c2dd0de2bull, 0xef7071cac6bd9615ull},
    {0xf181f72b55142991ull, 0x79971ce63f8cb8eaull, 0x011132a5448635f2ull},
    {0x96bc7db5417a260cull, 0x7c70b643cb581e4aull, 0xa8b75b8c7d7b093dull},
    {0xdaf55e352a001a9eull, 0x17a1eeb023c5d4c4ull, 0x2f6d5f6d0a746cc3ull},
    {0x654ed5999c76c9e9ull, 0x6688e0e7d2790418ull, 0x08152eae1a850ba9ull},
    {0x406e2c6655c74016ull, 0x7fcea58cb0047abaull, 0xf67edce609738290ull},
    {0xa67a4e75f9309ee6ull, 0xedcd047a9e23a1a4ull, 0x13b41029b5b81505ull},
    {0x4e5c4bf50fa52cd3ull, 0xb4a1ce7bb3bcdb93ull, 0x00e558cbdf907569ull},
    {0x81533170fd4eb69dull, 0xda9bdc411efef498ull, 0xa4380375899072ffull},
    {0xcb2e10599554e238ull, 0x7395ae4e8234a10bull, 0x2c72b528f8bf30d7ull},
    {0x852886de06b42d3eull, 0x1ff79af5712d19ceull, 0x0cee668ddb776c4cull},
    {0x9c993937ae706438ull, 0xe36c1653c0faa371ull, 0xc7877392fe259544ull},
    {0x564c161f9435f2b5ull, 0x326915a357966457ull, 0x29e8166847c44eceull},
    {0xe515366bd2b1abfcull, 0xfa1a1bceca1a2a08ull, 0xd578b3cdbc7e247aull},
    {0x610d350bc6837f4dull, 0xebefeb3f3a906e86ull, 0x25464017a6bc8543ull},
    {0x3d2dbbc09b73a2f4ull, 0xf73f3fd04a12a6cdull, 0x63f561df6a4ac7d4ull},
    {0xc710ca6125056c3cull, 0x40d24bf11af03c9full, 0x252729fe455aee0eull},
    {0x72984f8010bf5f3full, 0x5dfe58f41ecc6190ull, 0x30852b7910f7cca9ull},
    {0xf039c2fae0d57568ull, 0xe00a94005452ff02ull, 0x90c6a76186cd6837ull},
    {0x1a7d983e50e25813ull, 0x006e24c05ae101cbull, 0x12e807fe57d4ca34ull},
    {0x9b0611a6e328cc34ull, 0x4169cc7fd55fd267ull, 0x50a647af63dda064ull},
    {0xdfafeba3d1c44092ull, 0x23634d83986caf08ull, 0x19457d5f5db3c5f6ull},
    {0x056825e61f68905bull, 0x1fbdb3cd40f3fe11ull, 0xe48476824c59e000ull},
    {0x2b199a0d59a95ad6ull, 0xa3905209c51998bbull, 0x7a9c69cfc3f87da0ull},
    {0x72d6af8529810836ull, 0xb8e11efd484b7e52ull, 0x426a662fd84df74full},
    {0xf62748d58222cf69ull, 0x2e6ab7d7ba68538eull, 0x046a7accab5be086ull},
    {0x273d3cfa8677fa5cull, 0xcc457c4ecd8e9408ull, 0x596395632bec1fb2ull},
    {0x7331cb66c5bcce0dull, 0xe7feb80d793af5e7ull, 0x8c7539ce2884e150ull},
    {0x017710b1094ed180ull, 0xbb7c114e19d94ac2ull, 0x8a232ab4fca4129cull},
    {0x6e45a24eb94468e6ull, 0x815c314358fe2f63ull, 0x193c1b2d97d74e00ull},
    {0xd5d9b3da7a09c02dull, 0x13ff0f9580426987ull, 0x41ab68d199b0bf47ull},
    {0x8608f8a6ebe1c594ull, 0xf42048659c62c798ull, 0xb1495a978f742655ull},
    {0x24806ad948656212ull, 0x8e3a6d35642be5f7ull, 0x7a9c69cfc3f87da0ull},
    {0xab37186d7a8eb5deull, 0x548234947cf86a7full, 0x89010360b9252c35ull},
    {0xb399b24f6b2f6528ull, 0xb40433d8db3ea0efull, 0x06d62f30cacefdbcull},
    {0x7ebb0035ea7ddafaull, 0xebd5c0458d9af7f9ull, 0xf05f91b9cb83661dull},
    {0x6066370d1ccfbc1aull, 0x44ff49ef2f2453d0ull, 0x8c7539ce2884e150ull},
    {0x0128ddfed9193e7eull, 0x5ee77438e67cb5f6ull, 0x2b9aee4fe00f8e04ull},
    {0xf149b6e50cad64c6ull, 0xe047a6f1aa4c4ee4ull, 0xe2a7e85c23b22afcull},
    {0x96899440f263f4eeull, 0xba2a9c0fce77cc17ull, 0xe76a40bae0cd7ddcull},
    {0x086b5bd4f24efcf5ull, 0x9e11962af5a31342ull, 0xaffec64ed8221e26ull},
    {0x4b541cd341633542ull, 0xf628f74dd3b7e9beull, 0x52ea15fae0f9993eull},
    {0x46b8265d23e7f860ull, 0x8b108820ab725e16ull, 0x0bdb66e4e42fe4d9ull},
    {0x7b5aec3ab16b7a08ull, 0x2c8110a73c14794full, 0xde51be339b30d56aull},
    {0x6c00ca19af6878e8ull, 0x9dac0beb2ceb2c6aull, 0x5e5e1ad77d7d39c3ull},
    {0x26f1bcfe28e5b52eull, 0x3a80c017b5151de2ull, 0x846b574cbb4c0154ull},
    {0x0ccf63c0bb467524ull, 0x4675a55730f47a2full, 0x2b4adddac20ed95eull},
    {0x84af0580e025d09cull, 0x4e20e5840b462714ull, 0x58607248e488bc06ull},
    {0x7f30b410bae0f80eull, 0x6478a0ff0ca6660eull, 0xd79f096126e35ad5ull},
    {0x8c856acbb884609eull, 0x08de273df59e29e0ull, 0xe748403283f1e394ull},
    {0x506ba71997dbb77cull, 0x8335b44a2f526fcaull, 0xfdedabdcb2a6e8afull},
    {0x568c83a8af052be3ull, 0x01c1e2109d4b47ffull, 0x7ee323a94dd8ec36ull},
    {0x24e8c3ae07491b02ull, 0xdcbb774ff1e73f78ull, 0xe68618f18f9882a8ull},
    {0xd8dab7954fa20122ull, 0x250e6effe523c751ull, 0x8f82be7927537d09ull},
    {0x9a24ad94d02b4a6eull, 0x8e63c9eccaece723ull, 0x8a232ab4fca4129cull},
    {0x629df6338d1e3f46ull, 0xf4e49858f8e0612cull, 0x193c1b2d97d74e00ull},
    {0x0cc7a65b024f006eull, 0x536c2c9fbf240bd9ull, 0x58607248e488bc06ull},
    {0x26332b5fa03aa0d0ull, 0x71c8b65dd80c868eull, 0x1a24666b50823e7cull},
    {0xed31167fbea6e710ull, 0x5ab7eeb82dba2efdull, 0xfc1e62e5aca812fdull},
    {0xeeba9c2862fdd94full, 0x60c4798ec245140eull, 0x7e3c23f941e27698ull},
    {0x38986a1d57ecacbfull, 0x1c8aa412c617de6cull, 0x35422a413d204a95ull},
    {0xb772953f36aace81ull, 0xbad7f30e3bffb744ull, 0x66f22bf5f5f9c32aull},
    {0x1cef0a1a5f64e7a5ull, 0x0bf1a2f666eea79cull, 0x62b28eac242efea7ull},
    {0x07f8d5ef0a190e9dull, 0x451389ab4d10beb5ull, 0xaf8d5c989a4cdc1bull},
    {0x2bd3a1d0e75bbccdull, 0xaaa61462fb79dbbfull, 0x7ac38390a6f93ccaull},
    {0xb5aea375daa924cfull, 0xb9a98db2d9822fa5ull, 0xec13a432aec1d26eull},
    {0x32a1e5d9206a0b17ull, 0x76d678514843b0aeull, 0xb1495a978f742655ull},
    {0x493fbe8730966423ull, 0xc22441b1b64d341full, 0x8dfc0d123d59584dull},
};

TEST(LaneDifferential, DormantWorldsMatchFrozenReference) {
  const std::vector<ScenarioSpec> specs = dormant_specs();
  ASSERT_EQ(specs.size(), std::size(kFrozenDormant));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SweepGrid grid;
    grid.base = specs[i];
    grid.seeds_per_cell = 3;
    grid.grid_seed = 0xd0a7;
    ASSERT_FALSE(grid.validate().has_value())
        << *grid.validate() << "\nspec: " << grid.base.to_json();
    const SweepResult result = run(grid, /*lanes=*/true, 1);
    const Frozen got{fnv1a(result.json), fnv1a(result.csv),
                     fnv1a(result.counters)};
    EXPECT_EQ(got, kFrozenDormant[i])
        << "dormant spec " << i << " drifted from the frozen reference; "
        << "got {" << hex(got.json) << ", " << hex(got.csv) << ", "
        << hex(got.counters) << "}\n"
        << grid.base.to_json();
  }
}

TEST(LaneDifferential, NamedGridsLaneVsScalarByteIdentical) {
  // The shipped grids end to end -- including the 432-cell multihop grid
  // and the loss-on-topology composition -- through real multi-threaded
  // pools on both paths.
  for (const char* name : {"smoke", "crash", "multihop", "mhloss"}) {
    auto grid = SweepGrid::named(name);
    ASSERT_TRUE(grid.has_value()) << name;
    const SweepResult lane = run(*grid, /*lanes=*/true, 4);
    const SweepResult scalar = run(*grid, /*lanes=*/false, 4);
    EXPECT_EQ(lane.json, scalar.json) << name << " JSON diverged";
    EXPECT_EQ(lane.csv, scalar.csv) << name << " CSV diverged";
    ASSERT_EQ(lane.counters.size(), scalar.counters.size());
    for (std::size_t r = 0; r < lane.counters.size(); ++r) {
      ASSERT_EQ(lane.counters[r], scalar.counters[r])
          << name << " counters diverged at run " << r;
    }
  }
}

TEST(LaneDifferential, EligibilityRoutesOnlyRoundSyncAroundTheEngine) {
  // Every workload on every topology runs through the engine -- n = 0 and
  // trace capture included; only round-sync (below the round abstraction)
  // does not.
  RunScenarioOptions plain;
  RunScenarioOptions capture;
  capture.capture_log = true;
  ScenarioSpec spec;  // defaults: consensus / singlehop / n=8
  for (WorkloadKind w : {WorkloadKind::kConsensus, WorkloadKind::kFlood,
                         WorkloadKind::kMis, WorkloadKind::kMisThenConsensus}) {
    spec.workload = w;
    for (TopologyKind t :
         {TopologyKind::kSingleHop, TopologyKind::kGrid,
          TopologyKind::kRandomGeometric}) {
      spec.topology = t;
      EXPECT_TRUE(LaneExecutor::eligible(spec, plain)) << to_string(w);
      EXPECT_TRUE(LaneExecutor::eligible(spec, capture)) << to_string(w);
    }
  }

  ScenarioSpec empty;
  empty.n = 0;
  EXPECT_TRUE(LaneExecutor::eligible(empty, plain));

  ScenarioSpec sync;
  sync.workload = WorkloadKind::kRoundSync;
  EXPECT_FALSE(LaneExecutor::eligible(sync, plain));
  EXPECT_FALSE(LaneExecutor::eligible(sync, capture));
}

}  // namespace
}  // namespace ccd::exp
