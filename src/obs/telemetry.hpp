// obs::Telemetry -- the observability substrate for the sweep engine.
//
// One hard invariant governs everything in src/obs/: TELEMETRY NEVER
// PERTURBS REPORT BYTES.  Counters and timers are collected beside the
// execution, never inside anything that feeds the Aggregator, so the JSON
// / CSV reports (and their golden FNV-1a hashes, grid fingerprints and
// shard-merge byte-identity) are exactly the same with telemetry fully
// enabled or fully absent.  All timing/counter data lands in a separate
// perf sidecar (see obs/perf_sidecar.hpp).
//
// Three layers:
//
//  * EngineCounters -- a plain struct of uint64 tallies the round engine
//    increments non-atomically in its hot loop (an increment on engine-
//    local state costs nothing measurable next to a round).  Deterministic:
//    a run's counters are a pure function of its spec, so shard-merged
//    counter totals equal the single-process totals exactly.
//
//  * Telemetry -- a process-wide registry of per-thread counter sinks.
//    Each worker thread accumulates into its OWN cache-line-padded block
//    of relaxed atomics (lock-free; the registry mutex is touched only at
//    sink registration), and totals() merges all blocks at read time.
//    Sinks outlive their threads, so counts from joined pool workers are
//    still visible at shutdown.
//
//  * RunTimer -- a monotonic (steady_clock) stopwatch for wall-time spans.
//    wall_clock_ms() is the ONLY wall-clock (system_clock) reading in the
//    subsystem, used solely for checkpoint heartbeat stamps -- never for
//    durations.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/flat_json.hpp"

namespace ccd::obs {

/// Per-run tallies, incremented non-atomically by the round engine
/// and summed across runs by the sweep runner.  Deterministic per spec.
struct EngineCounters {
  std::uint64_t rounds = 0;            ///< step() calls executed
  std::uint64_t messages_sent = 0;     ///< broadcasts attempted (M_r sends)
  std::uint64_t messages_delivered = 0;  ///< copies landed in receive
                                         ///< multisets (incl. self-delivery)
  std::uint64_t collisions = 0;  ///< kGlobal: rounds with >= 2 broadcasters;
                                 ///< kLocal: (receiver, round) pairs with
                                 ///< local contention c_i >= 2
  std::uint64_t crashes_before_send = 0;  ///< crash point A taken
  std::uint64_t crashes_after_send = 0;   ///< crash point B taken
  std::uint64_t cm_advice_calls = 0;      ///< W_r contention-manager calls
  std::uint64_t cd_advice_calls = 0;  ///< D_r detector calls (kGlobal: one
                                      ///< per round; kLocal: one per alive
                                      ///< process per round)

  void add(const EngineCounters& other);
  friend bool operator==(const EngineCounters&,
                         const EngineCounters&) = default;
};

/// Serializer/parser field table: an EngineCounters member flows through
/// the perf sidecar, its merge and the telemetry registry by having exactly
/// one entry here.
using EngineCounterField = jsonu::UintMember<EngineCounters, std::uint64_t>;
inline constexpr EngineCounterField kEngineCounterFields[] = {
    {"rounds", &EngineCounters::rounds},
    {"messages_sent", &EngineCounters::messages_sent},
    {"messages_delivered", &EngineCounters::messages_delivered},
    {"collisions", &EngineCounters::collisions},
    {"crashes_before_send", &EngineCounters::crashes_before_send},
    {"crashes_after_send", &EngineCounters::crashes_after_send},
    {"cm_advice_calls", &EngineCounters::cm_advice_calls},
    {"cd_advice_calls", &EngineCounters::cd_advice_calls},
};

/// Process-wide counter ids (the registry's slot layout).  From
/// kRoundsExecuted on, one id per kEngineCounterFields entry, in table
/// order: Sink::add_engine folds entry i into id kRoundsExecuted + i.
enum class Counter : std::uint32_t {
  kRunsExecuted = 0,   ///< scenario runs completed by sweep workers
  kCellsCompleted,     ///< grid cells whose last seed landed
  kRoundsExecuted,     ///< EngineCounters::rounds, accumulated
  kMessagesSent,
  kMessagesDelivered,
  kCollisions,
  kCrashesBeforeSend,
  kCrashesAfterSend,
  kCmAdviceCalls,
  kCdAdviceCalls,
  kCount
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kFirstEngineCounter =
    static_cast<std::size_t>(Counter::kRoundsExecuted);
static_assert(kNumCounters - kFirstEngineCounter ==
                  std::size(kEngineCounterFields) &&
              kEngineCounterFields[0].member == &EngineCounters::rounds,
              "Counter's engine ids must follow kEngineCounterFields");

class Telemetry {
 public:
  /// One thread's accumulation block.  The owning thread adds with relaxed
  /// atomics (uncontended by construction: every sink has exactly one
  /// writer); totals() readers see a merge of all sinks.  Padded so two
  /// workers never share a cache line.
  class alignas(64) Sink {
   public:
    void add(Counter c, std::uint64_t delta) {
      slots_[static_cast<std::size_t>(c)].fetch_add(
          delta, std::memory_order_relaxed);
    }
    /// Fold a finished run's engine counters into the process totals.
    void add_engine(const EngineCounters& ec);

   private:
    friend class Telemetry;
    std::array<std::atomic<std::uint64_t>, kNumCounters> slots_{};
  };

  /// Register a fresh sink.  Call once per worker thread (the only point
  /// that takes the registry mutex); the returned reference stays valid --
  /// and its counts visible -- after the thread exits.
  Sink& create_sink();

  /// Merge every sink's slots (sum per counter).
  std::array<std::uint64_t, kNumCounters> totals() const;
  std::uint64_t total(Counter c) const;

  /// Zero all registered sinks (bench / test isolation between sections).
  void reset();

  /// The process-wide registry.
  static Telemetry& global();
  /// The calling thread's sink in the global registry, created on first
  /// use and cached thread-locally -- the lock-free fast path sweep
  /// workers use.
  static Sink& thread_sink();

 private:
  mutable std::mutex mu_;  // guards sinks_ (registration and traversal)
  std::vector<std::unique_ptr<Sink>> sinks_;
};

/// Monotonic stopwatch (steady_clock).  Immune to wall-clock steps, so
/// spans and throughput numbers are trustworthy even under NTP slews.
class RunTimer {
 public:
  RunTimer() : start_(now_ns()) {}
  std::uint64_t elapsed_ns() const { return now_ns() - start_; }
  void restart() { start_ = now_ns(); }
  /// Monotonic nanoseconds since an arbitrary epoch.
  static std::uint64_t now_ns();

 private:
  std::uint64_t start_;
};

/// Wall-clock milliseconds since the Unix epoch -- heartbeat stamps only
/// (checkpoint ts_ms fields); never used for durations.
std::uint64_t wall_clock_ms();

}  // namespace ccd::obs
