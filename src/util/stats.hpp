// Statistics accumulator used by the bench harness and the exp/ Aggregator
// to report min / max / mean / percentiles of per-run metrics over many
// seeded runs.
//
// Two storage modes:
//
// - Mode::kExactHistogram (the default): samples fold into a sparse
//   integer-keyed counting histogram (util/histogram.hpp).  Lossless for
//   integer-valued samples, memory bounded by the number of DISTINCT
//   values rather than the run count, and merge_from is per-key count
//   addition -- order-free, so shard merges are byte-identical by
//   construction.  If a non-integral (or out-of-exact-range, or -0.0)
//   sample ever arrives, the accumulator transparently demotes itself to
//   raw-sample storage by materializing the multiset in ascending key
//   order; all queries keep answering across the transition.
//
// - Mode::kRawSamples: the insertion-order sample buffer, exactly the
//   pre-histogram behavior.  Opt-in for genuinely real-valued metrics
//   (fractions, microsecond skews) where binning would be lossy.
//
// Exactness contract (why the histogram path is bit-identical, not merely
// close): for integer-valued samples with |x| <= 2^53 and running sums
// inside the 2^53 exact-integer window -- true for every count-like
// metric we record -- the sequential double sum IS the integer sum, so
// recomputing mean from the histogram's exact integer accumulators yields
// the same IEEE double.  min/max/percentile depend only on the sorted
// multiset, which both modes agree on (percentile uses the same
// linear-interpolation formula over ranked values).  stddev additionally
// needs x*x inside the window; it is not rendered into reports.
//
// Cost model (the Aggregator asks every cell for p50 AND p99, plus min,
// mean and max): histogram queries are O(#bins); raw-mode percentile
// sorts a cached copy once and reuses it until the next add().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.hpp"

namespace ccd {

class Stats {
 public:
  enum class Mode : std::uint8_t {
    kExactHistogram,  ///< sparse integer histogram, auto-demotes on reals
    kRawSamples,      ///< insertion-order sample buffer
  };

  Stats() = default;
  explicit Stats(Mode mode) : hist_active_(mode == Mode::kExactHistogram) {}

  void add(double x);

  /// Exact merge.  Histogram+histogram merges by count addition (order
  /// free); any raw operand falls back to add() replay in the operand's
  /// storage order, exactly as the equivalent sequence of add() calls
  /// would.  Either way the merged accumulator answers every query
  /// bit-identically to a single-pass accumulation, which is what makes
  /// shard reports recombinable into byte-identical full reports (see
  /// exp/shard/).  `other` may alias `this`.
  void merge_from(const Stats& other);

  /// Storage currently in effect (a kExactHistogram accumulator that saw
  /// a non-integral sample reports kRawSamples from then on).
  Mode mode() const {
    return hist_active_ ? Mode::kExactHistogram : Mode::kRawSamples;
  }
  bool histogram_active() const { return hist_active_; }

  /// The sparse histogram.  Requires histogram_active().
  const ExactHistogram& histogram() const;

  /// Insertion-order sample buffer (the percentile buffer's source of
  /// truth in raw mode).  Requires !histogram_active().  Exposed so shard
  /// reports can serialize a raw-mode Stats and rebuild it exactly via
  /// add() replay.
  const std::vector<double>& samples() const;

  /// Bulk add of `count` copies of `key`.  Requires histogram_active();
  /// used by the shard-report decoder.
  void add_bin(std::int64_t key, std::uint64_t count);

  std::size_t count() const;
  bool empty() const { return count() == 0; }
  double min() const;
  double max() const;
  double mean() const;
  double stddev() const;
  /// p in [0,100]; linear interpolation between the two nearest ranks.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// Deterministic footprint of retained state: histogram bins * 16 or
  /// raw samples * 8.  The sidecar's stats_bytes_retained sums this.
  std::size_t bytes_retained() const;

 private:
  void raw_add(double x);
  void demote_to_raw();
  void ensure_sorted() const;

  bool hist_active_ = true;
  ExactHistogram hist_;               ///< valid iff hist_active_
  std::vector<double> samples_;       ///< valid iff !hist_active_
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0.0;     ///< raw mode: sequential fold in add() order
  double sum_sq_ = 0.0;  ///< raw mode: sequential fold in add() order
  double min_ = 0.0;     ///< raw mode online; valid iff !empty()
  double max_ = 0.0;     ///< raw mode online; valid iff !empty()
};

/// Serializes retained state: {"h":[k0,c0,k1,c1,...]} for histogram mode
/// (bins ascending, counts > 0) or {"raw":[x0,x1,...]} for raw mode
/// (insertion order, shortest round-trip doubles).
std::string stats_to_json(const Stats& s);
/// stats_to_json appended in place (the report renderers' form).
void append_stats_json(std::string& out, const Stats& s);

/// Rebuilds a Stats serialized by stats_to_json.  Folds into `*into`
/// (freshly constructed, in the mode the writer's accumulator had).
/// Returns false and sets *error (if non-null) on malformed input, and on
/// histogram bins for a raw-mode `*into`; `*into` is then to be dropped
/// (it may hold the bins before a bad one).
bool stats_from_json(std::string_view raw, Stats* into, std::string* error);

}  // namespace ccd
