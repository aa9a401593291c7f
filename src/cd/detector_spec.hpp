// Collision detector classification (Section 5, Figure 1).
//
// A detector class is characterized by a completeness property (when a
// collision report "+-" is FORCED) and an accuracy property (when a "null"
// report is FORCED):
//
//   Completeness (Properties 4-7), for a round with c broadcasters where
//   process i received t messages:
//     kComplete : t < c                  -> +- forced   (any loss)
//     kMajority : c > 0 and 2t <= c      -> +- forced   (no strict majority)
//     kHalf     : c > 0 and 2t <  c      -> +- forced   (less than half)
//     kZero     : c > 0 and t == 0       -> +- forced   (lost everything)
//     kNone     : never forced
//
//   Accuracy (Properties 8-9):
//     kAccurate : t == c                 -> null forced  (no false positives)
//     kEventual : t == c and r >= r_acc  -> null forced
//     kNone     : never forced
//
// The half/majority distinction is exactly one message (2t == c): majority
// completeness forces a report when exactly half the messages were lost,
// half completeness does not.  That one message is what separates constant
// round consensus (Theorem 1) from the Omega(lg|V|) lower bound (Theorem 6).
//
// The special class NoCD (Section 5.3) contains the single detector that
// reports +- to everyone in every round; it vacuously satisfies every
// completeness property and no accuracy property, hence NoCD is a subset of
// NoACC (Lemma 1).
#pragma once

#include <cstdint>
#include <string>

#include "model/types.hpp"

namespace ccd {

enum class Completeness : std::uint8_t {
  kComplete,
  kMajority,
  kHalf,
  kZero,
  kNone,
};

enum class Accuracy : std::uint8_t {
  kAccurate,
  kEventual,
  kNone,
};

const char* to_string(Completeness c);
const char* to_string(Accuracy a);

struct DetectorSpec {
  Completeness completeness = Completeness::kComplete;
  Accuracy accuracy = Accuracy::kAccurate;
  /// Round from which an eventually-accurate detector must be accurate
  /// (Property 9's r_acc); ignored unless accuracy == kEventual.
  Round r_acc = 1;
  /// NoCD: the trivial detector that returns +- always.
  bool always_collision = false;

  // --- The eight classes of Figure 1 -----------------------------------
  static DetectorSpec AC();                     ///< complete, accurate
  static DetectorSpec MajAC();                  ///< maj-complete, accurate
  static DetectorSpec HalfAC();                 ///< half-complete, accurate
  static DetectorSpec ZeroAC();                 ///< 0-complete, accurate
  static DetectorSpec OAC(Round r_acc);         ///< complete, ev-accurate
  static DetectorSpec MajOAC(Round r_acc);      ///< maj-complete, ev-accurate
  static DetectorSpec HalfOAC(Round r_acc);     ///< half-complete, ev-accurate
  static DetectorSpec ZeroOAC(Round r_acc);     ///< 0-complete, ev-accurate
  // --- Special classes (Section 5.3) ------------------------------------
  static DetectorSpec NoCD();                   ///< always +-
  static DetectorSpec NoAcc();                  ///< complete, no accuracy

  /// Is a "+-" report forced for a process that received t of c messages?
  /// (Inline: kLocal scope asks once per receiver per round.)
  bool collision_forced(std::uint32_t c, std::uint32_t t) const {
    if (always_collision) return true;
    switch (completeness) {
      case Completeness::kComplete:
        return t < c;
      case Completeness::kMajority:
        return c > 0 && 2ull * t <= c;
      case Completeness::kHalf:
        return c > 0 && 2ull * t < c;
      case Completeness::kZero:
        return c > 0 && t == 0;
      case Completeness::kNone:
        return false;
    }
    return false;
  }

  /// Is a "null" report forced in round r for a process that received t of
  /// c messages?
  bool null_forced(Round r, std::uint32_t c, std::uint32_t t) const {
    if (always_collision) return false;
    if (t != c) return false;  // accuracy only constrains loss-free processes
    switch (accuracy) {
      case Accuracy::kAccurate:
        return true;
      case Accuracy::kEventual:
        return r >= r_acc;
      case Accuracy::kNone:
        return false;
    }
    return false;
  }

  /// Is `advice` a legal report for this spec in round r with counts (c,t)?
  bool advice_legal(Round r, std::uint32_t c, std::uint32_t t,
                    CdAdvice advice) const;

  /// Class containment: every detector satisfying *this also satisfies
  /// `other` (e.g. AC().subclass_of(MajOAC(r)) for any r).  Compares
  /// property strength, treating eventual accuracy class-wise (any r_acc).
  bool subclass_of(const DetectorSpec& other) const;

  /// Figure 1 name, e.g. "maj-<>AC".
  std::string class_name() const;

  friend bool operator==(const DetectorSpec&, const DetectorSpec&) = default;
};

}  // namespace ccd
