#include "cd/detector_spec.hpp"

namespace ccd {

const char* to_string(Completeness c) {
  switch (c) {
    case Completeness::kComplete:
      return "complete";
    case Completeness::kMajority:
      return "maj-complete";
    case Completeness::kHalf:
      return "half-complete";
    case Completeness::kZero:
      return "0-complete";
    case Completeness::kNone:
      return "none";
  }
  return "?";
}

const char* to_string(Accuracy a) {
  switch (a) {
    case Accuracy::kAccurate:
      return "accurate";
    case Accuracy::kEventual:
      return "eventually-accurate";
    case Accuracy::kNone:
      return "none";
  }
  return "?";
}

DetectorSpec DetectorSpec::AC() {
  return {Completeness::kComplete, Accuracy::kAccurate, 1, false};
}
DetectorSpec DetectorSpec::MajAC() {
  return {Completeness::kMajority, Accuracy::kAccurate, 1, false};
}
DetectorSpec DetectorSpec::HalfAC() {
  return {Completeness::kHalf, Accuracy::kAccurate, 1, false};
}
DetectorSpec DetectorSpec::ZeroAC() {
  return {Completeness::kZero, Accuracy::kAccurate, 1, false};
}
DetectorSpec DetectorSpec::OAC(Round r_acc) {
  return {Completeness::kComplete, Accuracy::kEventual, r_acc, false};
}
DetectorSpec DetectorSpec::MajOAC(Round r_acc) {
  return {Completeness::kMajority, Accuracy::kEventual, r_acc, false};
}
DetectorSpec DetectorSpec::HalfOAC(Round r_acc) {
  return {Completeness::kHalf, Accuracy::kEventual, r_acc, false};
}
DetectorSpec DetectorSpec::ZeroOAC(Round r_acc) {
  return {Completeness::kZero, Accuracy::kEventual, r_acc, false};
}
DetectorSpec DetectorSpec::NoCD() {
  return {Completeness::kComplete, Accuracy::kNone, 1, true};
}
DetectorSpec DetectorSpec::NoAcc() {
  return {Completeness::kComplete, Accuracy::kNone, 1, false};
}

bool DetectorSpec::advice_legal(Round r, std::uint32_t c, std::uint32_t t,
                                CdAdvice advice) const {
  if (advice == CdAdvice::kCollision) return !null_forced(r, c, t);
  return !collision_forced(c, t);
}

namespace {
/// Strength rank: higher forces collision reports in more situations.
int completeness_rank(Completeness c) {
  switch (c) {
    case Completeness::kComplete:
      return 4;
    case Completeness::kMajority:
      return 3;
    case Completeness::kHalf:
      return 2;
    case Completeness::kZero:
      return 1;
    case Completeness::kNone:
      return 0;
  }
  return 0;
}
int accuracy_rank(Accuracy a) {
  switch (a) {
    case Accuracy::kAccurate:
      return 2;
    case Accuracy::kEventual:
      return 1;
    case Accuracy::kNone:
      return 0;
  }
  return 0;
}
}  // namespace

bool DetectorSpec::subclass_of(const DetectorSpec& other) const {
  // NoCD's single detector trivially satisfies every completeness property
  // (it always reports) but violates both accuracy properties.
  if (always_collision) {
    return accuracy_rank(other.accuracy) == 0;
  }
  if (other.always_collision) return false;
  return completeness_rank(completeness) >=
             completeness_rank(other.completeness) &&
         accuracy_rank(accuracy) >= accuracy_rank(other.accuracy);
}

std::string DetectorSpec::class_name() const {
  if (always_collision) return "NoCD";
  std::string prefix;
  switch (completeness) {
    case Completeness::kComplete:
      prefix = "";
      break;
    case Completeness::kMajority:
      prefix = "maj-";
      break;
    case Completeness::kHalf:
      prefix = "half-";
      break;
    case Completeness::kZero:
      prefix = "0-";
      break;
    case Completeness::kNone:
      prefix = "nc-";
      break;
  }
  switch (accuracy) {
    case Accuracy::kAccurate:
      return prefix + "AC";
    case Accuracy::kEventual:
      return prefix + "<>AC";
    case Accuracy::kNone:
      return completeness == Completeness::kComplete ? std::string("NoACC")
                                                     : prefix + "noacc";
  }
  return prefix + "?";
}

}  // namespace ccd
