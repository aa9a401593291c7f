#include "consensus/alg2_zero_oac.hpp"

namespace ccd {

Alg2Core::Alg2Core(std::uint64_t num_values, Value initial_value,
                   Message::Kind estimate_kind, std::uint64_t message_tag)
    : codec_(num_values),
      estimate_kind_(estimate_kind),
      tag_(message_tag),
      estimate_(initial_value) {}

void Alg2Core::reset(Value initial_value) {
  estimate_ = initial_value;
  phase_ = Phase::kPrepare;
  decide_flag_ = true;
  bit_ = 1;
  sent_this_round_ = false;
  decided_ = false;
  decision_ = kNoValue;
}

std::optional<Message> Alg2Core::step_send(CmAdvice cm, bool muted) {
  sent_this_round_ = false;
  switch (phase_) {
    case Phase::kPrepare:
      if (cm == CmAdvice::kActive && !muted) {
        sent_this_round_ = true;
        return Message{estimate_kind_, estimate_, tag_};
      }
      return std::nullopt;
    case Phase::kPropose:
      if (codec_.bit(estimate_, bit_)) {
        sent_this_round_ = true;
        return Message{Message::Kind::kVeto, 0, tag_};
      }
      return std::nullopt;
    case Phase::kAccept:
      if (!decide_flag_) {
        sent_this_round_ = true;
        return Message{Message::Kind::kVeto, 0, tag_};
      }
      return std::nullopt;
  }
  return std::nullopt;
}

void Alg2Core::step_receive(std::span<const Message> received, CdAdvice cd) {
  switch (phase_) {
    case Phase::kPrepare: {
      const DistinctValues messages = distinct_values(received, estimate_kind_);
      if (cd != CdAdvice::kCollision && messages.count > 0) {
        estimate_ = messages.min;  // min (line 12)
      }
      decide_flag_ = true;
      bit_ = 1;
      phase_ = Phase::kPropose;
      return;
    }
    case Phase::kPropose: {
      const bool heard = !received.empty() || cd == CdAdvice::kCollision;
      if (heard && !codec_.bit(estimate_, bit_)) {
        decide_flag_ = false;  // someone's estimate differs in this bit
      }
      ++bit_;
      if (bit_ > codec_.width()) phase_ = Phase::kAccept;
      return;
    }
    case Phase::kAccept: {
      // A broadcaster receives its own veto, so |received| == 0 already
      // implies this process did not complain (line 31).
      if (received.empty() && cd != CdAdvice::kCollision) {
        decided_ = true;
        decision_ = estimate_;
      }
      phase_ = Phase::kPrepare;
      return;
    }
  }
}

Alg2Process::Alg2Process(std::uint64_t num_values, Value initial_value)
    : ConsensusProcess(initial_value), core_(num_values, initial_value) {}

std::optional<Message> Alg2Process::on_send(Round /*round*/, CmAdvice cm) {
  return core_.step_send(cm);
}

void Alg2Process::on_receive(Round /*round*/,
                             std::span<const Message> received, CdAdvice cd,
                             CmAdvice /*cm*/) {
  core_.step_receive(received, cd);
  if (core_.decided()) {
    decide(core_.decision());
    halt();
  }
}

std::unique_ptr<Process> Alg2Algorithm::make_process(
    const ProcessIdentity& /*identity*/, Value initial_value) const {
  return std::make_unique<Alg2Process>(num_values_, initial_value);
}

Round Alg2Algorithm::round_bound_after_cst(std::uint64_t num_values) {
  const std::uint32_t size = BitCodec(num_values).width();
  return 2 * (size + 1);
}

}  // namespace ccd
