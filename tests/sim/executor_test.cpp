#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include "cd/oracle_detector.hpp"
#include "cm/no_cm.hpp"
#include "fault/failure_adversary.hpp"
#include "net/no_loss.hpp"
#include "net/unrestricted_loss.hpp"

namespace ccd {
namespace {

/// Broadcasts its value every round while active; counts what it saw.
class ChattyProcess final : public Process {
 public:
  explicit ChattyProcess(Value v) : value_(v) {}

  std::optional<Message> on_send(Round, CmAdvice cm) override {
    if (cm == CmAdvice::kActive) {
      ++sends_;
      return Message{Message::Kind::kPayload, value_, 0};
    }
    return std::nullopt;
  }
  void on_receive(Round, std::span<const Message> received, CdAdvice cd,
                  CmAdvice) override {
    ++transitions_;
    last_received_ = static_cast<int>(received.size());
    last_cd_ = cd;
    bool own = false;
    for (const Message& m : received) {
      if (m.value == value_) own = true;
    }
    saw_own_ = own;
  }

  int sends() const { return sends_; }
  int transitions() const { return transitions_; }
  int last_received() const { return last_received_; }
  CdAdvice last_cd() const { return last_cd_; }
  bool saw_own() const { return saw_own_; }

 private:
  Value value_;
  int sends_ = 0;
  int transitions_ = 0;
  int last_received_ = -1;
  CdAdvice last_cd_ = CdAdvice::kNull;
  bool saw_own_ = false;
};

/// Decides its own value after `delay` rounds, then halts.
class TimerDecider final : public Process {
 public:
  TimerDecider(Value v, Round delay) : value_(v), delay_(delay) {}
  std::optional<Message> on_send(Round, CmAdvice) override {
    ++sends_;
    return Message{Message::Kind::kPayload, value_, 0};
  }
  void on_receive(Round round, std::span<const Message>, CdAdvice,
                  CmAdvice) override {
    if (round >= delay_) {
      decide(value_);
      halt();
    }
  }
  int sends() const { return sends_; }

 private:
  Value value_;
  Round delay_;
  int sends_ = 0;
};

World chatty_world(std::size_t n, std::unique_ptr<LossAdversary> loss,
                   std::unique_ptr<FailureAdversary> fault) {
  World w;
  for (std::size_t i = 0; i < n; ++i) {
    w.processes.push_back(std::make_unique<ChattyProcess>(i));
    w.initial_values.push_back(i);
  }
  w.cm = std::make_unique<NoCm>();
  w.cd = std::make_unique<OracleDetector>(DetectorSpec::AC(),
                                          make_truthful_policy());
  w.loss = std::move(loss);
  w.fault = std::move(fault);
  return w;
}

TEST(Executor, SelfDeliveryEnforcedUnderTotalLoss) {
  auto world = chatty_world(
      3,
      std::make_unique<UnrestrictedLoss>(UnrestrictedLoss::Options{
          UnrestrictedLoss::Mode::kDropOthers, 0.0, 1}),
      std::make_unique<NoFailures>());
  std::vector<ChattyProcess*> procs;
  for (auto& p : world.processes) {
    procs.push_back(static_cast<ChattyProcess*>(p.get()));
  }
  Executor ex(std::move(world));
  ex.step();
  for (ChattyProcess* p : procs) {
    EXPECT_EQ(p->last_received(), 1);  // exactly its own message
    EXPECT_TRUE(p->saw_own());
    EXPECT_EQ(p->last_cd(), CdAdvice::kCollision);  // lost 2 of 3
  }
}

TEST(Executor, PerfectChannelDeliversAll) {
  auto world = chatty_world(4, std::make_unique<NoLoss>(),
                            std::make_unique<NoFailures>());
  std::vector<ChattyProcess*> procs;
  for (auto& p : world.processes) {
    procs.push_back(static_cast<ChattyProcess*>(p.get()));
  }
  Executor ex(std::move(world));
  ex.step();
  for (ChattyProcess* p : procs) {
    EXPECT_EQ(p->last_received(), 4);
    EXPECT_EQ(p->last_cd(), CdAdvice::kNull);
  }
}

TEST(Executor, CrashBeforeSendSilencesImmediately) {
  auto world = chatty_world(
      2, std::make_unique<NoLoss>(),
      std::make_unique<ScheduledCrash>(std::vector<CrashEvent>{
          {1, 0, CrashPoint::kBeforeSend}}));
  auto* survivor = static_cast<ChattyProcess*>(world.processes[1].get());
  auto* victim = static_cast<ChattyProcess*>(world.processes[0].get());
  Executor ex(std::move(world));
  ex.step();
  EXPECT_EQ(victim->sends(), 0);
  EXPECT_EQ(survivor->last_received(), 1);  // only its own message
  EXPECT_FALSE(ex.alive(0));
  ASSERT_EQ(ex.log().crashes().size(), 1u);
  EXPECT_EQ(ex.log().crashes()[0].round, 1u);
}

TEST(Executor, CrashAfterSendLetsFinalMessageOut) {
  auto world = chatty_world(
      2, std::make_unique<NoLoss>(),
      std::make_unique<ScheduledCrash>(std::vector<CrashEvent>{
          {1, 0, CrashPoint::kAfterSend}}));
  auto* survivor = static_cast<ChattyProcess*>(world.processes[1].get());
  auto* victim = static_cast<ChattyProcess*>(world.processes[0].get());
  Executor ex(std::move(world));
  ex.step();
  // The formal Definition 11 semantics: the round-r message goes out...
  EXPECT_EQ(victim->sends(), 1);
  EXPECT_EQ(survivor->last_received(), 2);
  // ...but the victim's transition is skipped.
  EXPECT_EQ(victim->transitions(), 0);
  ex.step();
  EXPECT_EQ(victim->sends(), 1);  // silent from round 2 on
  EXPECT_EQ(survivor->last_received(), 1);
}

TEST(Executor, HaltedProcessesGoSilent) {
  World w;
  w.processes.push_back(std::make_unique<TimerDecider>(7, 2));
  w.processes.push_back(std::make_unique<TimerDecider>(8, 5));
  w.initial_values = {7, 8};
  w.cm = std::make_unique<NoCm>();
  w.cd = std::make_unique<OracleDetector>(DetectorSpec::AC(),
                                          make_truthful_policy());
  w.loss = std::make_unique<NoLoss>();
  w.fault = std::make_unique<NoFailures>();
  auto* first = static_cast<TimerDecider*>(w.processes[0].get());
  Executor ex(std::move(w));
  for (int i = 0; i < 5; ++i) ex.step();
  EXPECT_EQ(first->sends(), 2);  // halted at end of round 2
  EXPECT_TRUE(ex.decided(0));
  EXPECT_TRUE(ex.decided(1));
  EXPECT_TRUE(ex.all_correct_decided());
}

TEST(Executor, DecisionsRecordedOnce) {
  World w;
  w.processes.push_back(std::make_unique<TimerDecider>(3, 1));
  w.initial_values = {3};
  w.cm = std::make_unique<NoCm>();
  w.cd = std::make_unique<OracleDetector>(DetectorSpec::AC(),
                                          make_truthful_policy());
  w.loss = std::make_unique<NoLoss>();
  w.fault = std::make_unique<NoFailures>();
  Executor ex(std::move(w));
  for (int i = 0; i < 4; ++i) ex.step();
  ASSERT_EQ(ex.log().decisions().size(), 1u);
  EXPECT_EQ(ex.log().decisions()[0].round, 1u);
  EXPECT_EQ(ex.log().decisions()[0].value, 3u);
}

TEST(Executor, RunStopsWhenAllDecided) {
  World w;
  w.processes.push_back(std::make_unique<TimerDecider>(1, 4));
  w.initial_values = {1};
  w.cm = std::make_unique<NoCm>();
  w.cd = std::make_unique<OracleDetector>(DetectorSpec::AC(),
                                          make_truthful_policy());
  w.loss = std::make_unique<NoLoss>();
  w.fault = std::make_unique<NoFailures>();
  Executor ex(std::move(w));
  RunResult result = ex.run(100);
  EXPECT_TRUE(result.all_correct_decided);
  EXPECT_EQ(result.last_decision_round, 4u);
  EXPECT_LE(result.rounds_executed, 5u);
}

TEST(Executor, RecordedTracesSatisfyModelInvariants) {
  auto world = chatty_world(3, std::make_unique<NoLoss>(),
                            std::make_unique<NoFailures>());
  Executor ex(std::move(world));
  for (int i = 0; i < 10; ++i) ex.step();
  const ExecutionLog& log = ex.log();
  // Receive counts never exceed broadcaster counts (Definition 11 c.4) and
  // the recorded CD trace is legal for the configured spec.
  for (Round r = 1; r <= 10; ++r) {
    const auto& tr = log.transmission().at(r);
    for (std::uint32_t t : tr.receive_count) {
      EXPECT_LE(t, tr.broadcaster_count);
    }
  }
  EXPECT_TRUE(
      cd_trace_legal(DetectorSpec::AC(), log.transmission(), log.cd_trace()));
}

TEST(Executor, ViewsMatchProcessObservations) {
  auto world = chatty_world(2, std::make_unique<NoLoss>(),
                            std::make_unique<NoFailures>());
  Executor ex(std::move(world));
  ex.step();
  const ProcessView& view = ex.log().view(0);
  ASSERT_EQ(view.rounds.size(), 1u);
  EXPECT_TRUE(view.rounds[0].sent.has_value());
  EXPECT_EQ(view.rounds[0].received.size(), 2u);
  EXPECT_EQ(view.rounds[0].cm, CmAdvice::kActive);
}

}  // namespace
}  // namespace ccd
