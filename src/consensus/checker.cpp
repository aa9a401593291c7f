#include "consensus/checker.hpp"

#include <algorithm>

namespace ccd {

ConsensusVerdict check_consensus(const ExecutionLog& log,
                                 const std::vector<Value>& initial_values) {
  ConsensusVerdict verdict;
  const std::size_t n = log.num_processes();

  std::vector<bool> crashed(n, false);
  for (const CrashRecord& c : log.crashes()) crashed[c.process] = true;

  std::vector<Value> decision(n, kNoValue);
  verdict.decided_values.reserve(log.decisions().size());
  for (const DecisionRecord& d : log.decisions()) {
    decision[d.process] = d.value;
    if (d.round < verdict.first_decision_round) {
      verdict.first_decision_round = d.round;
    }
    if (!crashed[d.process] && d.round > verdict.last_decision_round) {
      verdict.last_decision_round = d.round;
    }
  }

  // Agreement & validity consider every decider, crashed or not: a process
  // that decided before crashing still counts (the paper's agreement is
  // over all decisions, uniform or not).
  for (std::size_t i = 0; i < n; ++i) {
    if (decision[i] == kNoValue) continue;
    verdict.decided_values.push_back(decision[i]);
    if (std::find(initial_values.begin(), initial_values.end(),
                  decision[i]) == initial_values.end()) {
      verdict.strong_validity = false;
    }
  }
  std::sort(verdict.decided_values.begin(), verdict.decided_values.end());
  verdict.decided_values.erase(
      std::unique(verdict.decided_values.begin(), verdict.decided_values.end()),
      verdict.decided_values.end());
  verdict.agreement = verdict.decided_values.size() <= 1;

  const bool all_same_initial =
      std::adjacent_find(initial_values.begin(), initial_values.end(),
                         std::not_equal_to<>()) == initial_values.end();
  if (all_same_initial && !initial_values.empty()) {
    for (Value v : verdict.decided_values) {
      if (v != initial_values.front()) verdict.uniform_validity = false;
    }
  }

  verdict.termination = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (!crashed[i] && decision[i] == kNoValue) verdict.termination = false;
  }

  return verdict;
}

}  // namespace ccd
