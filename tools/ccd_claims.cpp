// ccd_claims: run the paper's experiments E1-E15, print their tables, and
// check every claim (src/exp/claims.hpp).
//
// Usage: ccd_claims      (no arguments)
//
// After each experiment's tables comes one verdict line per claim:
//   PASS E2 Theorem 1: <statement>
//   FAIL E2 Theorem 1: <statement>
//        first violation: run 17: after-CST rounds 3 > 2
//        spec: {...}
// A violated grid claim prints the violating run's spec JSON;
// WorldFactory::run_scenario(*ScenarioSpec::from_json(json)) re-executes
// it.  Direct-run claims name the violating row of their table instead.
// Exit status: 0 = every claim holds, 1 = some claim is violated,
// 2 = usage error.
#include <iostream>

#include "exp/claims.hpp"

int main(int argc, char** /*argv*/) {
  using namespace ccd::exp;
  if (argc > 1) {
    std::cerr << "usage: ccd_claims (takes no arguments)\n";
    return 2;
  }
  std::size_t claims = 0;
  std::size_t violated = 0;
  for (const Experiment& experiment : experiments()) {
    const std::vector<Claim> results = experiment.run(std::cout);
    std::cout << "\n";
    for (const Claim& claim : results) {
      const Verdict& v = claim.verdict;
      ++claims;
      std::cout << (v.pass ? "PASS " : "FAIL ") << experiment.id << " "
                << claim.reference << ": " << claim.statement << "\n";
      if (v.pass) continue;
      ++violated;
      std::cout << "     first violation: " << (v.spec ? "run " : "row ")
                << v.at << ": " << v.why << "\n";
      if (v.spec) std::cout << "     spec: " << v.spec->to_json() << "\n";
    }
    std::cout << "\n";
  }
  std::cout << "ccd_claims: " << claims - violated << "/" << claims
            << " claims hold\n";
  return violated == 0 ? 0 : 1;
}
