// The cross-layer oracle registry: each oracle is a pure predicate over
// a Scenario that either passes, fails with a detail string, or skips
// (the scenario is outside the oracle's domain). The eight built-in
// oracles are reusable differential properties:
//
//   fib-crosscheck      predicted FIBs == emulated FIBs, hop for hop
//   incr-equivalence    incremental rebuild == from-scratch rebuild (bytes)
//   ckpt-resume         kill + resume run report == uninterrupted (bytes)
//   lint-determinism    analysis report/SARIF identical across --jobs
//   render-roundtrip    rendered configs parse back to coherent routers
//   loader-robustness   corrupted inputs throw typed parse errors, never
//                       crash (graphml/gml/rocketfuel/cbgp loaders and
//                       the deploy archive)
//   measure-equivalence forwarding columns == the hop-by-hop walk, every
//                       pair, in both layers, intact and after failures
//   fib-lookup          forwarding-index lookup == the linear lookup
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fuzz/scenario.hpp"

namespace autonet::fuzz {

struct OracleResult {
  enum class Status { kPass, kFail, kSkip };
  Status status = Status::kPass;
  /// Failure explanation or skip reason; empty on pass.
  std::string detail;

  [[nodiscard]] bool failed() const { return status == Status::kFail; }

  static OracleResult pass() { return {}; }
  static OracleResult fail(std::string detail) {
    return {Status::kFail, std::move(detail)};
  }
  static OracleResult skip(std::string detail) {
    return {Status::kSkip, std::move(detail)};
  }
};

struct Oracle {
  std::string name;
  std::string description;
  std::function<OracleResult(const Scenario&)> run;
};

/// The built-in oracles, stable order (round-robin scheduling and the
/// journal's oracle column depend on it).
[[nodiscard]] const std::vector<Oracle>& oracle_registry();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const Oracle* find_oracle(std::string_view name);

}  // namespace autonet::fuzz
