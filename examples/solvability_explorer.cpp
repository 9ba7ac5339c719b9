// Interactive-ish explorer for Theorem 27.
//
// Usage:
//   solvability_explorer                  — print the frontier matrix
//                                           for a few (t, k, n) specs
//   solvability_explorer t k n            — matrix for one spec
//   solvability_explorer t k n i j        — one query, with the
//                                           matching-system hint
//   solvability_explorer scan n i j [cap] — empirical S^i_{j,n}
//                                           membership census at large
//                                           n (up to 24) via the
//                                           batched RankedPairScan, on
//                                           a witness-enforced and an
//                                           i-subset-starver schedule
// `--threads=N` / `--cells=LO..HI` (anywhere among the positional args)
// shard the empirical matrix cells — and the scan's P-rank chunks —
// across the ExperimentRunner's persistent pool. Every positional must
// be a base-10 integer; a malformed one is a usage error naming its
// argument, and so is a value out of range (exit 2).
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/core/experiments.h"
#include "src/core/runner.h"
#include "src/core/solvability.h"
#include "src/core/sweep_cli.h"
#include "src/util/assert.h"
#include "src/util/table.h"

namespace {

using namespace setlib;

void print_predicate_matrix(const core::AgreementSpec& spec) {
  TextTable table({"i \\ j", "1", "2", "3", "4", "5", "6", "7", "8"});
  for (int i = 1; i <= spec.n; ++i) {
    auto& row = table.row().cell(i);
    for (int j = 1; j <= 8; ++j) {
      if (j > spec.n) {
        row.cell("");
      } else if (j < i) {
        row.cell(".");
      } else {
        row.cell(core::solvable(spec, {i, j, spec.n}) ? "S" : "u");
      }
    }
  }
  std::cout << spec.to_string() << " in S^i_{j," << spec.n
            << "}  (S = solvable, u = unsolvable; Thm 27: S iff i <= "
            << spec.k << " and j-i >= " << spec.t + 1 - spec.k << ")\n"
            << table.render() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace setlib;

  // Positionals out, flags left for the shared parser.
  std::vector<std::string> args;
  const auto options = core::parse_cli_or_exit(
      argc, argv, "solvability_explorer", [&](const std::string& arg) {
        if (arg.rfind("--", 0) == 0) return false;
        args.push_back(arg);
        return true;
      });
  // Every positional parse and spec check sits in this one block: a
  // ContractViolation from it is a usage error (exit 2), as a malformed
  // flag is, naming the non-integer argument or the broken range.
  const bool scan = !args.empty() && args[0] == "scan";
  int n = 0;
  int i = 0;
  int j = 0;
  std::int64_t cap = 3;
  std::optional<core::AgreementSpec> spec;
  std::optional<core::SystemSpec> sys;
  try {
    const auto arg = [&](std::size_t index, const char* name) {
      return core::parse_int_value(args[index], name);
    };
    if (scan && args.size() >= 4) {
      n = arg(1, "n");
      i = arg(2, "i");
      j = arg(3, "j");
      if (args.size() > 4) cap = core::parse_long_value(args[4], "cap");
    } else if (!scan && (args.size() == 3 || args.size() == 5)) {
      spec = core::AgreementSpec{arg(0, "t"), arg(1, "k"), arg(2, "n")};
      spec->validate();
      if (args.size() == 5) {
        sys = core::SystemSpec{arg(3, "i"), arg(4, "j"), spec->n};
        sys->validate();
      }
    }
  } catch (const ContractViolation& e) {
    std::cerr << "solvability_explorer: usage error: " << e.what() << "\n";
    return 2;
  }

  if (scan) {
    if (args.size() < 4) {
      std::cerr << "usage: solvability_explorer scan n i j [cap]\n";
      return 2;
    }
    if (n < 2 || n > kMaxProcs || i < 1 || i > n || j < 1 || j > n ||
        cap < 1) {
      std::cerr << "usage: solvability_explorer scan n i j [cap]\n"
                   "  with 2 <= n <= " << kMaxProcs
                << ", 1 <= i, j <= n, cap >= 1\n";
      return 2;
    }
    core::ExperimentRunner runner(options);
    std::cout << "S^" << i << "_{" << j << "," << n
              << "} membership census (cap " << cap
              << ", 40k-step prefixes, C(" << n << "," << i << ") x C("
              << n << "," << j << ") pairs)\n\n";
    for (const bool enforced : {true, false}) {
      if (!enforced && i >= n) {
        std::cout << "(skipping the starver schedule: i == n leaves no "
                     "proper subset to starve)\n";
        continue;
      }
      core::PairScanConfig cfg;
      cfg.n = n;
      cfg.i = i;
      cfg.j = j;
      cfg.bound_cap = cap;
      cfg.enforced_bound = enforced ? cap : 0;
      const auto result = core::ranked_pair_scan(cfg, runner);
      std::cout << (enforced ? "enforced witness"
                             : std::to_string(i) + "-subset starver")
                << ": " << result.members << "/" << result.pairs
                << " pairs certify membership";
      if (result.found) {
        std::cout << "; first " << result.first.timely_set.to_string()
                  << " vs " << result.first.observed_set.to_string()
                  << " at bound " << result.first.bound;
      }
      std::cout << "\n";
    }
    return 0;
  }

  if (sys) {
    const bool answer = core::solvable(*spec, *sys);
    std::cout << spec->to_string() << " in " << sys->to_string() << ": "
              << (answer ? "SOLVABLE" : "UNSOLVABLE") << "\n";
    const auto match = core::matching_system(*spec);
    std::cout << "matching system (Theorem 24): " << match.to_string()
              << "\n";
    return 0;
  }

  if (spec) {
    print_predicate_matrix(*spec);
    if (spec->k <= spec->t) {
      std::cout << "Running the empirical matrix (detector frontier + "
                   "solver) ...\n\n";
      core::ExperimentRunner runner(options);
      core::MatrixConfig cfg;
      cfg.spec = *spec;
      cfg.max_steps = 900'000;
      std::cout << core::render_matrix(*spec,
                                       core::thm27_matrix(cfg, runner));
    }
    return 0;
  }

  for (const auto& spec : {core::AgreementSpec{2, 1, 4},
                           core::AgreementSpec{2, 2, 5},
                           core::AgreementSpec{3, 2, 6},
                           core::AgreementSpec{4, 3, 8}}) {
    print_predicate_matrix(spec);
  }
  std::cout << "Run with arguments `t k n` for the empirical matrix, "
               "`t k n i j` for one query, or `scan n i j [cap]` for a "
               "large-n membership census.\n";
  return 0;
}
