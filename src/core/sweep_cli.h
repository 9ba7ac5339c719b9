// Thin command-line surface for the bench binaries and heavier
// examples: parses the shared flags into a core::RunnerOptions that
// constructs the binary's ExperimentRunner.
//
// Every bench accepts:
//   --threads=N    sweep parallelism, 0..runtime::WorkerPool::kMaxThreads
//                  (0 = hardware concurrency)
//   --repeat=N     repeat factor for grid sweeps (seeds per cell point)
//   --cells=LO..HI[/SPAN]
//                  run the [LO, HI) slice of a SPAN-wide virtual cell
//                  space (default ShardSpec::kDefaultSpan; LO < HI); the
//                  documents of ranges tiling [0, SPAN) merge to the
//                  unsharded document (modulo wall-clock fields).
//                  `--cells=K..K+1/N` is the K-th of N equal slices.
//   --json[=path]  write BENCH_<name>.json (sections, throughput,
//                  per-cell latency percentiles and rows)
// Any other argument is an error, so a misspelt flag (`--thread=4`,
// `--jsn=x.json`) fails instead of running with the defaults; in a
// main (parse_cli_or_exit) it is a usage error with exit status 2.
#ifndef SETLIB_CORE_SWEEP_CLI_H
#define SETLIB_CORE_SWEEP_CLI_H

#include <functional>
#include <string>

#include "src/core/runner.h"

namespace setlib::core {

/// Parses the shared flags in argv[1, argc). Throws a
/// ContractViolation naming the first argument that is not one of them.
RunnerOptions parse_runner_options(int argc, const char* const* argv,
                                   const std::string& name);

/// parse_runner_options for a program's main. `own_flag`, when given,
/// sees each argument first and consumes the program's own flags
/// (returning true). Any ContractViolation is a usage error: the message
/// goes to stderr and the process exits 2, as schedule_fuzzer does.
RunnerOptions parse_cli_or_exit(
    int argc, const char* const* argv, const std::string& name,
    const std::function<bool(const std::string&)>& own_flag = {});

/// Strict base-10 parse of a flag value. Rejects empty values,
/// trailing garbage ("8x"), and out-of-range magnitudes (strtol's
/// ERANGE saturation is an error here, not a value) with a
/// ContractViolation naming the flag. Shared by every CLI in the repo
/// so no surface silently truncates or wraps.
long parse_long_value(const std::string& text, const std::string& flag);

/// parse_long_value narrowed to int, rejecting values outside
/// [INT_MIN, INT_MAX] instead of wrapping.
int parse_int_value(const std::string& text, const std::string& flag);

/// If arg starts with prefix ("--threads="), parses the remainder into
/// *out and returns true; returns false when the prefix does not
/// match. Parse failures throw (see parse_long_value).
bool consume_long_flag(const std::string& arg, const std::string& prefix,
                       long* out);
bool consume_int_flag(const std::string& arg, const std::string& prefix,
                      int* out);

/// consume_int_flag for "--threads=", which also rejects a value
/// outside [0, runtime::WorkerPool::kMaxThreads].
bool consume_threads_flag(const std::string& arg, int* out);

}  // namespace setlib::core

#endif  // SETLIB_CORE_SWEEP_CLI_H
