#include "src/core/sweep_cli.h"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <optional>

#include "src/util/assert.h"

namespace setlib::core {

long parse_long_value(const std::string& text, const std::string& flag) {
  if (text.empty()) {
    throw ContractViolation(flag + ": empty value");
  }
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  // Reject trailing garbage ("--threads=8x") instead of truncating,
  // and a no-digit parse ("--threads=x") instead of defaulting to 0.
  if (end == text.c_str() || end == nullptr || *end != '\0') {
    throw ContractViolation(flag + ": expected a base-10 integer, got '" +
                            text + "'");
  }
  // strtol saturates to LONG_MIN/LONG_MAX on overflow and only tells
  // us via errno — "--grain=99999999999999999999" must be an error,
  // not LONG_MAX.
  if (errno == ERANGE) {
    throw ContractViolation(flag + ": value '" + text +
                            "' is out of range");
  }
  return parsed;
}

int parse_int_value(const std::string& text, const std::string& flag) {
  const long parsed = parse_long_value(text, flag);
  if (parsed < INT_MIN || parsed > INT_MAX) {
    throw ContractViolation(flag + ": value '" + text +
                            "' does not fit in an int");
  }
  return static_cast<int>(parsed);
}

bool consume_long_flag(const std::string& arg, const std::string& prefix,
                       long* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = parse_long_value(arg.substr(prefix.size()), prefix);
  return true;
}

bool consume_int_flag(const std::string& arg, const std::string& prefix,
                      int* out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = parse_int_value(arg.substr(prefix.size()), prefix);
  return true;
}

namespace {

bool consume_cells_flag(const std::string& arg, ShardSpec* out) {
  const std::string prefix = "--cells=";
  if (arg.rfind(prefix, 0) != 0) return false;
  const std::string value = arg.substr(prefix.size());
  const std::optional<ShardSpec> spec = ShardSpec::parse(value);
  if (!spec) {
    throw ContractViolation(prefix + ": expected LO..HI[/SPAN] with "
                            "0 <= LO < HI <= SPAN, got '" + value + "'");
  }
  *out = *spec;
  return true;
}

}  // namespace

RunnerOptions parse_runner_options(int argc, const char* const* argv,
                                   const std::string& name) {
  RunnerOptions options;
  options.name = name;
  // json_path left empty unless --json=path overrides it; the
  // ExperimentRunner constructor fills in the BENCH_<name>.json
  // default (single source of truth for the naming scheme).

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (consume_int_flag(arg, "--threads=", &options.threads)) {
      SETLIB_EXPECTS(options.threads >= 0);
      continue;
    }
    if (consume_int_flag(arg, "--repeat=", &options.repeat)) {
      SETLIB_EXPECTS(options.repeat >= 1);
      continue;
    }
    long grain = 0;
    if (consume_long_flag(arg, "--grain=", &grain)) {
      SETLIB_EXPECTS(grain >= 0);
      options.grain = static_cast<std::size_t>(grain);
      continue;
    }
    if (consume_cells_flag(arg, &options.shard)) continue;
    if (arg == "--json") {
      options.json = true;
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      options.json = true;
      options.json_path = arg.substr(7);
      SETLIB_EXPECTS(!options.json_path.empty());
      continue;
    }
    throw ContractViolation(name + ": unrecognized argument '" + arg +
                            "'");
  }
  return options;
}

}  // namespace setlib::core
