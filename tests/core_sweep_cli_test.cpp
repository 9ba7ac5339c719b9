// The shared bench CLI: strict integer parsing and the --cells= range.
// Overflowing values must be rejected (strtol saturates with
// errno=ERANGE, which used to pass silently as LONG_MAX), long->int
// narrowing must not wrap, and malformed values fail with a message
// naming the flag.
#include "src/core/sweep_cli.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/runtime/pool.h"
#include "src/util/assert.h"

namespace setlib::core {
namespace {

RunnerOptions parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "prog";
  argv.push_back(prog.data());
  for (std::string& arg : args) argv.push_back(arg.data());
  return parse_runner_options(static_cast<int>(argv.size()), argv.data(),
                              "cli_test");
}

TEST(SweepCliTest, ParsesAndStripsTheSharedFlags) {
  const RunnerOptions options =
      parse({"--threads=4", "--repeat=3", "--cells=1..2/3",
             "--json=out.json"});
  EXPECT_EQ(options.threads, 4);
  EXPECT_EQ(options.repeat, 3);
  EXPECT_EQ(options.shard.lo, 1u);
  EXPECT_EQ(options.shard.hi, 2u);
  EXPECT_EQ(options.shard.span, 3u);
  EXPECT_TRUE(options.json);
  EXPECT_EQ(options.json_path, "out.json");
}

TEST(SweepCliTest, UnrecognizedArgsAreRejectedByName) {
  // A misspelt shared flag must not run with the defaults
  // (`--thread=4` at one thread, `--jsn=x.json` writing no JSON).
  for (const std::string bad :
       {"--thread=4", "--jsn=x.json", "--benchmark_list_tests",
        "positional"}) {
    try {
      parse({"--threads=2", bad, "--repeat=3"});
      ADD_FAILURE() << bad << " was accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("'" + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepCliTest, RemovedGrainFlagIsRejectedByName) {
  // The pool claims one index at a time; there is no batching knob.
  try {
    parse({"--grain=4"});
    FAIL() << "--grain=4 was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("'--grain=4'"), std::string::npos)
        << e.what();
  }
}

TEST(SweepCliTest, OverflowingLongIsRejectedNotSaturated) {
  // 20 nines saturate strtol to LONG_MAX with errno=ERANGE; the old
  // parser accepted that as a value.
  long value = 0;
  EXPECT_THROW(consume_long_flag("--requests=99999999999999999999",
                                 "--requests=", &value),
               ContractViolation);
}

TEST(SweepCliTest, HugeIntFlagDoesNotWrap) {
  // Fits in long, not in int: must be an error, not a wrapped int.
  EXPECT_THROW(parse({"--threads=99999999999"}), ContractViolation);
  EXPECT_THROW(parse({"--repeat=2147483648"}), ContractViolation);
  // INT_MAX fits in an int but not in the pool: rejected, not spawned.
  EXPECT_THROW(parse({"--threads=2147483647"}), ContractViolation);
}

TEST(SweepCliTest, ThreadsAreCappedAtThePoolMaximum) {
  const int max = runtime::WorkerPool::kMaxThreads;
  EXPECT_EQ(parse({"--threads=" + std::to_string(max)}).threads, max);
  try {
    parse({"--threads=" + std::to_string(max + 1)});
    FAIL() << "--threads=" << max + 1 << " was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("outside [0, " +
                                         std::to_string(max) + "]"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse({"--threads=-1"}), ContractViolation);
}

TEST(SweepCliTest, TrailingGarbageAndEmptyValuesAreRejected) {
  EXPECT_THROW(parse({"--threads=8x"}), ContractViolation);
  EXPECT_THROW(parse({"--threads="}), ContractViolation);
  EXPECT_THROW(parse({"--repeat=x"}), ContractViolation);
  EXPECT_THROW(parse({"--json="}), ContractViolation);
}

TEST(SweepCliTest, ShardFlagValidatesItsShape) {
  // The K-th of N equal slices is the unit range K..K+1/N.
  const auto [begin, end] = parse({"--cells=1..2/3"}).shard.range(9);
  EXPECT_EQ(begin, 3u);
  EXPECT_EQ(end, 6u);
  EXPECT_THROW(parse({"--cells=3..4/3"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=-1..0/3"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=1/3"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=1..2/"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=99999999999999999999..1/3"}),
               ContractViolation);
}

TEST(SweepCliTest, CellsFlagParsesRanges) {
  // Bare LO..HI rides on the default virtual span.
  RunnerOptions options = parse({"--cells=1024..4096"});
  EXPECT_EQ(options.shard.lo, 1024u);
  EXPECT_EQ(options.shard.hi, 4096u);
  EXPECT_EQ(options.shard.span, ShardSpec::kDefaultSpan);
  EXPECT_EQ(options.shard.to_string(), "1024..4096/1048576");
  EXPECT_FALSE(options.shard.whole());
  // An explicit span travels after the slash.
  options = parse({"--cells=2..6/8"});
  EXPECT_EQ(options.shard.lo, 2u);
  EXPECT_EQ(options.shard.hi, 6u);
  EXPECT_EQ(options.shard.span, 8u);
  // [total*lo/span, total*hi/span): the floor arithmetic that makes
  // tilings of the virtual span tile every real space.
  const auto [begin, end] = options.shard.range(10);
  EXPECT_EQ(begin, 2u);
  EXPECT_EQ(end, 7u);
  // The whole span is the unsharded run.
  EXPECT_TRUE(parse({"--cells=0..8/8"}).shard.whole());
}

TEST(SweepCliTest, CellsFlagValidatesItsShape) {
  EXPECT_THROW(parse({"--cells=5"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=5..4"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=0..9/8"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=-1..4"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=0..4/0"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=0..4x"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=..4"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=0../8"}), ContractViolation);
  // An empty range runs nothing and would not merge: rejected up front.
  EXPECT_THROW(parse({"--cells=3..3/8"}), ContractViolation);
  EXPECT_THROW(parse({"--cells=5..5"}), ContractViolation);
}

TEST(SweepCliTest, CliAndMergeShareOneRangeRule) {
  // The flag accepts exactly what ShardSpec::parse (the merge's parser
  // of a document's "shard" field) accepts, and a document's field
  // parses back to the range the flag asked for.
  for (const char* text :
       {"0..1/1", "3..4/8", "0..8/8", "1024..4096", "3..3/8", "5..4",
        "0..9/8", "+1..2/3", " 1..2/3", "1..2/3x", "1e0..2/3"}) {
    const std::optional<ShardSpec> spec = ShardSpec::parse(text);
    std::optional<ShardSpec> flag;
    try {
      flag = parse({std::string("--cells=") + text}).shard;
    } catch (const ContractViolation&) {
    }
    ASSERT_EQ(flag.has_value(), spec.has_value()) << text;
    if (!spec) continue;
    const std::optional<ShardSpec> field =
        ShardSpec::parse(flag->to_string());
    ASSERT_TRUE(field.has_value()) << text;
    EXPECT_EQ(field->to_string(), spec->to_string()) << text;
  }
}

TEST(SweepCliTest, OwnFlagsAreConsumedBeforeTheSharedParse) {
  std::vector<std::string> args = {"prog", "--mine=3", "--threads=2",
                                   "pos"};
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  std::vector<std::string> own;
  const RunnerOptions options = parse_cli_or_exit(
      static_cast<int>(argv.size()), argv.data(), "cli_test",
      [&](const std::string& arg) {
        if (arg.rfind("--threads=", 0) == 0) return false;
        own.push_back(arg);
        return true;
      });
  EXPECT_EQ(options.threads, 2);
  EXPECT_EQ(own, (std::vector<std::string>{"--mine=3", "pos"}));
}

TEST(SweepCliDeathTest, BadFlagsAreAUsageErrorNotAnAbort) {
  const auto run = [](std::vector<std::string> args) {
    std::vector<const char*> argv = {"prog"};
    for (const std::string& arg : args) argv.push_back(arg.c_str());
    parse_cli_or_exit(static_cast<int>(argv.size()), argv.data(),
                      "cli_test");
  };
  EXPECT_EXIT(run({"--no-such-flag"}), ::testing::ExitedWithCode(2),
              "cli_test: usage error: unrecognized argument "
              "'--no-such-flag'");
  EXPECT_EXIT(run({"--threads=x"}), ::testing::ExitedWithCode(2),
              "--threads=");
  EXPECT_EXIT(run({"--threads=-2"}), ::testing::ExitedWithCode(2),
              "--threads=: value '-2' is outside");
  // An own-flag handler's ContractViolation is a usage error too.
  std::vector<const char*> argv = {"prog", "--mine=x"};
  EXPECT_EXIT(parse_cli_or_exit(2, argv.data(), "cli_test",
                                [](const std::string& arg) {
                                  int value = 0;
                                  return consume_int_flag(arg, "--mine=",
                                                          &value);
                                }),
              ::testing::ExitedWithCode(2), "--mine=");
}

TEST(SweepCliTest, NegativeCountsAreRejected) {
  EXPECT_THROW(parse({"--threads=-1"}), ContractViolation);
  EXPECT_THROW(parse({"--repeat=0"}), ContractViolation);
}

TEST(SweepCliTest, ParseValueHelpersNameTheFlag) {
  try {
    parse_int_value("99999999999", "--workers=");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("--workers="),
              std::string::npos);
  }
  EXPECT_EQ(parse_int_value("12", "--workers="), 12);
  EXPECT_EQ(parse_long_value("-3", "--x="), -3);
}

}  // namespace
}  // namespace setlib::core
