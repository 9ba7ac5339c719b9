// perfbench: the end-to-end benchmark driver.
//
//   perfbench --workload serve_closed|sweep_adversaries|census
//             --seed N --seconds S --trace 0|1
//
// Prints a machine descriptor, one human-readable line per metric, and
// as the last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics; traced runs
// report the per-layer metrics (probes.h) and replay the workload.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "estimator.h"
#include "probes.h"
#include "src/sched/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace {

using namespace perfbench;

/// Fixed pool width: the same on every host with at least this many
/// cores, so the numbers of two hosts measure the same load.
constexpr int kPoolWidth = 2;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // drop the NUL padding
    const auto first = brand.find_first_not_of(' ');
    if (first != std::string::npos) return brand.substr(first);
  }
#endif
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_closed|sweep_adversaries|census --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

struct Args {
  std::string workload;
  RunOptions run;
};

Args parse(int argc, char** argv) {
  Args args;
  bool seen[4] = {};
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (a + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++a];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      seen[0] = true;
    } else if (flag == "--seed") {
      args.run.seed = std::strtoull(value.c_str(), &end, 10);
      seen[1] = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.run.seconds = std::strtod(value.c_str(), &end);
      seen[2] = *end == '\0' && args.run.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.run.trace = value == "1";
      seen[3] = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(seen[0] && seen[1] && seen[2] && seen[3])) {
    usage("--workload, --seed, --seconds and --trace are all required");
  }
  return args;
}

void print_metric(std::string& json, const std::string& name, double value,
                  const char* unit) {
  std::printf("  %-30s %.6g %s\n", name.c_str(), value, unit);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", name.c_str(), value, unit);
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
#ifdef __GLIBC__
  // Fix glibc's adaptive allocation policy: serve every request from the
  // heap and never return it. Otherwise a large buffer (such as an 8 MiB
  // arena reserve) lands on fresh, faulting pages or on reused ones
  // depending on the allocation history, and set-up and op times flip
  // between the two costs from run to run.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  RunOptions options = args.run;
  const int nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  options.width = std::min(kPoolWidth, nproc);

  RunResult result;
  try {
    if (args.workload == "serve_closed") {
      result = run_serve(options);
    } else if (args.workload == "sweep_adversaries") {
      result = run_sweep(options);
    } else if (args.workload == "census") {
      result = run_census(options);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("machine: nproc=%d cpu=\"%s\" build=%s simd=%s pool_width=%d\n",
              nproc, cpu_model().c_str(), PERFBENCH_BUILD_TYPE,
              setlib::sched::simd::active_kernels().name, options.width);
  std::printf("workload: %s seed=%llu seconds=%g trace=%d intervals=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, result.intervals.size());

  const FastEnd fast = fast_end(result.intervals, result.ops, result.rounds);
  const double error_rate =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::printf("  %-30s %.6g (%lld failed of %lld attempted)\n", "error_rate",
              error_rate, static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));

  std::string metrics;
  if (!options.trace) {
    print_metric(metrics, "setup_s", median(result.setup_s), "s");
    print_metric(metrics, "throughput_per_s", fast.throughput_per_s, "1/s");
    print_metric(metrics, "latency_p50_ms", fast.p50_s * 1e3, "ms");
    print_metric(metrics, "latency_p90_ms", fast.p90_s * 1e3, "ms");
    print_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = result.layers.find(m.name);
      print_metric(metrics, m.name, it == result.layers.end() ? 0.0 : it->second,
                   m.unit);
    }
  }
  if (!result.replay_ok || !result.detail.empty()) {
    std::printf("detail: %s\n", result.detail.c_str());
  }

  const bool correct = result.failed == 0 && result.replay_ok &&
                       result.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false", static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics.c_str());
  return 0;
}
