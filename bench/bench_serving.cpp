// EXP-SERVE — agreement-as-a-service, closed loop: a seeded LoadGen
// stream is admitted through the bounded queue, batched, and every
// batch is decided by one enforced-schedule MultiShotAgreement pass;
// all aggregate stats (latency percentiles, admission counts,
// decisions) are virtual-tick facts, bit-identical at any --threads
// and across --cells=LO..HI unions.
//
// Serving flags (stripped before the shared runner flags):
//   --requests=N    request stream length (default 1e6)
//   --batch=B       max requests per agreement batch
//   --queue-cap=N   bounded admission queue depth
//
// Deterministic facts print on "EXP-SERVE:" lines; wall-clock facts
// are isolated on lines starting "wall:" so determinism diffs can
// `grep -v '^wall'`.
#include <iostream>
#include <string>

#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/core/service.h"
#include "src/core/sweep_cli.h"

namespace {

using namespace setlib;

core::ServiceConfig g_config;  // NOLINT: CLI-configured before main runs

void strip_serving_flags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    long requests = 0;
    int batch = 0;
    long queue_cap = 0;
    if (core::consume_long_flag(arg, "--requests=", &requests)) {
      g_config.requests = requests;
      continue;
    }
    if (core::consume_int_flag(arg, "--batch=", &batch)) {
      g_config.batch = batch;
      continue;
    }
    if (core::consume_long_flag(arg, "--queue-cap=", &queue_cap)) {
      g_config.queue_cap = queue_cap;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
}

void run_serving(core::ExperimentRunner& runner, core::JsonSink& json) {
  const core::ServiceHarness harness(g_config);
  const core::ClosedLoopReport report =
      harness.run_closed_loop(runner, {}, &json);
  const core::AdmissionPlan& plan = report.plan;

  std::cout << "EXP-SERVE: closed loop requests=" << plan.offered
            << " accepted=" << plan.accepted << " shed=" << plan.shed
            << " batches=" << plan.batches.size()
            << " batch_max=" << g_config.batch
            << " queue_cap=" << g_config.queue_cap << "\n";
  std::cout << "EXP-SERVE: latency_ticks p50=" << plan.slo.p50
            << " p99=" << plan.slo.p99 << " p999=" << plan.slo.p999
            << " max=" << plan.slo.max
            << " queue_depth_max=" << plan.queue_depth_max << "\n";
  std::cout << "EXP-SERVE: slo threshold_ticks="
            << g_config.slo_latency_ticks
            << " target=" << g_config.slo_target
            << " violations=" << plan.slo.violations
            << " error_budget_burn=" << plan.slo.error_budget_burn
            << "\n";
  std::cout << "EXP-SERVE: shard=" << runner.options().shard.to_string()
            << " shard_batches=" << report.batches_run
            << " shard_requests=" << report.shard_requests
            << " decided_ok=" << report.shard_decided_ok << "\n";
  std::cout << "wall: closed loop seconds=" << report.section.wall_seconds
            << " batches_per_sec=" << report.section.runs_per_second()
            << " threads=" << runner.pool().threads() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  strip_serving_flags(&argc, argv);
  const auto options =
      setlib::core::parse_runner_options(argc, argv, "serving");
  setlib::core::ExperimentRunner runner(options);
  setlib::core::JsonSink json = runner.json_sink();
  run_serving(runner, json);
  json.write_if_requested();
  return 0;
}
