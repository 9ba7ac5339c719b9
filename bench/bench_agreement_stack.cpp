// EXP-SUB2 — agreement-stack microbenchmarks: commit-adopt, safe
// agreement, Paxos (solo-leader decision latency in steps and in
// time), and the trivial algorithm. A full-stack SweepGrid section
// (spec × family × --repeat seeds) runs through the persistent
// core::ExperimentRunner.
#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "src/agreement/commit_adopt.h"
#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/core/sweep_cli.h"
#include "src/agreement/multishot.h"
#include "src/agreement/paxos.h"
#include "src/agreement/trivial.h"
#include "src/fd/kantiomega.h"
#include "src/bg/safe_agreement.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"

namespace {

using namespace setlib;

void BM_CommitAdoptRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    shm::SimMemory mem;
    agreement::CommitAdopt ca(mem, n, "ca");
    shm::Simulator sim(mem, n);
    std::vector<agreement::CommitAdopt::Outcome> outs(n);
    for (Pid p = 0; p < n; ++p) {
      sim.process(p).add_task(ca.propose(p, p % 2, &outs[p]), "ca");
    }
    sched::RoundRobinGenerator gen(n);
    sim.run(gen, n * (2 + 2 * n));
    benchmark::DoNotOptimize(outs[0].done);
  }
}
BENCHMARK(BM_CommitAdoptRound)->Arg(3)->Arg(8)->Arg(16);

void BM_PaxosSoloDecision(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    shm::SimMemory mem;
    agreement::PaxosConsensus paxos(mem, n, "px");
    shm::Simulator sim(mem, n);
    std::vector<agreement::PaxosConsensus::Status> statuses(n);
    for (Pid p = 0; p < n; ++p) {
      sim.process(p).add_task(
          paxos.run(p, 100 + p, [](Pid) { return 0; }, &statuses[p]),
          "px");
    }
    sched::RoundRobinGenerator gen(n);
    sim.run_until(gen, 100'000, [&] {
      for (const auto& s : statuses) {
        if (!s.decided) return false;
      }
      return true;
    });
    benchmark::DoNotOptimize(statuses[0].value);
  }
}
BENCHMARK(BM_PaxosSoloDecision)->Arg(3)->Arg(8)->Arg(16);

void BM_PaxosContendedDecision(benchmark::State& state) {
  // All processes believe themselves leader: dueling ballots under a
  // fair random schedule until the first decision propagates.
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 7;
  for (auto _ : state) {
    shm::SimMemory mem;
    agreement::PaxosConsensus paxos(mem, n, "px");
    shm::Simulator sim(mem, n);
    std::vector<agreement::PaxosConsensus::Status> statuses(n);
    for (Pid p = 0; p < n; ++p) {
      sim.process(p).add_task(
          paxos.run(p, 100 + p, [](Pid self) { return self; },
                    &statuses[p]),
          "px");
    }
    sched::UniformRandomGenerator gen(n, ++seed);
    sim.run_until(gen, 3'000'000, [&] {
      for (const auto& s : statuses) {
        if (s.decided) return true;
      }
      return false;
    });
    benchmark::DoNotOptimize(statuses[0].ballots_started);
  }
}
BENCHMARK(BM_PaxosContendedDecision)->Arg(2)->Arg(4)->Unit(
    benchmark::kMicrosecond);

void BM_SafeAgreementRound(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    shm::SimMemory mem;
    bg::SafeAgreement sa(mem, m, "sa");
    shm::Simulator sim(mem, m);
    std::vector<bg::SafeAgreement::Outcome> outs(m);
    std::vector<char> done(m, 0);
    for (Pid i = 0; i < m; ++i) {
      auto task = [](bg::SafeAgreement* obj, Pid me,
                     bg::SafeAgreement::Outcome* out,
                     char* flag) -> shm::Prog {
        co_await obj->propose(me, shm::Value::of(me));
        for (;;) {
          bool blocked = false;
          co_await obj->try_resolve(me, out, &blocked);
          if (out->decided) {
            *flag = 1;
            co_return;
          }
        }
      };
      sim.process(i).add_task(task(&sa, i, &outs[i], &done[i]), "sa");
    }
    sched::RoundRobinGenerator gen(m);
    sim.run_until(gen, 100'000, [&] {
      for (const char f : done) {
        if (!f) return false;
      }
      return true;
    });
    benchmark::DoNotOptimize(outs[0].decided);
  }
}
BENCHMARK(BM_SafeAgreementRound)->Arg(2)->Arg(4)->Arg(8);

void BM_MultiShotLogThroughput(benchmark::State& state) {
  // Slots decided per second through the full detector + multi-Paxos
  // stack (k = 1 replicated log).
  const int n = 4, k = 1, t = 2;
  const int slots = static_cast<int>(state.range(0));
  for (auto _ : state) {
    shm::SimMemory mem;
    fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{n, k, t, 1});
    agreement::MultiShotAgreement log(
        mem, agreement::MultiShotAgreement::Params{n, k, t, slots},
        &detector);
    shm::Simulator sim(mem, n);
    for (Pid p = 0; p < n; ++p) {
      sim.process(p).add_task(detector.run(p), "fd");
      std::vector<std::int64_t> commands(static_cast<std::size_t>(slots),
                                         100 + p);
      log.install(sim.process(p), p, std::move(commands));
    }
    sched::RoundRobinGenerator gen(n);
    sim.run_until(gen, 20'000'000,
                  [&] { return log.all_decided(ProcSet::universe(n)); });
    benchmark::DoNotOptimize(log.decided_prefix(0));
  }
  state.SetItemsProcessed(state.iterations() * slots);
}
BENCHMARK(BM_MultiShotLogThroughput)->Arg(4)->Arg(16)->Arg(64)->Unit(
    benchmark::kMillisecond);

void BM_TrivialAgreement(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = n / 3;
  for (auto _ : state) {
    shm::SimMemory mem;
    agreement::TrivialAgreement algo(mem, n, t);
    shm::Simulator sim(mem, n);
    std::vector<agreement::TrivialAgreement::Outcome> outs(n);
    for (Pid p = 0; p < n; ++p) {
      sim.process(p).add_task(algo.run(p, 100 + p, &outs[p]), "trivial");
    }
    sched::RoundRobinGenerator gen(n);
    sim.run_until(gen, 200'000, [&] {
      for (const auto& o : outs) {
        if (!o.decided) return false;
      }
      return true;
    });
    benchmark::DoNotOptimize(outs[0].value);
  }
}
BENCHMARK(BM_TrivialAgreement)->Arg(3)->Arg(9)->Arg(18);

void print_stack_sweep(core::ExperimentRunner& runner,
                       core::JsonSink& json) {
  // EXP-SUB2b: the whole detector + Paxos stack as a SweepGrid — specs
  // × both frontier families × `--repeat` index-derived seeds.
  core::SweepGrid grid;
  grid.add_spec({2, 2, 5})
      .add_spec({3, 2, 5})
      .add_family(core::ScheduleFamily::kEnforcedRandom)
      .add_family(core::ScheduleFamily::kRotisserie)
      .repeats(runner.options().repeat)
      .base_seed(7);
  core::RunConfig proto;
  proto.max_steps = 900'000;
  proto.run_full_budget = false;
  grid.prototype(proto);

  core::TableSink table;
  core::AggregateSink agg;
  runner.run(grid, "stack_sweep", {&table, &agg, &json});
  std::cout << "EXP-SUB2b: full-stack sweep (repeat="
            << runner.options().repeat
            << ", threads=" << runner.pool().threads() << ", "
            << agg.aggregate().cells << " cells, "
            << agg.aggregate().runs_per_second() << " runs/sec)\n"
            << table.render() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      setlib::core::parse_runner_options(&argc, argv, "agreement_stack");
  setlib::core::ExperimentRunner runner(options);
  setlib::core::JsonSink json = runner.json_sink();
  print_stack_sweep(runner, json);
  json.write_if_requested();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
