#include "src/agreement/multishot.h"

#include <algorithm>
#include <array>

#include "src/util/assert.h"

namespace setlib::agreement {

MultiShotAgreement::MultiShotAgreement(shm::IMemory& mem, Params params,
                                       const fd::KAntiOmega* detector)
    : params_(params), detector_(detector) {
  SETLIB_EXPECTS(params.n >= 2 && params.n <= kMaxProcs);
  SETLIB_EXPECTS(params.k >= 1 && params.k <= params.n - 1);
  SETLIB_EXPECTS(params.t >= 1 && params.t <= params.n - 1);
  SETLIB_EXPECTS(params.slots >= 1);
  SETLIB_EXPECTS(detector != nullptr);
  SETLIB_EXPECTS(detector->params().n == params.n);
  SETLIB_EXPECTS(detector->params().k == params.k);
  instances_.reserve(static_cast<std::size_t>(params.slots) *
                     static_cast<std::size_t>(params.k));
  for (int s = 0; s < params.slots; ++s) {
    for (int m = 0; m < params.k; ++m) {
      instances_.emplace_back(mem, params.n,
                              shm::RegisterName("ms.slot", s, ".inst", m));
    }
  }
  log_.assign(static_cast<std::size_t>(params.n) *
                  static_cast<std::size_t>(params.slots),
              std::nullopt);
}

PaxosConsensus& MultiShotAgreement::instance(int slot, int m) {
  SETLIB_EXPECTS(slot >= 0 && slot < params_.slots);
  SETLIB_EXPECTS(m >= 0 && m < params_.k);
  return instances_[static_cast<std::size_t>(slot) *
                        static_cast<std::size_t>(params_.k) +
                    static_cast<std::size_t>(m)];
}

void MultiShotAgreement::install(shm::ProcessRuntime& proc, Pid p,
                                 std::vector<std::int64_t> commands) {
  SETLIB_EXPECTS(p >= 0 && p < params_.n);
  SETLIB_EXPECTS(proc.pid() == p);
  SETLIB_EXPECTS(commands.size() ==
                 static_cast<std::size_t>(params_.slots));
  proc.add_task(driver(p, std::move(commands)), "multishot");
}

shm::Prog MultiShotAgreement::driver(Pid p,
                                     std::vector<std::int64_t> commands) {
  const int k = params_.k;
  // Per-slot race state, reset (not reallocated) at each slot.
  std::vector<PaxosConsensus::Status> statuses(static_cast<std::size_t>(k));
  std::vector<shm::Prog> kids;
  kids.reserve(static_cast<std::size_t>(k));
  for (int slot = 0; slot < params_.slots; ++slot) {
    // The slot's k instance programs race round-robin, one register
    // operation each per step, so a stalled instance (crashed leader)
    // cannot block the others. An instance finishes exactly when it
    // decides locally.
    kids.clear();
    for (int m = 0; m < k; ++m) {
      auto leader = [this, m](Pid self) -> Pid {
        const ProcSet ws = detector_->view(self).winnerset;
        SETLIB_ASSERT(ws.size() == params_.k);
        return ws.nth(m);
      };
      statuses[static_cast<std::size_t>(m)] = PaxosConsensus::Status{};
      kids.push_back(instance(slot, m).run(
          p, commands[static_cast<std::size_t>(slot)], leader,
          &statuses[static_cast<std::size_t>(m)]));
    }
    const std::size_t won = co_await shm::first_of(kids);
    SETLIB_ASSERT(statuses[won].decided);
    log_[static_cast<std::size_t>(p) *
             static_cast<std::size_t>(params_.slots) +
         static_cast<std::size_t>(slot)] = statuses[won].value;
  }
}

std::optional<std::int64_t> MultiShotAgreement::log_at(Pid p,
                                                       int slot) const {
  SETLIB_EXPECTS(p >= 0 && p < params_.n);
  SETLIB_EXPECTS(slot >= 0 && slot < params_.slots);
  return log_[static_cast<std::size_t>(p) *
                  static_cast<std::size_t>(params_.slots) +
              static_cast<std::size_t>(slot)];
}

int MultiShotAgreement::decided_prefix(Pid p) const {
  int count = 0;
  while (count < params_.slots && log_at(p, count).has_value()) ++count;
  return count;
}

bool MultiShotAgreement::all_decided(ProcSet who) const {
  bool all = true;
  who.for_each([&](Pid p) {
    all = all && decided_prefix(p) == params_.slots;
  });
  return all;
}

std::vector<std::int64_t> MultiShotAgreement::slot_values(
    int slot, ProcSet who) const {
  std::vector<std::int64_t> values;
  who.for_each([&](Pid p) {
    const auto v = log_at(p, slot);
    if (v.has_value()) values.push_back(*v);
  });
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

MultiShotAgreement::SlotTally MultiShotAgreement::slot_tally(
    int slot, ProcSet who) const {
  SlotTally tally;
  std::array<std::int64_t, kMaxProcs> seen{};  // [0, tally.distinct)
  who.for_each([&](Pid p) {
    const auto v = log_at(p, slot);
    const auto end = seen.begin() + tally.distinct;
    if (!v.has_value() || std::find(seen.begin(), end, *v) != end) return;
    seen[static_cast<std::size_t>(tally.distinct++)] = *v;
    if (tally.distinct == 1 || *v < tally.smallest) tally.smallest = *v;
  });
  return tally;
}

}  // namespace setlib::agreement
