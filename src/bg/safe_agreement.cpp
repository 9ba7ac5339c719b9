#include "src/bg/safe_agreement.h"

#include <vector>

#include "src/util/assert.h"

namespace setlib::bg {

namespace {
// Cell encoding: word 0 = level (0, 1, 2); words 1.. = payload.
constexpr std::int64_t kLevelIdle = 0;
constexpr std::int64_t kLevelUnsafe = 1;
constexpr std::int64_t kLevelDone = 2;

shm::Value encode_cell(std::int64_t level, const shm::Value& payload) {
  std::vector<std::int64_t> w;
  w.reserve(1 + payload.size());
  w.push_back(level);
  for (std::size_t i = 0; i < payload.size(); ++i) w.push_back(payload.at(i));
  return shm::Value(std::move(w));
}

shm::Value decode_payload(const shm::Value& cell) {
  std::vector<std::int64_t> w;
  for (std::size_t i = 1; i < cell.size(); ++i) w.push_back(cell.at(i));
  return shm::Value(std::move(w));
}

std::int64_t level_of(const shm::Value& cell) {
  return cell.is_nil() ? kLevelIdle : cell.at(0);
}
}  // namespace

SafeAgreement::SafeAgreement(shm::SimMemory& mem, int participants,
                             const std::string& name)
    : m_(participants) {
  SETLIB_EXPECTS(participants >= 1 && participants <= kMaxProcs);
  cells_base_ = mem.alloc_array(name + ".cell", participants);
}

shm::RegisterId SafeAgreement::cell_reg(Pid i) const {
  SETLIB_EXPECTS(i >= 0 && i < m_);
  return cells_base_ + i;
}

shm::Prog SafeAgreement::propose(Pid i, shm::Value v) {
  // Eager validation; see KAntiOmega::run for why.
  SETLIB_EXPECTS(i >= 0 && i < m_);
  return propose_impl(i, std::move(v));
}

shm::Prog SafeAgreement::propose_impl(Pid i, shm::Value v) {

  // Enter the unsafe zone.
  co_await shm::write(cells_base_ + i, encode_cell(kLevelUnsafe, v));

  // Atomic snapshot by double collect. Each participant's cell changes
  // at most twice (idle->unsafe->done/idle), so two equal consecutive
  // collects are reached after at most O(m) retries.
  std::vector<shm::Value> snap(static_cast<std::size_t>(m_));
  std::vector<shm::Value> again(static_cast<std::size_t>(m_));
  for (Pid q = 0; q < m_; ++q) {
    snap[static_cast<std::size_t>(q)] = co_await shm::read(cells_base_ + q);
  }
  for (;;) {
    bool stable = true;
    for (Pid q = 0; q < m_; ++q) {
      again[static_cast<std::size_t>(q)] =
          co_await shm::read(cells_base_ + q);
      if (again[static_cast<std::size_t>(q)] !=
          snap[static_cast<std::size_t>(q)]) {
        stable = false;
      }
    }
    if (stable) break;
    snap.swap(again);
  }

  bool saw_done = false;
  for (Pid q = 0; q < m_; ++q) {
    if (level_of(snap[static_cast<std::size_t>(q)]) == kLevelDone) {
      saw_done = true;
    }
  }

  // Leave the unsafe zone: retreat if someone already advanced.
  const std::int64_t level = saw_done ? kLevelIdle : kLevelDone;
  co_await shm::write(cells_base_ + i, encode_cell(level, v));
}

shm::Prog SafeAgreement::try_resolve(Pid i, Outcome* out, bool* blocked) {
  // Eager validation; see KAntiOmega::run for why.
  SETLIB_EXPECTS(i >= 0 && i < m_);
  SETLIB_EXPECTS(out != nullptr && blocked != nullptr);
  return try_resolve_impl(i, out, blocked);
}

shm::Prog SafeAgreement::try_resolve_impl(Pid /*i*/, Outcome* out,
                                          bool* blocked) {
  *blocked = false;

  std::vector<shm::Value> snap(static_cast<std::size_t>(m_));
  std::vector<shm::Value> again(static_cast<std::size_t>(m_));
  for (Pid q = 0; q < m_; ++q) {
    snap[static_cast<std::size_t>(q)] = co_await shm::read(cells_base_ + q);
  }
  for (;;) {
    bool stable = true;
    for (Pid q = 0; q < m_; ++q) {
      again[static_cast<std::size_t>(q)] =
          co_await shm::read(cells_base_ + q);
      if (again[static_cast<std::size_t>(q)] !=
          snap[static_cast<std::size_t>(q)]) {
        stable = false;
      }
    }
    if (stable) break;
    snap.swap(again);
  }

  Pid winner = -1;
  for (Pid q = 0; q < m_; ++q) {
    const std::int64_t level = level_of(snap[static_cast<std::size_t>(q)]);
    if (level == kLevelUnsafe) {
      *blocked = true;
      co_return;
    }
    if (level == kLevelDone && winner < 0) winner = q;
  }
  if (winner < 0) {
    *blocked = true;  // nothing proposed yet
    co_return;
  }
  out->decided = true;
  out->value = decode_payload(snap[static_cast<std::size_t>(winner)]);
}

}  // namespace setlib::bg
