#include "src/util/procset.h"

#include <bit>
#include <limits>
#include <ostream>
#include <sstream>

namespace setlib {

namespace {

// C(i, j) for 0 <= i, j <= kMaxProcs by Pascal's rule (0 for j > i).
// The largest entry, C(63, 31), is below 2^60.
struct BinomialTable {
  std::int64_t c[kMaxProcs + 1][kMaxProcs + 1] = {};
};

constexpr BinomialTable make_binomial_table() {
  BinomialTable t;
  for (int i = 0; i <= kMaxProcs; ++i) {
    t.c[i][0] = 1;
    for (int j = 1; j <= i; ++j) {
      t.c[i][j] = t.c[i - 1][j - 1] + (j < i ? t.c[i - 1][j] : 0);
    }
  }
  return t;
}

constexpr BinomialTable kChoose = make_binomial_table();

}  // namespace

ProcSet ProcSet::universe(int n) {
  SETLIB_EXPECTS(n >= 0 && n <= kMaxProcs);
  if (n == 0) return ProcSet();
  return ProcSet((std::uint64_t{1} << n) - 1);
}

ProcSet ProcSet::of(Pid p) {
  SETLIB_EXPECTS(p >= 0 && p < kMaxProcs);
  return ProcSet(std::uint64_t{1} << p);
}

ProcSet ProcSet::of(std::initializer_list<Pid> pids) {
  ProcSet s;
  for (Pid p : pids) s = s.with(p);
  return s;
}

ProcSet ProcSet::from(const std::vector<Pid>& pids) {
  ProcSet s;
  for (Pid p : pids) s = s.with(p);
  return s;
}

ProcSet ProcSet::range(Pid lo, Pid hi) {
  SETLIB_EXPECTS(0 <= lo && lo <= hi && hi <= kMaxProcs);
  ProcSet s;
  for (Pid p = lo; p < hi; ++p) s = s.with(p);
  return s;
}

Pid ProcSet::min() const {
  SETLIB_EXPECTS(!empty());
  return std::countr_zero(mask_);
}

Pid ProcSet::max() const {
  SETLIB_EXPECTS(!empty());
  return 63 - std::countl_zero(mask_);
}

std::vector<Pid> ProcSet::to_vector() const {
  std::vector<Pid> out;
  out.reserve(static_cast<std::size_t>(size()));
  for (std::uint64_t m = mask_; m != 0; m &= m - 1) {
    out.push_back(std::countr_zero(m));
  }
  return out;
}

ProcSet ProcSet::complement(int n) const {
  return ProcSet::universe(n) - *this;
}

std::string ProcSet::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, ProcSet s) {
  os << '{';
  bool first = true;
  for (Pid p : s.to_vector()) {
    if (!first) os << ',';
    os << p;
    first = false;
  }
  return os << '}';
}

std::int64_t binomial(int n, int k) {
  SETLIB_EXPECTS(n >= 0 && k >= 0);
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  // The multiplicative formula, independent of SubsetRanker's table.
  // Each step is exact (result * (n-k+i) is divisible by i) and the
  // product is formed in 128 bits, so every C(n, k) that fits in int64
  // comes out, C(63, 31) included.
  using Wide = unsigned __int128;
  std::int64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    const Wide next = Wide(static_cast<std::uint64_t>(result)) *
                      static_cast<std::uint64_t>(n - k + i) /
                      static_cast<std::uint64_t>(i);
    SETLIB_ASSERT(next <= Wide(std::numeric_limits<std::int64_t>::max()));
    result = static_cast<std::int64_t>(next);
  }
  return result;
}

std::vector<ProcSet> k_subsets(int n, int k) {
  SETLIB_EXPECTS(n >= 0 && n <= kMaxProcs);
  SETLIB_EXPECTS(k >= 0 && k <= n);
  const std::int64_t count = kChoose.c[n][k];
  std::vector<ProcSet> out;
  out.reserve(static_cast<std::size_t>(count));
  ProcSet s = ProcSet::range(0, k);  // rank 0
  for (std::int64_t r = 0; r < count; ++r) {
    out.push_back(s);
    if (k > 0) s = next_colex(s);
  }
  return out;
}

SubsetRanker::SubsetRanker(int n, int k) : n_(n), k_(k) {
  SETLIB_EXPECTS(n >= 0 && n <= kMaxProcs);
  SETLIB_EXPECTS(k >= 0 && k <= n);
  count_ = kChoose.c[n][k];
}

std::int64_t SubsetRanker::rank(ProcSet s) const {
  SETLIB_EXPECTS(s.size() == k_);
  SETLIB_EXPECTS(s.subset_of(ProcSet::universe(n_)));
  // Combinatorial number system: rank = sum over elements c_1<...<c_k of
  // C(c_i, i).
  std::int64_t r = 0;
  int i = 1;
  s.for_each([&](Pid p) { r += kChoose.c[p][i++]; });
  return r;
}

ProcSet SubsetRanker::unrank(std::int64_t r) const {
  SETLIB_EXPECTS(r >= 0 && r < count_);
  ProcSet s;
  std::int64_t rem = r;
  for (int i = k_; i >= 1; --i) {
    // Largest c with C(c, i) <= rem.
    int c = i - 1;
    while (c + 1 <= n_ - 1 && kChoose.c[c + 1][i] <= rem) ++c;
    s = s.with(c);
    rem -= kChoose.c[c][i];
  }
  SETLIB_ENSURES(s.size() == k_);
  return s;
}

}  // namespace setlib
