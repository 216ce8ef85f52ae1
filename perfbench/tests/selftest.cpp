// Self-test of the harness arithmetic: the tail rule, span self time and the
// derived per-layer figures.  Exits non-zero on the first failed check.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // descending: order must not matter
  return v;
}

using perfbench::SpanInterval;

void test_median() {
  EXPECT(std::isnan(perfbench::median(std::vector<double>{})));
  EXPECT(perfbench::median(std::vector<double>{3, 1, 2}) == 2);
  EXPECT(perfbench::median(std::vector<double>{4, 1, 3, 2}) == 2.5);
  EXPECT(perfbench::median(std::vector<float>{7}) == 7);
}

void test_tail_rule() {
  // p90 of 1..100 is 90 with exactly 10 samples above it.
  EXPECT(perfbench::tail_percentile(iota(100), 0.90) == 90.0);
  // 99 samples: rank 89 has only 9 above it, so no p90.
  EXPECT(!perfbench::tail_percentile(iota(99), 0.90).has_value());
  // p99 needs 1000 samples.
  EXPECT(perfbench::tail_percentile(iota(1000), 0.99) == 990.0);
  EXPECT(!perfbench::tail_percentile(iota(999), 0.99).has_value());
  // A median-like quantile of a small set is fine once 10 lie beyond it.
  EXPECT(perfbench::tail_percentile(iota(20), 0.5) == 10.0);
  EXPECT(!perfbench::tail_percentile(iota(19), 0.5).has_value());
  EXPECT(!perfbench::tail_percentile(std::vector<double>{}, 0.9).has_value());
  EXPECT(!perfbench::tail_percentile(iota(100), 1.0).has_value());
}

void test_self_time() {
  // root [0,100] has children a [10,30] and b [20,50] (overlapping, e.g.
  // two threads) and c [90,120] (runs past the parent: clipped to 10);
  // a has a child [15,20].  Union of the root's children: [10,50] + [90,100].
  const std::vector<SpanInterval> spans = {
      {1, 0, 0, 100}, {2, 1, 10, 30}, {3, 1, 20, 50},
      {4, 1, 90, 120}, {5, 2, 15, 20}, {6, 99, 0, 5},  // 6: parent unknown
  };
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 5);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 5);
  EXPECT(self[5] == 5);
  // Children listed before their parent and out of start order.
  const std::vector<SpanInterval> shuffled = {
      {8, 7, 60, 70}, {9, 7, 0, 10}, {7, 0, 0, 100}};
  const std::vector<std::int64_t> s2 = perfbench::self_times_ns(shuffled);
  EXPECT(s2[2] == 80 && s2[0] == 10 && s2[1] == 10);
  // A sibling nested inside an earlier one adds nothing to the union.
  const std::vector<SpanInterval> nested = {
      {1, 0, 0, 100}, {2, 1, 10, 50}, {3, 1, 20, 30}};
  EXPECT(perfbench::self_times_ns(nested)[0] == 60);
}

void test_derived() {
  EXPECT(near(perfbench::unattributed_ms(1100, 450, 300), 350));
  EXPECT(near(perfbench::write_self_ms(126, 39, 46, 22), 19));
  EXPECT(near(perfbench::speedup(3000, 1500), 2));
  EXPECT(near(perfbench::scaling(2700, 1800), 1.5));
  EXPECT(std::isnan(perfbench::speedup(3000, 0)));
  EXPECT(near(perfbench::busy_ratio(6, 2, 4), 0.75));
  EXPECT(near(perfbench::overhead_pct(103, 100), 3));
  EXPECT(std::isnan(perfbench::overhead_pct(1, 0)));
}

}  // namespace

int main() {
  test_median();
  test_tail_rule();
  test_self_time();
  test_derived();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
