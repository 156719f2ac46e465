//===- exobench/selftest.cpp - Checks of the benchmark's own arithmetic ------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Percentile interpolation, the rate-ladder rule behind max_rate_jobs_s,
// and span self time. Exits 1 on the first failed check.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <cmath>
#include <cstdio>

using namespace exobench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

void percentiles() {
  check(percentile({}, 0.5) == 0.0, "empty sample set gives 0");
  check(percentile({7}, 0.99) == 7.0, "one sample is every percentile");
  // Linear interpolation between order statistics, input order ignored.
  std::vector<double> V = {4, 1, 3, 2};
  check(near(percentile(V, 0.5), 2.5), "median of 1..4 is 2.5");
  check(near(percentile(V, 0.0), 1.0), "p0 is the minimum");
  check(near(percentile(V, 1.0), 4.0), "p100 is the maximum");
  check(near(percentile(V, 0.25), 1.75), "p25 of 1..4 is 1.75");
  std::vector<double> H;
  for (int K = 1; K <= 101; ++K)
    H.push_back(K);
  check(near(percentile(H, 0.99), 100.0), "p99 of 1..101 is 100");
  check(near(median({5, 1, 9}), 5.0), "odd-length median");
  check(best({}) == 0.0 && best({3, 1, 2}) == 1.0, "best-of-N is the minimum");
}

Rung rung(double Rate, double P99, double TailP50, uint64_t Failed = 0) {
  Rung R;
  R.RateJobsS = Rate;
  R.P99Ms = P99;
  R.TailP50Ms = TailP50;
  R.Attempted = 100;
  R.Failed = Failed;
  return R;
}

void ladder() {
  const double Limit = 10;
  check(maxPassingRate({}, Limit) == 0, "no rungs, no rate");
  check(maxPassingRate({rung(100, 1, 1), rung(200, 2, 1), rung(400, 30, 20)},
                       Limit) == 200,
        "highest rung within the p99 limit");
  check(maxPassingRate({rung(400, 30, 20), rung(100, 1, 1), rung(200, 2, 1)},
                       Limit) == 200,
        "rungs are scanned in rate order");
  check(maxPassingRate({rung(100, 1, 1), rung(200, 9, 11), rung(400, 1, 1)},
                       Limit) == 100,
        "a growing backlog fails the rung, and rungs above it do not count");
  check(maxPassingRate({rung(100, 1, 1), rung(200, 1, 1, 1)}, Limit) == 100,
        "a failed job fails the rung");
  check(maxPassingRate({rung(100, 10, 10)}, Limit) == 100,
        "the limit itself passes");
  check(maxPassingRate({rung(100, 11, 1)}, Limit) == 0, "nothing passes");
}

Span span(const char *Name, double S, double E, int Parent) {
  Span X;
  X.Name = Name;
  X.StartUs = S;
  X.EndUs = E;
  X.Parent = Parent;
  return X;
}

void selfTime() {
  // root [0,100) with children [10,30) and [20,50) (overlapping) and a
  // grandchild [12,18) under the first child.
  std::vector<Span> S = {span("root", 0, 100, -1), span("a", 10, 30, 0),
                         span("b", 20, 50, 0), span("c", 12, 18, 1),
                         span("other", 0, 5, -1)};
  std::vector<double> Self = selfTimesUs(S);
  check(near(Self[0], 60), "parent minus the union of its children");
  check(near(Self[1], 14), "child minus its own child");
  check(near(Self[2], 30), "overlap is subtracted once, from the parent");
  check(near(Self[3], 6), "a leaf's self time is its duration");
  check(near(Self[4], 5), "a root without children");
  double Sum = 0;
  for (size_t I = 0; I < 4; ++I)
    Sum += Self[I];
  check(Sum >= 100.0, "self times of a tree cover the root");
  // A child sticking out of its parent is clipped.
  std::vector<Span> C = {span("p", 0, 10, -1), span("k", 5, 20, 0)};
  check(near(selfTimesUs(C)[0], 5), "children are clipped to the parent");
}

} // namespace

int main() {
  percentiles();
  ladder();
  selfTime();
  if (Failures) {
    std::fprintf(stderr, "exobench_selftest: %d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("exobench_selftest: all checks passed\n");
  return 0;
}
