//===- exobench/Stats.h - The benchmark's own arithmetic ---------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pure functions the benchmark computes its metrics with: interpolated
/// percentiles, the rate-ladder rule behind max_rate_jobs_s, and span
/// self time. Header-only and free of library dependencies so that
/// selftest.cpp checks exactly the code the benchmark runs.
///
//===----------------------------------------------------------------------===//

#ifndef EXOBENCH_STATS_H
#define EXOBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace exobench {

/// The \p Q quantile (0..1) of \p Samples by linear interpolation between
/// order statistics (numpy's default "linear" method). 0 when empty.
inline double percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Pos = std::clamp(Q, 0.0, 1.0) * static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Samples[Lo] * (1.0 - Frac) + Samples[Hi] * Frac;
}

inline double median(const std::vector<double> &Samples) {
  return percentile(Samples, 0.5);
}

/// The smallest sample (best-of-N), 0 when empty.
inline double best(const std::vector<double> &Samples) {
  return Samples.empty() ? 0.0
                         : *std::min_element(Samples.begin(), Samples.end());
}

/// One rung of the open-loop rate ladder, as measured.
struct Rung {
  double RateJobsS = 0; ///< offered rate (absolute, fixed in the benchmark)
  double P99Ms = 0;     ///< p99 latency from the scheduled send time
  /// Median latency of the last tenth of the rung's jobs (by schedule):
  /// a queue that grows through the rung shows up here first.
  double TailP50Ms = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0; ///< rejected, failed, preempted or unanswered
};

/// True when a rung meets the latency limit without a growing backlog:
/// every job completed, p99 within the limit, and the jobs scheduled last
/// did not wait longer than the limit at the median.
inline bool rungPasses(const Rung &R, double LimitMs) {
  return R.Attempted > 0 && R.Failed == 0 && R.P99Ms <= LimitMs &&
         R.TailP50Ms <= LimitMs;
}

/// The highest offered rate whose rung passes, scanning rungs in rate
/// order and stopping at the first failure (a rung above a failing one
/// cannot count: the system was already saturated). 0 when none passes.
inline double maxPassingRate(std::vector<Rung> Rungs, double LimitMs) {
  std::sort(Rungs.begin(), Rungs.end(), [](const Rung &A, const Rung &B) {
    return A.RateJobsS < B.RateJobsS;
  });
  double Best = 0;
  for (const Rung &R : Rungs) {
    if (!rungPasses(R, LimitMs))
      break;
    Best = R.RateJobsS;
  }
  return Best;
}

/// One recorded host-clock span.
struct Span {
  std::string Name;
  double StartUs = 0, EndUs = 0;
  int Parent = -1;  ///< index of the enclosing span, -1 for a root
  uint64_t Job = 0; ///< the job / pass the span belongs to
  double durUs() const { return EndUs - StartUs; }
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the parent). Children may overlap —
/// only covered time is subtracted, once.
inline std::vector<double> selfTimesUs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Kids[S.Parent].push_back({S.StartUs, S.EndUs});
  std::vector<double> Self(Spans.size(), 0.0);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    double Covered = 0, CurLo = 0, CurHi = 0;
    bool Open = false;
    for (auto [Lo, Hi] : K) {
      Lo = std::max(Lo, P.StartUs);
      Hi = std::min(Hi, P.EndUs);
      if (Hi <= Lo)
        continue;
      if (Open && Lo <= CurHi) {
        CurHi = std::max(CurHi, Hi);
        continue;
      }
      if (Open)
        Covered += CurHi - CurLo;
      CurLo = Lo;
      CurHi = Hi;
      Open = true;
    }
    if (Open)
      Covered += CurHi - CurLo;
    Self[I] = std::max(0.0, P.durUs() - Covered);
  }
  return Self;
}

} // namespace exobench

#endif // EXOBENCH_STATS_H
