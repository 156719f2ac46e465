//===- exobench/Bench.h - Shared driver types --------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the workload runners share: the command-line options, the metric
/// sink, and the in-memory host-clock span recorder used by traced runs.
/// Spans are recorded from the benchmark's own files, around calls into
/// each layer's public API; nothing is attached inside the program.
///
//===----------------------------------------------------------------------===//

#ifndef EXOBENCH_BENCH_H
#define EXOBENCH_BENCH_H

#include "Stats.h"

#include <chrono>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>
#include <vector>

namespace exobench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// The table2 batch in dispatch order: the ten Table 2 kernels in paper
/// order, then the benchmark-defined `skew` kernel. Per-layer metric
/// names are built from this list.
inline constexpr const char *Table2Kernels[] = {
    "LinearFilter", "SepiaTone", "FGT",   "Bicubic", "Kalman", "FMD",
    "AlphaBlend",   "BOB",       "ADVDI", "ProcAmp", "skew"};
inline constexpr unsigned NumTable2Kernels = std::size(Table2Kernels);

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny inputs and one pass: exercises every code path and check in a
  /// second or two (the ctest smoke runs). Metrics are not comparable.
  bool Smoke = false;
  std::string TracePath; ///< Chrome trace output (traced runs only)
};

/// Ordered name -> (value, unit) list of reported metrics.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    for (Entry &E : Items)
      if (E.Name == Name) {
        E.Value = Value;
        E.Unit = Unit;
        return;
      }
    Items.push_back({Name, Value, Unit});
  }
  struct Entry {
    std::string Name;
    double Value = 0;
    std::string Unit;
  };
  const std::vector<Entry> &items() const { return Items; }

private:
  std::vector<Entry> Items;
};

/// In-memory span recorder. Disabled (untraced runs) it costs one branch
/// per scope. Thread-safe: the serving workloads record from several
/// generator threads; parents are tracked per thread.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled), T0(Clock::now()) {}

  bool enabled() const { return Enabled; }

  /// Opens a span; returns its index (-1 when disabled).
  int open(std::string Name, uint64_t Job) {
    if (!Enabled)
      return -1;
    double Now = nowUs();
    std::lock_guard<std::mutex> L(Mu);
    int Idx = static_cast<int>(Spans.size());
    Span S;
    S.Name = std::move(Name);
    S.StartUs = Now;
    S.EndUs = Now;
    S.Parent = Stack().empty() ? -1 : Stack().back();
    S.Job = Job;
    Spans.push_back(std::move(S));
    Tids.push_back(threadTag());
    Stack().push_back(Idx);
    return Idx;
  }

  void close(int Idx) {
    if (Idx < 0)
      return;
    double Now = nowUs();
    std::lock_guard<std::mutex> L(Mu);
    Spans[Idx].EndUs = Now;
    if (!Stack().empty() && Stack().back() == Idx)
      Stack().pop_back();
  }

  /// Records a finished interval measured elsewhere (e.g. a job's
  /// submit-to-Result latency, timed across two threads).
  void record(std::string Name, Clock::time_point Start, Clock::time_point End,
              uint64_t Job) {
    if (!Enabled)
      return;
    std::lock_guard<std::mutex> L(Mu);
    Span S;
    S.Name = std::move(Name);
    S.StartUs = usOf(Start);
    S.EndUs = usOf(End);
    S.Job = Job;
    Spans.push_back(std::move(S));
    Tids.push_back(threadTag());
  }

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> L(Mu);
    return Spans;
  }

  /// Writes every span as a Chrome trace: one "host" process (the host
  /// wall-clock domain), one track per recording thread.
  bool writeChromeTrace(const std::string &Path) const;

private:
  static std::vector<int> &Stack() {
    thread_local std::vector<int> S;
    return S;
  }
  static unsigned threadTag();
  double usOf(Clock::time_point T) const {
    return std::chrono::duration<double, std::micro>(T - T0).count();
  }
  double nowUs() const { return usOf(Clock::now()); }

  bool Enabled;
  Clock::time_point T0;
  mutable std::mutex Mu; ///< guards Spans and Tids
  std::vector<Span> Spans;
  std::vector<unsigned> Tids;
};

/// RAII span around one call.
class Scope {
public:
  Scope(Tracer &T, std::string Name, uint64_t Job = 0)
      : T(T), Idx(T.open(std::move(Name), Job)) {}
  ~Scope() { T.close(Idx); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int Idx;
};

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// Returns freed heap pages to the OS. Called after every repetition so
/// that peak_rss_mb measures one repetition's footprint, not allocator
/// fragmentation that grows with how many repetitions fit in --seconds.
void releaseFreedMemory();

/// FNV-1a over \p N bytes, continuing from \p H.
inline uint64_t fnv1a(const void *Data, size_t N,
                      uint64_t H = 1469598103934665603ull) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t K = 0; K < N; ++K) {
    H ^= P[K];
    H *= 1099511628211ull;
  }
  return H;
}

/// Result of one workload run. A non-empty Error fails the correctness
/// gate: the driver exits non-zero and reports no metrics.
struct RunResult {
  Metrics EndToEnd;
  Metrics PerLayer;
  /// Context printed with the human-readable table only (sample counts,
  /// pass counts), never part of the JSON result.
  Metrics Info;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string Error;
};

RunResult runTable2(const Options &O, unsigned Devices, Tracer &T);
RunResult runServeOpen(const Options &O, Tracer &T);
RunResult runServeFaults(const Options &O, Tracer &T);

} // namespace exobench

#endif // EXOBENCH_BENCH_H
