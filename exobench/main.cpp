//===- exobench/main.cpp - ExoBench driver -----------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
//   exobench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--trace-out PATH]
//
// Runs one workload (table2-1dev, table2-4dev, serve-open, serve-faults),
// checks its outputs, prints a human-readable table of every metric to
// stderr and, as the last line of stdout, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics (from a traced run that also writes a Chrome trace of its
// host-clock spans). A failed correctness check exits 1 and prints no
// result; bad arguments exit 2.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <malloc.h>
#include <sys/resource.h>
#include <thread>

namespace exobench {

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

void releaseFreedMemory() { malloc_trim(0); }

unsigned Tracer::threadTag() {
  return static_cast<unsigned>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff);
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(Mu);
  std::fprintf(F, "{\"traceEvents\": [\n"
                  "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
                  "\"args\": {\"name\": \"host (wall clock)\"}}");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 ",\n  {\"name\": \"%s\", \"cat\": \"host\", \"ph\": \"X\", "
                 "\"pid\": 0, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"job\": %llu}}",
                 S.Name.c_str(), Tids[I], S.StartUs, S.durUs(), I, S.Parent,
                 static_cast<unsigned long long>(S.Job));
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace exobench

using namespace exobench;

namespace {

/// Every per-layer metric, in report order, with its unit. A workload
/// reports 0 for the metrics of layers it bypasses (the "predicted
/// flat" controls in README.md).
std::vector<std::pair<std::string, std::string>> perLayerNames() {
  std::vector<std::pair<std::string, std::string>> N = {
      {"lat.p99_ms", "ms"},
      {"xasm.build_ms", "ms"},
      {"chi.load_ms", "ms"},
      {"kernels.setup_ms", "ms"},
      {"net.connect_ms", "ms"},
      {"xjit.compile_ms.small", "ms"},
      {"xjit.compile_ms.large", "ms"}};
  for (const char *K : Table2Kernels)
    N.push_back({std::string("chi.dispatch_ms.") + K, "ms"});
  for (auto P : std::initializer_list<std::pair<const char *, const char *>>{
           {"gma.minst_per_s", "Minst/s"},
           {"kernels.reference_ms", "ms"},
           {"gma.instructions", "count"},
           {"gma.issue_cycles", "cycles"},
           {"gma.cache_hit_rate", "ratio"},
           {"gma.sampler_ops", "count"},
           {"mem.tlb_misses", "count"},
           {"exo.proxy_calls", "count"},
           {"exo.proxy_stall_ms", "ms"},
           {"chi.flush_ms", "ms"},
           {"fig7_anchor_err_pct", "%"}})
    N.push_back(P);
  for (const char *K : Table2Kernels)
    N.push_back({std::string("cluster.dispatch_ms.") + K, "ms"});
  for (auto P : std::initializer_list<std::pair<const char *, const char *>>{
           {"cluster.lane_imbalance", "ratio"},
           {"cluster.stolen_frac", "ratio"},
           {"cluster.host_lane_frac", "ratio"},
           {"net.submit_us", "us"},
           {"chi.direct_us.small", "us"},
           {"chi.direct_us.large", "us"},
           {"serve.path_overhead_us.small", "us"},
           {"serve.path_overhead_us.large", "us"},
           {"serve.coalesce_ratio", "ratio"},
           {"serve.fast_lane_frac", "ratio"},
           {"serve.rejected_frac", "ratio"},
           {"net.backpressure_stalls", "count"},
           {"net.bytes_per_job", "B"},
           {"gen.lag_p99_ms", "ms"},
           {"max_rate_jobs_s", "jobs/s"},
           {"net.retry_amp", "ratio"},
           {"net.reconnects", "count"},
           {"net.dedup_replays", "count"},
           {"net.inflight_rebinds", "count"},
           {"net.recovery_ms", "ms"},
           {"net.faults_injected", "count"},
           {"trace.unattributed_pct", "%"},
           {"trace.overhead_pct", "%"}})
    N.push_back(P);
  return N;
}

/// \p Reported laid over the full per-layer list (0 where not reported).
/// A name reported but missing from the list is a benchmark bug.
Metrics completePerLayer(const Metrics &Reported, std::string &Err) {
  Metrics Out;
  auto Names = perLayerNames();
  for (auto &[Name, Unit] : Names)
    Out.set(Name, 0.0, Unit);
  for (const Metrics::Entry &E : Reported.items()) {
    bool Known = false;
    for (auto &[Name, Unit] : Names)
      Known |= (Name == E.Name && Unit == E.Unit);
    if (!Known)
      Err = "unlisted per-layer metric " + E.Name + " [" + E.Unit + "]";
    Out.set(E.Name, E.Value, E.Unit);
  }
  return Out;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "exobench: %s\nusage: exobench --workload "
               "table2-1dev|table2-4dev|serve-open|serve-faults --seed N "
               "--seconds S --trace 0|1 [--smoke] [--trace-out PATH]\n",
               Msg);
  return 2;
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End != S && *End == '\0' && std::isfinite(Out);
}

void printTable(const char *Title, const Metrics &M) {
  if (M.items().empty())
    return;
  std::fprintf(stderr, "  %s\n", Title);
  for (const Metrics::Entry &E : M.items())
    std::fprintf(stderr, "    %-34s %16.6g %s\n", E.Name.c_str(), E.Value,
                 E.Unit.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    if (A == "--smoke") {
      O.Smoke = true;
      continue;
    }
    if (K + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++K];
    double N = 0;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      if (!parseNumber(V, N) || N < 0 || N != std::floor(N))
        return usage("bad --seed");
      O.Seed = static_cast<uint64_t>(N);
      HaveSeed = true;
    } else if (A == "--seconds") {
      if (!parseNumber(V, N) || N <= 0 || N > 600)
        return usage("bad --seconds");
      O.Seconds = N;
      HaveSeconds = true;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("bad --trace (need 0 or 1)");
      O.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (A == "--trace-out") {
      O.TracePath = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (O.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  Tracer T(O.Trace);
  RunResult R;
  if (O.Workload == "table2-1dev")
    R = runTable2(O, 1, T);
  else if (O.Workload == "table2-4dev")
    R = runTable2(O, 4, T);
  else if (O.Workload == "serve-open")
    R = runServeOpen(O, T);
  else if (O.Workload == "serve-faults")
    R = runServeFaults(O, T);
  else
    return usage(("unknown workload " + O.Workload).c_str());

  if (!R.Error.empty()) {
    std::fprintf(stderr, "exobench: %s: correctness check FAILED: %s\n",
                 O.Workload.c_str(), R.Error.c_str());
    return 1;
  }
  if (R.Attempted == 0) {
    std::fprintf(stderr, "exobench: %s attempted nothing\n",
                 O.Workload.c_str());
    return 1;
  }
  R.EndToEnd.set("peak_rss_mb", peakRssMb(), "MB");
  if (O.Trace) {
    std::string Err;
    R.PerLayer = completePerLayer(R.PerLayer, Err);
    if (!Err.empty()) {
      std::fprintf(stderr, "exobench: %s\n", Err.c_str());
      return 1;
    }
  }

  if (O.Trace && !O.TracePath.empty() && !T.writeChromeTrace(O.TracePath))
    std::fprintf(stderr, "exobench: cannot write trace %s\n",
                 O.TracePath.c_str());

  std::fprintf(stderr, "exobench %s (seed %llu, %g s%s): outputs correct\n",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               O.Seconds, O.Smoke ? ", smoke" : "");
  printTable("end to end", R.EndToEnd);
  printTable("per layer", R.PerLayer);
  printTable("context", R.Info);

  const Metrics &Out = O.Trace ? R.PerLayer : R.EndToEnd;
  std::string Json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  bool First = true;
  for (const Metrics::Entry &E : Out.items()) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(E.Value) ? E.Value : 0.0);
    Json += (First ? "\"" : ", \"") + E.Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + E.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
