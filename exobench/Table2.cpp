//===- exobench/Table2.cpp - table2-1dev and table2-4dev ---------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The paper-figure path: the ten Table 2 kernels plus a benchmark-defined
// `skew` kernel, each dispatched in full through chi::Runtime on one
// platform with the library defaults (cycle backend, default SimThreads,
// CCShared). Every pass builds a fresh platform, so simulated caches start
// empty and every pass of one seed simulates exactly the same thing.
//
// One pass = setup (timed as setup_s) + the batch of 11 dispatches (timed
// as wall_s) + the IA32 reference check (timed separately, kept out of
// wall_s), then a few setup-only repetitions for more setup_s samples.
// Passes repeat until --seconds is spent; dispatch times are best-of-N
// (each kernel's best dispatch), setup_s the median setup.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "cpu/CpuModel.h"
#include "exo/ExoPlatform.h"
#include "kernels/Workloads.h"
#include "support/Format.h"
#include "support/Random.h"

#include <cmath>
#include <memory>

using namespace exochi;

namespace exobench {
namespace {

/// Input scale of the Table 2 kernels (1.0 = the paper's sizes). At 0.3
/// every kernel's surfaces still overflow the 128 KB device cache.
constexpr double Table2Scale = 0.3;
constexpr double SmokeScale = 0.05;
/// Setup-only repetitions after every pass.
constexpr unsigned SetupReps = 2;

/// The ten Table 2 kernels in paper order, at \p Scale. Defined here rather
/// than taken from bench/BenchCommon.h so that the benchmark's inputs
/// change only when this directory does.
std::vector<std::unique_ptr<kernels::MediaWorkload>> makeTable2(double Scale) {
  using namespace kernels;
  auto D = [Scale](uint32_t V) { return scaleDim(V, Scale); };
  auto F = [Scale](uint32_t V) {
    return std::max(2u, static_cast<uint32_t>(std::lround(V * Scale)));
  };
  std::vector<std::unique_ptr<MediaWorkload>> W;
  W.push_back(createLinearFilter(D(640), D(480)));
  W.push_back(createSepiaTone(D(640), D(480)));
  W.push_back(createFGT(D(1024), D(768)));
  W.push_back(createBicubic(D(720), D(480), F(30)));
  W.push_back(createKalman(D(512), D(256), F(30)));
  W.push_back(createFMD(D(720), D(480), std::max(4u, F(60))));
  W.push_back(createAlphaBlend(D(720), D(480), F(30)));
  W.push_back(createBOB(D(720), D(480), F(30)));
  W.push_back(createADVDI(D(720), D(480), F(30)));
  W.push_back(createProcAmp(D(720), D(480), F(30)));
  return W;
}

/// The benchmark-defined imbalanced kernel: shred i runs n(i) rounds of
/// acc = acc * 3 + A[8i..8i+7] and stores acc to C. n rises with the
/// shred id plus a seeded jitter; the jitter is a seeded permutation of a
/// fixed multiset, so total work is the same for every seed while the
/// per-device split (and so stealing) varies.
struct Skew {
  // Parameters occupy vr0 (i) and vr1 (n); temporaries start above them.
  static constexpr const char *Asm = R"(
  shl.1.dw vr30 = i, 3
  ld.8.dw  [vr2..vr9] = (A, vr30, 0)
  mov.8.dw [vr10..vr17] = 0
  mov.1.dw vr20 = 0
loop:
  mul.8.dw [vr10..vr17] = [vr10..vr17], 3
  add.8.dw [vr10..vr17] = [vr10..vr17], [vr2..vr9]
  add.1.dw vr20 = vr20, 1
  cmp.lt.1.dw p1 = vr20, n
  br p1, loop
  st.8.dw  (C, vr30, 0) = [vr10..vr17]
  halt
)";

  unsigned Shreds = 0;
  std::vector<int32_t> Rounds; ///< n(i)
  std::vector<int32_t> In;     ///< A, 8 elements per shred
  exo::SharedBuffer A, C;
  uint32_t ADesc = 0, CDesc = 0;

  void generate(uint64_t Seed, unsigned NumShreds) {
    Shreds = NumShreds;
    Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x5ce3);
    std::vector<int32_t> Jitter(Shreds);
    for (unsigned S = 0; S < Shreds; ++S)
      Jitter[S] = static_cast<int32_t>(S % 16);
    for (unsigned S = Shreds; S > 1; --S)
      std::swap(Jitter[S - 1], Jitter[R.nextBelow(S)]);
    Rounds.resize(Shreds);
    for (unsigned S = 0; S < Shreds; ++S)
      Rounds[S] = 4 + static_cast<int32_t>(S * 96 / Shreds) + Jitter[S];
    In.resize(static_cast<size_t>(Shreds) * 8);
    for (int32_t &V : In)
      V = static_cast<int32_t>(R.next() & 0xffff);
  }

  Error setup(chi::Runtime &RT) {
    exo::ExoPlatform &P = RT.platform();
    uint64_t Bytes = In.size() * 4;
    A = P.allocateShared(Bytes, "skew.A");
    C = P.allocateShared(Bytes, "skew.C");
    P.write(A.Base, In.data(), Bytes);
    std::vector<int32_t> Zero(In.size(), 0);
    P.write(C.Base, Zero.data(), Bytes);
    auto AD = RT.allocDesc(chi::TargetIsa::X3000, A.Base,
                           chi::SurfaceMode::Input,
                           static_cast<uint32_t>(In.size()), 1);
    if (!AD)
      return AD.takeError();
    auto CD = RT.allocDesc(chi::TargetIsa::X3000, C.Base,
                           chi::SurfaceMode::Output,
                           static_cast<uint32_t>(In.size()), 1);
    if (!CD)
      return CD.takeError();
    ADesc = *AD;
    CDesc = *CD;
    return Error::success();
  }

  Expected<chi::RegionHandle> dispatch(chi::Runtime &RT) const {
    chi::RegionSpec Spec;
    Spec.KernelName = "skew";
    Spec.NumThreads = Shreds;
    Spec.SharedDescs = {{"A", ADesc}, {"C", CDesc}};
    Spec.Private["i"] = [](unsigned T) { return static_cast<int32_t>(T); };
    auto Rounds = this->Rounds;
    Spec.Private["n"] = [Rounds](unsigned T) { return Rounds[T]; };
    return RT.dispatch(Spec);
  }

  /// IA32 reference: same wrapping 32-bit arithmetic as the kernel.
  Error check(exo::ExoPlatform &P) const {
    std::vector<int32_t> Out(In.size());
    P.read(C.Base, Out.data(), Out.size() * 4);
    for (size_t E = 0; E < In.size(); ++E) {
      uint32_t Acc = 0;
      for (int32_t K = 0; K < Rounds[E / 8]; ++K)
        Acc = Acc * 3u + static_cast<uint32_t>(In[E]);
      if (static_cast<uint32_t>(Out[E]) != Acc)
        return Error::make(formatString(
            "skew: shared output differs from IA32 reference at element %zu "
            "(shared=0x%08x host=0x%08x)",
            E, static_cast<uint32_t>(Out[E]), Acc));
    }
    return Error::success();
  }
};

/// Functional identity of one kernel's dispatch: must not depend on the
/// device count.
struct KernelId {
  uint64_t OutHash = 0;
  uint64_t Shreds = 0, Instructions = 0, MemoryOps = 0;
  /// Shreds the cluster's IA32 host lane ran. Not part of the identity:
  /// the host lane adds its instructions to the fleet total but not its
  /// memory operations (ClusterScheduler::run), so MemoryOps can only be
  /// compared across device counts when this is 0.
  uint64_t HostLaneShreds = 0;
  bool operator==(const KernelId &O) const {
    return OutHash == O.OutHash && Shreds == O.Shreds &&
           Instructions == O.Instructions && MemoryOps == O.MemoryOps;
  }
};

/// The multi-device gate: output hash, shreds and instructions always
/// equal the 1-device control; memory operations too unless the host
/// lane ran shreds (see KernelId::HostLaneShreds).
bool sameFunction(const KernelId &Multi, const KernelId &One) {
  return Multi.OutHash == One.OutHash && Multi.Shreds == One.Shreds &&
         Multi.Instructions == One.Instructions &&
         (Multi.HostLaneShreds > 0 || Multi.MemoryOps == One.MemoryOps);
}

/// Everything one pass measured.
struct PassOut {
  double SetupS = 0, WallS = 0;
  double SimMs = 0;
  std::vector<double> DispatchMs; ///< per kernel, in batch order
  std::vector<chi::RegionStats> Regions;
  std::vector<KernelId> Ids;
  double Fig7ErrPct = 0;
};

/// Bytes of every Output-mode descriptor in [Lo, Hi), hashed.
uint64_t hashOutputs(chi::Runtime &RT, uint32_t Lo, uint32_t Hi) {
  uint64_t H = 1469598103934665603ull;
  std::vector<uint8_t> Buf;
  for (uint32_t D = Lo; D < Hi; ++D) {
    const chi::Descriptor *Desc = RT.descriptor(D);
    if (!Desc || Desc->Mode != chi::SurfaceMode::Output)
      continue;
    Buf.resize(Desc->totalBytes());
    RT.platform().read(Desc->Ptr, Buf.data(), Buf.size());
    H = fnv1a(Buf.data(), Buf.size(), H);
  }
  return H;
}

/// One past the highest live descriptor id (ids are handed out densely
/// and the benchmark frees none).
uint32_t descEnd(chi::Runtime &RT) {
  uint32_t D = 1;
  while (RT.descriptor(D))
    ++D;
  return D;
}

/// A platform with the program loaded and every kernel's inputs written:
/// what setup_s times.
struct Platform {
  std::unique_ptr<exo::ExoPlatform> Exo;
  std::unique_ptr<chi::Runtime> RT;
  std::vector<std::unique_ptr<kernels::MediaWorkload>> WL;
  Skew SK;
  /// Each kernel's descriptor ids, in batch order.
  std::vector<std::pair<uint32_t, uint32_t>> DescRange;
};

/// Setup: platform, ProgramBuilder, loadBinary, inputs.
Expected<Platform> setUp(unsigned Devices, uint64_t Seed, bool Smoke,
                         Tracer &T, uint64_t PassNo) {
  Scope Root(T, "setup", PassNo);
  Platform P;
  exo::PlatformConfig PC;
  PC.NumDevices = Devices;
  P.Exo = std::make_unique<exo::ExoPlatform>(PC);
  P.RT = std::make_unique<chi::Runtime>(*P.Exo);
  P.WL = makeTable2(Smoke ? SmokeScale : Table2Scale);
  P.SK.generate(Seed, Smoke ? 64 : 1024);

  chi::ProgramBuilder PB;
  {
    Scope S(T, "xasm.build", PassNo);
    for (auto &W : P.WL)
      if (Error E = W->compile(PB))
        return E;
    if (auto Id = PB.addXgmaKernel("skew", Skew::Asm, {"i", "n"}, {"A", "C"});
        !Id)
      return Id.takeError();
  }
  {
    Scope S(T, "chi.load", PassNo);
    if (Error E = P.RT->loadBinary(PB.binary()))
      return E;
  }
  Scope S(T, "kernels.setup", PassNo);
  for (auto &W : P.WL) {
    uint32_t Lo = descEnd(*P.RT);
    if (Error E = W->setup(*P.RT))
      return E;
    P.DescRange.push_back({Lo, descEnd(*P.RT)});
  }
  uint32_t Lo = descEnd(*P.RT);
  if (Error E = P.SK.setup(*P.RT))
    return E;
  P.DescRange.push_back({Lo, descEnd(*P.RT)});
  return P;
}

/// Runs one full pass on a fresh \p Devices-device platform.
Expected<PassOut> runPass(unsigned Devices, uint64_t Seed, bool Smoke,
                          Tracer &T, uint64_t PassNo) {
  PassOut Out;
  auto T0 = Clock::now();
  Expected<Platform> Pl = setUp(Devices, Seed, Smoke, T, PassNo);
  if (!Pl)
    return Pl.takeError();
  Out.SetupS = secondsSince(T0);
  chi::Runtime &RT = *Pl->RT;
  auto &WL = Pl->WL;
  const Skew &SK = Pl->SK;

  // --- The batch: 11 full dispatches, timed as wall_s. ----------------
  chi::TimeNs Sim0 = RT.now();
  auto B0 = Clock::now();
  int Root = T.open("batch", PassNo);
  std::vector<chi::RegionHandle> Handles;
  for (unsigned K = 0; K < NumTable2Kernels; ++K) {
    auto D0 = Clock::now();
    Expected<chi::RegionHandle> H = chi::RegionHandle(0);
    {
      Scope S(T, std::string("dispatch.") + Table2Kernels[K], PassNo);
      if (K < WL.size())
        H = WL[K]->dispatchDevice(RT, 0, WL[K]->totalStrips());
      else
        H = SK.dispatch(RT);
    }
    if (!H)
      return H.takeError();
    Out.DispatchMs.push_back(msBetween(D0, Clock::now()));
    Handles.push_back(*H);
  }
  T.close(Root);
  Out.WallS = secondsSince(B0);
  Out.SimMs = (RT.now() - Sim0) * 1e-6;
  for (chi::RegionHandle H : Handles)
    Out.Regions.push_back(*RT.regionStats(H));

  // --- Reference check (kept out of wall_s). --------------------------
  {
    Scope S(T, "kernels.reference", PassNo);
    for (auto &W : WL) {
      if (Error E = W->hostCompute(0, W->totalStrips()))
        return E;
      if (Error E = W->compareSharedToReference(RT))
        return E;
    }
    if (Error E = SK.check(*Pl->Exo))
      return E;
  }
  for (unsigned K = 0; K < NumTable2Kernels; ++K) {
    KernelId Id;
    Id.OutHash =
        hashOutputs(RT, Pl->DescRange[K].first, Pl->DescRange[K].second);
    Id.Shreds = Out.Regions[K].Device.ShredsExecuted;
    Id.Instructions = Out.Regions[K].Device.Instructions;
    Id.MemoryOps = Out.Regions[K].Device.MemoryOps;
    for (const chi::ShardStat &S : Out.Regions[K].Shards)
      Id.HostLaneShreds += S.HostLane ? S.Shreds : 0;
    Out.Ids.push_back(Id);
  }

  // Fig. 7 anchors: simulated IA32-alone / device speedup of BOB and
  // Bicubic against the paper's 1.41x and 10.97x (one device only).
  if (Devices == 1) {
    double Worst = 0;
    for (auto [Idx, Paper] : {std::pair<unsigned, double>{7, 1.41},
                              std::pair<unsigned, double>{3, 10.97}}) {
      mem::MemoryBus Bus;
      cpu::CpuModel Cpu(cpu::CpuConfig(), Bus);
      double CpuNs =
          Cpu.execute(0.0, WL[Idx]->hostWorkFor(0, WL[Idx]->totalStrips()));
      double Speedup = CpuNs / Out.Regions[Idx].totalNs();
      Worst = std::max(Worst, std::fabs(Speedup / Paper - 1.0) * 100.0);
    }
    Out.Fig7ErrPct = Worst;
  }
  return Out;
}

/// Sum of one device counter over the batch.
template <typename Fn> double sumRegions(const PassOut &P, Fn Field) {
  double S = 0;
  for (const chi::RegionStats &R : P.Regions)
    S += static_cast<double>(Field(R));
  return S;
}

std::vector<double> column(const std::vector<PassOut> &Ps,
                           double PassOut::*Field) {
  std::vector<double> V;
  for (const PassOut &P : Ps)
    V.push_back(P.*Field);
  return V;
}

} // namespace

RunResult runTable2(const Options &O, unsigned Devices, Tracer &T) {
  RunResult R;
  Tracer Off(false);
  auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(O.Seconds));

  // table2-4dev's control: one untimed 1-device pass. Every kernel's
  // output hash and functional counters must match it exactly.
  std::vector<KernelId> Control;
  if (Devices > 1) {
    auto C = runPass(1, O.Seed, O.Smoke, Off, 0);
    if (!C) {
      R.Error = C.message();
      return R;
    }
    Control = C->Ids;
  }

  // Passes until the time is spent (at least 3, one when smoking). A
  // traced run alternates traced and untraced passes, so the tracing
  // overhead is measured on the same machine state.
  // Every pass is followed by SetupReps setup-only repetitions (set up,
  // then tear down untimed), so setup_s, at about a tenth of a pass,
  // gets several samples per pass.
  std::vector<PassOut> Plain, Traced;
  std::vector<double> SetupS;
  unsigned MinPasses = O.Smoke ? 1 : 3;
  for (uint64_t N = 0;; ++N) {
    bool UseTrace = O.Trace && N % 2 == 1;
    auto P = runPass(Devices, O.Seed, O.Smoke, UseTrace ? T : Off, N + 1);
    releaseFreedMemory();
    for (unsigned K = 0; P && K < SetupReps; ++K) {
      auto T0 = Clock::now();
      Expected<Platform> Pl = setUp(Devices, O.Seed, O.Smoke, Off, 0);
      SetupS.push_back(secondsSince(T0));
      if (!Pl)
        P = Pl.takeError();
    }
    releaseFreedMemory();
    if (P && !UseTrace)
      SetupS.push_back(P->SetupS);
    R.Attempted += NumTable2Kernels;
    if (!P) {
      R.Error = P.message();
      return R;
    }
    const PassOut &First = Plain.empty() ? *P : Plain.front();
    // Determinism gate: every pass of one seed simulates the same thing.
    if (P->SimMs != First.SimMs || P->Ids != First.Ids ||
        P->Fig7ErrPct != First.Fig7ErrPct) {
      R.Error = formatString("pass %llu diverged from pass 1 (sim %.6f vs "
                             "%.6f ms): simulation is not deterministic",
                             static_cast<unsigned long long>(N + 1), P->SimMs,
                             First.SimMs);
      return R;
    }
    if (!Control.empty())
      for (unsigned K = 0; K < NumTable2Kernels; ++K)
        if (!sameFunction(P->Ids[K], Control[K])) {
          R.Error = formatString(
              "%s: %u-device output hash/counters differ from 1 device "
              "(hash %016llx vs %016llx, shreds %llu vs %llu, instructions "
              "%llu vs %llu, memory ops %llu vs %llu)",
              Table2Kernels[K], Devices,
              static_cast<unsigned long long>(P->Ids[K].OutHash),
              static_cast<unsigned long long>(Control[K].OutHash),
              static_cast<unsigned long long>(P->Ids[K].Shreds),
              static_cast<unsigned long long>(Control[K].Shreds),
              static_cast<unsigned long long>(P->Ids[K].Instructions),
              static_cast<unsigned long long>(Control[K].Instructions),
              static_cast<unsigned long long>(P->Ids[K].MemoryOps),
              static_cast<unsigned long long>(Control[K].MemoryOps));
          return R;
        }
    (UseTrace ? Traced : Plain).push_back(std::move(*P));
    size_t Done = Plain.size() + Traced.size();
    if (O.Smoke && Done >= 2)
      break;
    if (Done >= MinPasses && Clock::now() >= Deadline && !Plain.empty())
      break;
  }

  // End-to-end metrics come from untraced passes only. Every pass of a
  // seed does identical work (the determinism gate above checks it), so
  // pass-to-pass differences are host noise, which only ever adds time.
  // Host times are therefore best-of-N, per dispatch: each kernel's best
  // dispatch time over the passes. Shorter samples find the host's quiet
  // moments more often than whole 1-2 s passes do. wall_s is the batch of
  // those best times; p50_ms and p95_ms are percentiles over them.
  const PassOut &P0 = Plain.front();
  std::vector<double> BestMs(NumTable2Kernels);
  for (unsigned K = 0; K < NumTable2Kernels; ++K) {
    std::vector<double> V;
    for (const PassOut &P : Plain)
      V.push_back(P.DispatchMs[K]);
    BestMs[K] = best(V);
  }
  std::vector<double> Walls = column(Plain, &PassOut::WallS);
  double WallS = 0;
  for (double Ms : BestMs)
    WallS += Ms / 1000.0;
  // Setup is the median of the run's setups: across three sets of ten
  // runs its spread was lower than the best setup's.
  R.EndToEnd.set("setup_s", median(SetupS), "s");
  R.EndToEnd.set("wall_s", WallS, "s");
  R.EndToEnd.set("sim_ms", P0.SimMs, "sim-ms");
  R.EndToEnd.set("p50_ms", median(BestMs), "ms");
  R.EndToEnd.set("p95_ms", percentile(BestMs, 0.95), "ms");
  R.EndToEnd.set("goodput_jobs_s", NumTable2Kernels / WallS, "jobs/s");
  R.Info.set("best_pass_s", best(Walls), "s");
  R.Info.set("wall_s.median", median(Walls), "s");
  R.Info.set("passes", static_cast<double>(Plain.size()), "count");
  R.Info.set("setup_s.best", best(SetupS), "s");
  R.Info.set("setups", static_cast<double>(SetupS.size()), "count");
  R.Info.set("latency_samples", static_cast<double>(NumTable2Kernels * Plain.size()),
             "count");
  if (Devices == 1)
    R.Info.set("fig7_anchor_err_pct", P0.Fig7ErrPct, "%");

  if (!O.Trace)
    return R;

  // Per-layer metrics from the traced passes' spans.
  Metrics &L = R.PerLayer;
  L.set("lat.p99_ms", percentile(BestMs, 0.99), "ms");
  // A layer's time is the median self time of its spans.
  std::vector<Span> Spans = T.spans();
  std::vector<double> Self = selfTimesUs(Spans);
  auto SpanMedianMs = [&](const std::string &Name) {
    std::vector<double> V;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Spans[I].Name == Name)
        V.push_back(Self[I] / 1000.0);
    return median(V);
  };
  L.set("xasm.build_ms", SpanMedianMs("xasm.build"), "ms");
  L.set("chi.load_ms", SpanMedianMs("chi.load"), "ms");
  L.set("kernels.setup_ms", SpanMedianMs("kernels.setup"), "ms");
  L.set("kernels.reference_ms", SpanMedianMs("kernels.reference"), "ms");
  // Runtime::dispatch per kernel; on a multi-device platform that call
  // is the ClusterScheduler's, reported again under cluster.*.
  double DispatchS = 0;
  for (unsigned K = 0; K < NumTable2Kernels; ++K) {
    double Ms = SpanMedianMs(std::string("dispatch.") + Table2Kernels[K]);
    L.set(std::string("chi.dispatch_ms.") + Table2Kernels[K], Ms, "ms");
    L.set(std::string("cluster.dispatch_ms.") + Table2Kernels[K],
          Devices > 1 ? Ms : 0.0, "ms");
    DispatchS += Ms / 1000.0;
  }
  double Instr = sumRegions(P0, [](auto &X) { return X.Device.Instructions; });
  double Hits = sumRegions(P0, [](auto &X) { return X.Device.CacheHits; });
  double Misses = sumRegions(P0, [](auto &X) { return X.Device.CacheMisses; });
  L.set("gma.minst_per_s", DispatchS > 0 ? Instr / DispatchS / 1e6 : 0,
        "Minst/s");
  L.set("gma.instructions", Instr, "count");
  L.set("gma.issue_cycles",
        sumRegions(P0, [](auto &X) { return X.Device.IssueCycles; }), "cycles");
  L.set("gma.cache_hit_rate", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
        "ratio");
  L.set("gma.sampler_ops",
        sumRegions(P0, [](auto &X) { return X.Device.SamplerOps; }), "count");
  L.set("mem.tlb_misses",
        sumRegions(P0, [](auto &X) { return X.Device.TlbMisses; }), "count");
  L.set("exo.proxy_calls",
        sumRegions(P0, [](auto &X) { return X.Device.ProxyCalls; }), "count");
  L.set("exo.proxy_stall_ms",
        sumRegions(P0, [](auto &X) { return X.Device.ProxyStallNs; }) * 1e-6,
        "ms");
  L.set("chi.flush_ms", sumRegions(P0, [](auto &X) { return X.FlushNs; }) * 1e-6,
        "ms");
  L.set("fig7_anchor_err_pct", P0.Fig7ErrPct, "%");

  // Cluster lanes: lane imbalance over the batch, weighted by each
  // dispatch's length (sum of the slowest device lane's busy time over
  // sum of the mean device lane's), and the shares of shreds stolen and
  // run on the host lane.
  double MaxBusy = 0, MeanBusy = 0, Shreds = 0, Stolen = 0, HostShreds = 0;
  for (const chi::RegionStats &RS : P0.Regions) {
    double Max = 0, Sum = 0;
    unsigned N = 0;
    for (const chi::ShardStat &S : RS.Shards) {
      Shreds += static_cast<double>(S.Shreds);
      Stolen += static_cast<double>(S.Stolen);
      if (S.HostLane) {
        HostShreds += static_cast<double>(S.Shreds);
        continue;
      }
      double Busy = S.FinishNs - RS.DeviceStartNs;
      Max = std::max(Max, Busy);
      Sum += Busy;
      ++N;
    }
    MaxBusy += Max;
    MeanBusy += N ? Sum / N : 0;
  }
  L.set("cluster.lane_imbalance", MeanBusy > 0 ? MaxBusy / MeanBusy : 1.0,
        "ratio");
  L.set("cluster.stolen_frac", Shreds > 0 ? Stolen / Shreds : 0, "ratio");
  L.set("cluster.host_lane_frac", Shreds > 0 ? HostShreds / Shreds : 0,
        "ratio");

  // Unattributed batch time: the batch spans' own self time (the wall
  // time no dispatch span covers), as a share of the batch.
  double BatchUs = 0, BatchSelfUs = 0;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Name == "batch") {
      BatchUs += Spans[I].durUs();
      BatchSelfUs += Self[I];
    }
  L.set("trace.unattributed_pct", BatchUs > 0 ? 100.0 * BatchSelfUs / BatchUs : 0,
        "%");
  std::vector<double> TracedWalls = column(Traced, &PassOut::WallS);
  L.set("trace.overhead_pct",
        TracedWalls.empty() ? 0
                            : (best(TracedWalls) / best(Walls) - 1.0) * 100.0,
        "%");
  return R;
}

} // namespace exobench
