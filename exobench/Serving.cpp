//===- exobench/Serving.cpp - serve-open and serve-faults --------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The serving path over loopback TCP: one in-process NetServer configured
// like `exochi-run --listen --backend fast --coalesce-window 8`, driven by
// at most two generator threads per workload (see OpenConns, FaultConns).
//
// Job mix (both workloads): in every block of five jobs one is a large
// 256-shred `strip` job (LC = max(LC, LA + k), k distinct per job, so it
// never coalesces) at a seeded position; the rest are small 8-shred
// `vecadd` jobs (C = A + B over one of eight 64-element slots), which the
// server may coalesce. Surface contents are seeded. All surfaces fit in
// the device cache.
//
// serve-open  Open loop. A sender thread submits on a seeded Poisson
//             schedule at each rate of a fixed ladder, then at an overload
//             rate far above capacity; a reader thread collects Results.
//             Latency counts from the *scheduled* send time. One sweep of
//             the ladder runs against a fresh server.
// serve-faults Closed loop. Each connection keeps a fixed window of
//             outstanding jobs, retries armed, while NetChaos perturbs 1%
//             of Result frames with every fault kind on a seeded schedule.
//             One batch runs against a fresh server.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "chi/ProgramBuilder.h"
#include "chi/Runtime.h"
#include "exo/ExoPlatform.h"
#include "net/NetClient.h"
#include "net/NetServer.h"
#include "support/Format.h"
#include "support/Random.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

using namespace exochi;
namespace wire = exochi::net::wire;

namespace exobench {
namespace {

//===----------------------------------------------------------------------===//
// Fixed configuration.
//===----------------------------------------------------------------------===//

/// Connections: serve-open uses one (a sender and a reader thread),
/// serve-faults two (one thread each). With the server's event loop that
/// is three busy threads, leaving one of four cores to the OS.
constexpr unsigned OpenConns = 1, FaultConns = 2;
constexpr unsigned SmallShreds = 8, SmallSlots = 8;
constexpr unsigned SmallElems = SmallShreds * 8 * SmallSlots; // 512
constexpr unsigned LargeShreds = 256;
constexpr unsigned LargeElems = LargeShreds * 32; // 8192
constexpr unsigned MixBlock = 5; ///< one large job per block of five

/// serve-open: the absolute rate ladder (jobs/s), the rung whose latency
/// is reported end to end, the p99 limit of the ladder rule, and jobs per
/// rung per sweep.
constexpr double Ladder[] = {1000, 2000, 4000, 8000, 16000};
/// The end-to-end latency rung: light load, where latency is mostly
/// service time. Near saturation queueing multiplies any change in host
/// speed, so a loaded rung's latency swings several-fold between runs.
constexpr unsigned RefRung = 0; ///< 1000 jobs/s
constexpr double P99LimitMs = 5.0;
constexpr unsigned JobsPerRung = 1000;
/// The overload rungs, run after the ladder: an offered rate several
/// times what the server can serve, so the jobs queue at once and a
/// rung's drain time measures the server's capacity, not the schedule.
/// Several short rungs rather than one long one, so that a run has many
/// drains to take the median of. Not part of the ladder rule, and their
/// latency is not reported.
constexpr double OverloadRate = 64000;
constexpr unsigned OverloadRungs = 3;
/// A sweep whose sender ran later than this behind its schedule (p99,
/// at the reference rung) was stalled by the host: it is discarded. The
/// limit is the ladder's p99 limit, a lag that alone could fail a rung.
/// Only the reference rung counts, because on loaded rungs the server's
/// backpressure also delays the sender, and the ladder rule should see
/// that.
constexpr double LagLimitMs = P99LimitMs;

/// Setup-only repetitions (start a server, connect, declare, warm up,
/// tear down) after every serve-open sweep and every serve-faults batch:
/// setup takes a few milliseconds, so setup_s is the median of many.
constexpr unsigned OpenSetupReps = 8, FaultSetupReps = 4;

/// serve-faults: jobs per connection per batch, the sliding window of
/// outstanding tags per connection (far inside the server's 256-answer
/// dedup window), the fault rate of every kind, and the client's call
/// timeout.
constexpr unsigned FaultJobsPerConn = 1000;
constexpr unsigned Window = 32;
constexpr double FaultRate = 0.01;
constexpr double CallTimeoutSec = 0.05;

const char *const SmallAsm = R"(
  shl.1.dw vr1 = i, 3
  ld.8.dw  [vr2..vr9]   = (A, vr1, 0)
  ld.8.dw  [vr10..vr17] = (B, vr1, 0)
  add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]
  st.8.dw  (C, vr1, 0)  = [vr18..vr25]
  halt
)";

/// Parameters occupy vr0 (i) and vr1 (k); temporaries start above them.
std::string largeAsm() {
  std::string S = "  shl.1.dw vr30 = i, 5\n";
  for (unsigned B = 0; B < 4; ++B)
    S += "  ld.8.dw  [vr2..vr9]   = (LA, vr30, 0)\n"
         "  ld.8.dw  [vr10..vr17] = (LC, vr30, 0)\n"
         "  add.8.dw [vr2..vr9]   = [vr2..vr9], k\n"
         "  max.8.dw [vr10..vr17] = [vr10..vr17], [vr2..vr9]\n"
         "  st.8.dw  (LC, vr30, 0) = [vr10..vr17]\n"
         "  add.1.dw vr30 = vr30, 8\n";
  return S + "  halt\n";
}

Error buildProgram(chi::Runtime &RT) {
  chi::ProgramBuilder PB;
  if (auto Id = PB.addXgmaKernel("vecadd", SmallAsm, {"i"}, {"A", "B", "C"});
      !Id)
    return Id.takeError();
  if (auto Id = PB.addXgmaKernel("strip", largeAsm(), {"i", "k"}, {"LA", "LC"});
      !Id)
    return Id.takeError();
  return RT.loadBinary(PB.binary());
}

//===----------------------------------------------------------------------===//
// Inputs.
//===----------------------------------------------------------------------===//

/// One connection's seeded surface contents.
struct ConnInputs {
  std::vector<int32_t> A, B, LA;
};

ConnInputs makeInputs(uint64_t Seed, unsigned Conn) {
  Rng R(Seed * 0x2545f4914f6cdd1dull + Conn * 7919 + 1);
  ConnInputs In;
  auto Fill = [&](std::vector<int32_t> &V, unsigned N) {
    V.resize(N);
    for (int32_t &X : V)
      X = static_cast<int32_t>(R.nextBelow(1u << 20));
  };
  Fill(In.A, SmallElems);
  Fill(In.B, SmallElems);
  Fill(In.LA, LargeElems);
  return In;
}

wire::SurfaceMsg surfaceMsg(const char *Name, const std::vector<int32_t> &V,
                            unsigned N) {
  wire::SurfaceMsg S;
  S.Name = Name;
  S.Width = N;
  S.Height = 1;
  if (V.empty()) {
    S.Fill = wire::SurfaceFill::Zero;
  } else {
    S.Fill = wire::SurfaceFill::Data;
    S.Data.resize(N * 4);
    std::memcpy(S.Data.data(), V.data(), N * 4);
  }
  return S;
}

/// The job of global index \p J: large at one seeded position per block.
struct Job {
  bool Large = false;
  unsigned Slot = 0; ///< small: which 64-element slot of C
  int32_t K = 0;     ///< large: the distinct firstprivate value
};

std::vector<Job> makeMix(uint64_t Seed, unsigned N) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x6d1);
  std::vector<Job> Jobs(N);
  unsigned LargePos = 0, Small = 0, Large = 0;
  for (unsigned J = 0; J < N; ++J) {
    if (J % MixBlock == 0)
      LargePos = static_cast<unsigned>(R.nextBelow(MixBlock));
    if (J % MixBlock == LargePos) {
      Jobs[J].Large = true;
      Jobs[J].K = static_cast<int32_t>(++Large);
    } else {
      Jobs[J].Slot = Small++ % SmallSlots;
    }
  }
  return Jobs;
}

wire::SubmitMsg submitMsg(const Job &J, uint64_t Tag) {
  wire::SubmitMsg M;
  M.Tag = Tag;
  if (J.Large) {
    M.Kernel = "strip";
    M.Shreds = LargeShreds;
    M.Params = {{"i", wire::ParamKind::Shred, 0},
                {"k", wire::ParamKind::Value, J.K}};
    M.Bind = {"LA", "LC"};
  } else {
    M.Kernel = "vecadd";
    M.Shreds = SmallShreds;
    M.Params = {{"i", wire::ParamKind::ShredOffset,
                 static_cast<int32_t>(J.Slot * SmallShreds)}};
    M.Bind = {"A", "B", "C"};
  }
  return M;
}

/// What one connection's completed jobs must have left in its surfaces.
struct Expect {
  unsigned SlotsWritten = 1; ///< bit per C slot (the warm-up wrote slot 0)
  int32_t MaxK = 0;          ///< the warm-up's large job ran with k = 0

  void completed(const Job &J) {
    if (J.Large)
      MaxK = std::max(MaxK, J.K);
    else
      SlotsWritten |= 1u << J.Slot;
  }
};

/// Checks one connection's fetched outputs: every C slot a completed job
/// wrote equals A + B (the others are still 0), and LC equals LA + the
/// largest k among the completed large jobs.
Error checkOutputs(net::NetClient &C, const ConnInputs &In, const Expect &X,
                   unsigned Conn) {
  auto Fc = C.fetch("C");
  if (!Fc)
    return Fc.takeError();
  auto Fl = C.fetch("LC");
  if (!Fl)
    return Fl.takeError();
  if (Fc->Data.size() != SmallElems * 4 || Fl->Data.size() != LargeElems * 4)
    return Error::make("fetched surface has the wrong size");
  std::vector<int32_t> Cv(SmallElems), Lv(LargeElems);
  std::memcpy(Cv.data(), Fc->Data.data(), SmallElems * 4);
  std::memcpy(Lv.data(), Fl->Data.data(), LargeElems * 4);
  for (unsigned E = 0; E < SmallElems; ++E) {
    bool Written = X.SlotsWritten >> (E / (SmallElems / SmallSlots)) & 1;
    int32_t Want = Written ? In.A[E] + In.B[E] : 0;
    if (Cv[E] != Want)
      return Error::make(formatString("conn %u: C[%u] = %d, expected %d",
                                      Conn, E, Cv[E], Want));
  }
  for (unsigned E = 0; E < LargeElems; ++E) {
    int32_t Want = In.LA[E] + X.MaxK;
    if (Lv[E] != Want)
      return Error::make(formatString("conn %u: LC[%u] = %d, expected %d",
                                      Conn, E, Lv[E], Want));
  }
  return Error::success();
}

//===----------------------------------------------------------------------===//
// The server.
//===----------------------------------------------------------------------===//

/// A NetServer on an ephemeral loopback port, fast lane on, coalesce
/// window 8, its event loop on a background thread.
struct ServerRig {
  exo::ExoPlatform Platform;
  chi::Runtime RT;
  std::unique_ptr<net::NetServer> Server;
  std::thread Loop;
  uint16_t Port = 0;

  ServerRig() : RT(Platform) {}
  ServerRig(const ServerRig &) = delete;
  ServerRig &operator=(const ServerRig &) = delete;

  Error start(net::NetFault *Fault) {
    RT.setFeature(chi::Feature::Backend, 1); // --backend fast
    if (Error E = buildProgram(RT))
      return E;
    net::NetServerConfig NC;
    NC.CoalesceWindow = 8;
    NC.Fault = Fault;
    Server = std::make_unique<net::NetServer>(RT, NC);
    auto P = Server->listenTcp(0);
    if (!P)
      return P.takeError();
    Port = *P;
    Loop = std::thread([this] { Server->run(); });
    return Error::success();
  }

  /// Stops the loop; stats stay readable afterwards.
  void stop() {
    if (!Loop.joinable())
      return;
    Server->stop();
    Loop.join();
  }

  ~ServerRig() { stop(); }
};

/// Declares one connection's surfaces.
Error declare(net::NetClient &C, const ConnInputs &In) {
  for (const wire::SurfaceMsg &S :
       {surfaceMsg("A", In.A, SmallElems), surfaceMsg("B", In.B, SmallElems),
        surfaceMsg("C", {}, SmallElems), surfaceMsg("LA", In.LA, LargeElems),
        surfaceMsg("LC", {}, LargeElems)})
    if (Error E = C.surface(S))
      return E;
  return Error::success();
}

/// Runs one job of each class to completion on \p C (the XJIT warm-up:
/// the first fast dispatch of a kernel compiles it).
Error warmUp(net::NetClient &C, uint64_t TagBase) {
  Job Small, Large;
  Large.Large = true;
  Large.K = 0; // max(LC, LA + 0) = LA: below every measured job's value
  for (const Job &J : {Small, Large}) {
    if (Error E = C.submit(submitMsg(J, TagBase++)))
      return E;
    auto R = C.readResult();
    if (!R)
      return R.takeError();
    if (static_cast<serve::JobState>(R->State) != serve::JobState::Completed)
      return Error::make("warm-up job did not complete");
  }
  return Error::success();
}

constexpr uint64_t WarmTag = 1ull << 40;

/// Connects one resumable, retrying client and declares its surfaces.
Expected<net::NetClient> connectFaultClient(uint16_t Port, unsigned Conn,
                                            const ConnInputs &In) {
  net::NetClientConfig CC;
  CC.CallTimeoutSec = CallTimeoutSec;
  CC.Retries = 20;
  CC.BackoffBaseMs = 1;
  CC.BackoffCapMs = 16;
  CC.SessionId = 1000 + Conn;
  CC.Name = "exobench";
  auto Cl = net::NetClient::connectTcp("127.0.0.1", Port, CC);
  if (!Cl)
    return Cl.takeError();
  if (Error E = declare(*Cl, In))
    return E;
  return Cl;
}

/// serve-faults' injector for schedule \p Schedule of \p Seed: 1% of
/// Result frames get each fault kind.
std::unique_ptr<net::NetFault> makeFault(uint64_t Seed, uint64_t Schedule) {
  auto F = std::make_unique<net::NetFault>(Seed * 0x94d049bb133111ebull +
                                           Schedule * 0x9e3779b9 + 17);
  for (unsigned K = 0; K < net::NumNetFaultKinds; ++K) {
    F->setRate(static_cast<net::NetFaultKind>(K), FaultRate);
    F->setOnly(static_cast<net::NetFaultKind>(K), wire::MsgType::Result);
  }
  F->setStallMs(2.0);
  return F;
}

/// A started server with connected, declared and warmed-up clients.
/// Destruction closes the clients, then stops the server.
struct Served {
  std::unique_ptr<ServerRig> Rig;
  std::vector<ConnInputs> Inputs;
  std::vector<net::NetClient> Clients;
};

/// The serving workloads' setup (what setup_s times): server start,
/// connect, surface declares and XJIT warm-up. Without \p Fault it is
/// serve-open's (OpenConns plain connections); with it serve-faults'
/// (FaultConns resumable, retrying sessions).
Expected<Served> serveUp(uint64_t Seed, net::NetFault *Fault, Tracer &T,
                         uint64_t No) {
  Scope Root(T, "setup", No);
  Served S;
  S.Rig = std::make_unique<ServerRig>();
  if (Error E = S.Rig->start(Fault))
    return E;
  unsigned Conns = Fault ? FaultConns : OpenConns;
  for (unsigned C = 0; C < Conns; ++C) {
    S.Inputs.push_back(makeInputs(Seed, C));
    Expected<net::NetClient> Cl = Error::make("unreached");
    {
      Scope Sp(T, "net.connect", No);
      if (Fault) {
        Cl = connectFaultClient(S.Rig->Port, C, S.Inputs.back());
      } else {
        Cl = net::NetClient::connectTcp("127.0.0.1", S.Rig->Port, 30.0,
                                        "exobench");
        if (Cl)
          if (Error E = declare(*Cl, S.Inputs.back()))
            Cl = std::move(E);
      }
    }
    if (!Cl)
      return Cl.takeError();
    S.Clients.push_back(std::move(*Cl));
  }
  for (net::NetClient &C : S.Clients)
    if (Error E = warmUp(C, WarmTag))
      return E;
  return S;
}

/// Times \p Reps setup-only repetitions into \p Out; each is torn down
/// untimed. \p Schedule0 seeds serve-faults' injectors (one per rep).
Error timeSetups(uint64_t Seed, bool Faulty, uint64_t Schedule0, unsigned Reps,
                 std::vector<double> &Out) {
  Tracer Off(false);
  for (unsigned K = 0; K < Reps; ++K) {
    std::unique_ptr<net::NetFault> F;
    if (Faulty)
      F = makeFault(Seed, Schedule0 + K);
    auto T0 = Clock::now();
    Expected<Served> S = serveUp(Seed, F.get(), Off, 0);
    Out.push_back(secondsSince(T0));
    if (!S)
      return S.takeError();
  }
  return Error::success();
}

/// Serve and net counters of one rig, summed across rigs.
struct ServerCounts {
  double Submitted = 0, Completed = 0, Rejected = 0, Coalesced = 0,
         FastLane = 0, Stalls = 0, Bytes = 0, DedupReplays = 0, Rebinds = 0,
         FaultsInjected = 0, SimMs = 0;

  void add(const ServerRig &R) {
    const serve::ServeStats &S = R.Server->server().stats();
    const net::NetStats &N = R.Server->netStats();
    Submitted += S.Submitted;
    Completed += S.Completed;
    Rejected += S.RejectedQueueFull + S.RejectedClientQuota +
                S.RejectedZeroBudget + S.RejectedDraining +
                S.RejectedCostOverDeadline + S.RejectedDeadlineExpired + S.Shed;
    Coalesced += S.CoalescedJobs;
    FastLane += S.FastLaneJobs;
    Stalls += N.BackpressureStalls;
    Bytes += N.BytesIn + N.BytesOut;
    DedupReplays += N.DedupReplays;
    Rebinds += N.InFlightRebinds;
    FaultsInjected += N.FaultsInjected;
    SimMs += R.RT.now() * 1e-6;
  }

  void add(const ServerCounts &O) {
    Submitted += O.Submitted;
    Completed += O.Completed;
    Rejected += O.Rejected;
    Coalesced += O.Coalesced;
    FastLane += O.FastLane;
    Stalls += O.Stalls;
    Bytes += O.Bytes;
    DedupReplays += O.DedupReplays;
    Rebinds += O.Rebinds;
    FaultsInjected += O.FaultsInjected;
    SimMs += O.SimMs;
  }
};

/// In-process floor: Runtime::dispatch of each class on a separate fast
/// Runtime, and the XJIT compile cost (first dispatch minus steady state).
struct DirectFloor {
  double SmallUs = 0, LargeUs = 0, CompileSmallMs = 0, CompileLargeMs = 0;
};

Expected<DirectFloor> measureDirect(uint64_t Seed, Tracer &T) {
  exo::ExoPlatform P;
  chi::Runtime RT(P);
  RT.setFeature(chi::Feature::Backend, 1);
  if (Error E = buildProgram(RT))
    return E;
  ConnInputs In = makeInputs(Seed, 0);
  std::map<std::string, uint32_t> Desc;
  auto Alloc = [&](const char *Name, const std::vector<int32_t> &V,
                   unsigned N) -> Error {
    exo::SharedBuffer B = P.allocateShared(N * 4, Name);
    std::vector<int32_t> Data = V.empty() ? std::vector<int32_t>(N, 0) : V;
    P.write(B.Base, Data.data(), N * 4);
    auto D = RT.allocDesc(chi::TargetIsa::X3000, B.Base,
                          chi::SurfaceMode::InputOutput, N, 1);
    if (!D)
      return D.takeError();
    Desc[Name] = *D;
    return Error::success();
  };
  for (auto [Name, V, N] :
       {std::tuple<const char *, std::vector<int32_t>, unsigned>{"A", In.A,
                                                                  SmallElems},
        {"B", In.B, SmallElems},
        {"C", {}, SmallElems},
        {"LA", In.LA, LargeElems},
        {"LC", {}, LargeElems}})
    if (Error E = Alloc(Name, V, N))
      return E;

  DirectFloor F;
  for (bool Large : {false, true}) {
    chi::RegionSpec S;
    S.KernelName = Large ? "strip" : "vecadd";
    S.NumThreads = Large ? LargeShreds : SmallShreds;
    S.Private["i"] = [](unsigned T) { return static_cast<int32_t>(T); };
    if (Large) {
      S.Firstprivate["k"] = 1;
      S.SharedDescs = {{"LA", Desc["LA"]}, {"LC", Desc["LC"]}};
    } else {
      S.SharedDescs = {{"A", Desc["A"]}, {"B", Desc["B"]}, {"C", Desc["C"]}};
    }
    std::vector<double> Us;
    double FirstUs = 0;
    for (unsigned N = 0; N < 201; ++N) {
      auto T0 = Clock::now();
      Expected<chi::RegionHandle> H = chi::RegionHandle(0);
      {
        Scope Sp(T, Large ? "chi.direct.large" : "chi.direct.small", N);
        H = RT.dispatch(S);
      }
      double D = std::chrono::duration<double, std::micro>(Clock::now() - T0)
                     .count();
      if (!H)
        return H.takeError();
      if (N == 0)
        FirstUs = D;
      else
        Us.push_back(D);
    }
    double Steady = median(Us);
    (Large ? F.LargeUs : F.SmallUs) = Steady;
    (Large ? F.CompileLargeMs : F.CompileSmallMs) = (FirstUs - Steady) / 1000;
  }
  return F;
}

/// Per-layer metrics both serving workloads report: the setup path
/// (connect + declares, XJIT compile), NetClient::submit, and the
/// in-process dispatch floor.
void servingCommonLayers(Metrics &L, const std::vector<Span> &Spans,
                         const DirectFloor &F) {
  std::vector<double> Self = selfTimesUs(Spans), ConnectMs, SubmitUs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (Spans[I].Name == "net.connect")
      ConnectMs.push_back(Self[I] / 1000.0);
    else if (Spans[I].Name == "net.submit")
      SubmitUs.push_back(Self[I]);
  }
  L.set("net.connect_ms", median(ConnectMs), "ms");
  L.set("net.submit_us", median(SubmitUs), "us");
  L.set("xjit.compile_ms.small", F.CompileSmallMs, "ms");
  L.set("xjit.compile_ms.large", F.CompileLargeMs, "ms");
  L.set("chi.direct_us.small", F.SmallUs, "us");
  L.set("chi.direct_us.large", F.LargeUs, "us");
}

//===----------------------------------------------------------------------===//
// serve-open
//===----------------------------------------------------------------------===//

/// One job as the open-loop generator saw it.
struct OpenRecord {
  Clock::time_point Due, Sent, Done;
  bool Answered = false, Completed = false, Large = false;
  bool Tail = false; ///< among the last tenth of its rung's jobs
  unsigned Rung = 0;
};

/// The offered rates of one sweep: the ladder, then the overload rungs.
/// A smoke run offers the first ladder rate and one overload rung.
std::vector<double> sweepRates(bool Smoke) {
  std::vector<double> R(std::begin(Ladder), std::end(Ladder));
  if (Smoke)
    R.resize(1);
  R.insert(R.end(), Smoke ? 1 : OverloadRungs, OverloadRate);
  return R;
}

/// Rungs of \p Rates before the first overload rung.
unsigned ladderRungs(const std::vector<double> &Rates) {
  return static_cast<unsigned>(
      std::find(Rates.begin(), Rates.end(), OverloadRate) - Rates.begin());
}

struct SweepOut {
  double SetupS = 0;
  double SweepS = 0; ///< the whole sweep: schedule plus drains
  /// Each overload rung's drain, from its first scheduled send to its
  /// last Result, and the jobs it completed.
  std::vector<double> DrainS, DrainCompleted;
  double LagP99Ms = 0; ///< how late the sender ran at the reference rung
  std::vector<OpenRecord> Jobs;
  ServerCounts Counts;
  std::string Error;
};

/// One sweep of the ladder and the overload rung against a fresh server.
SweepOut runSweep(uint64_t Seed, uint64_t SweepNo, bool Smoke, Tracer &T) {
  SweepOut Out;
  std::vector<double> Rates = sweepRates(Smoke);
  unsigned NumRungs = static_cast<unsigned>(Rates.size());
  // Jobs of rung Rg are [First[Rg], First[Rg + 1]).
  std::vector<unsigned> First = {0};
  for (unsigned Rg = 0; Rg < NumRungs; ++Rg)
    First.push_back(First.back() + (Smoke ? 20 : JobsPerRung));

  auto S0 = Clock::now();
  Expected<Served> Sv = serveUp(Seed, nullptr, T, SweepNo);
  Out.SetupS = secondsSince(S0);
  if (!Sv) {
    Out.Error = Sv.message();
    return Out;
  }
  ServerRig &Rig = *Sv->Rig;
  std::vector<net::NetClient> &Clients = Sv->Clients;

  unsigned Total = First.back();
  std::vector<Job> Mix = makeMix(Seed ^ (SweepNo << 32), Total);
  Out.Jobs.resize(Total);
  std::atomic<unsigned> Answered{0};
  std::atomic<bool> ReadFailed{false};
  std::string ReadError;
  std::mutex ErrMu;

  // Readers: one per connection, each expects every job routed to it.
  std::vector<std::thread> Readers;
  for (unsigned C = 0; C < OpenConns; ++C)
    Readers.emplace_back([&, C] {
      unsigned Mine = 0;
      for (unsigned J = 0; J < Total; ++J)
        Mine += (J % OpenConns == C);
      for (unsigned K = 0; K < Mine; ++K) {
        auto R = Clients[C].readResult();
        auto Now = Clock::now();
        if (!R || R->Tag >= Total || Out.Jobs[R->Tag].Answered) {
          std::lock_guard<std::mutex> L(ErrMu);
          ReadError = !R ? R.message()
                         : formatString("unexpected or repeated tag %llu",
                                        static_cast<unsigned long long>(R->Tag));
          ReadFailed = true;
          return;
        }
        OpenRecord &Rec = Out.Jobs[R->Tag];
        Rec.Done = Now;
        Rec.Completed =
            static_cast<serve::JobState>(R->State) == serve::JobState::Completed;
        Rec.Answered = true;
        ++Answered;
      }
    });

  // Sender: the seeded Poisson schedule, rung by rung. Each rung starts
  // once the previous one is fully answered, so rungs do not overlap.
  auto W0 = Clock::now();
  std::string SendError;
  Rng Gaps(Seed * 0xbf58476d1ce4e5b9ull + SweepNo * 131 + 7);
  for (unsigned Rg = 0; Rg < NumRungs && SendError.empty(); ++Rg) {
    while (Answered.load() < First[Rg] && !ReadFailed.load())
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    if (ReadFailed.load())
      break;
    double Rate = Rates[Rg];
    auto Due = Clock::now();
    unsigned N = First[Rg + 1] - First[Rg];
    for (unsigned K = 0; K < N; ++K) {
      unsigned J = First[Rg] + K;
      double Gap = -std::log(1.0 - Gaps.nextDouble()) / Rate;
      Due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(Gap));
      std::this_thread::sleep_until(Due);
      OpenRecord &Rec = Out.Jobs[J];
      Rec.Due = Due;
      Rec.Rung = Rg;
      Rec.Large = Mix[J].Large;
      Rec.Tail = K >= N - N / 10;
      Rec.Sent = Clock::now();
      Error E = Error::success();
      {
        Scope Sp(T, "net.submit", J);
        E = Clients[J % OpenConns].submit(submitMsg(Mix[J], J));
      }
      if (E) {
        SendError = E.message();
        break;
      }
    }
  }
  if (!SendError.empty()) {
    // Unblock the readers: closing the server ends their reads.
    Rig.stop();
  }
  for (std::thread &R : Readers)
    R.join();
  Out.SweepS = secondsSince(W0);
  if (!SendError.empty() || ReadFailed) {
    Out.Error = !SendError.empty() ? SendError : ReadError;
    return Out;
  }
  std::vector<double> Lag;
  for (size_t J = 0; J < Total; ++J) {
    const OpenRecord &Rec = Out.Jobs[J];
    T.record("job", Rec.Due, Rec.Done, J);
    if (Rec.Rung == RefRung)
      Lag.push_back(msBetween(Rec.Due, Rec.Sent));
  }
  Out.LagP99Ms = percentile(Lag, 0.99);
  for (unsigned Rg = ladderRungs(Rates); Rg < NumRungs; ++Rg) {
    Clock::time_point LastDone = Out.Jobs[First[Rg]].Due;
    double Completed = 0;
    for (unsigned J = First[Rg]; J < First[Rg + 1]; ++J) {
      LastDone = std::max(LastDone, Out.Jobs[J].Done);
      Completed += Out.Jobs[J].Completed;
    }
    Out.DrainS.push_back(msBetween(Out.Jobs[First[Rg]].Due, LastDone) / 1000);
    Out.DrainCompleted.push_back(Completed);
  }

  // --- Correctness: fetch and check every connection's outputs. -------
  for (unsigned C = 0; C < OpenConns; ++C) {
    Expect X;
    for (unsigned J = C; J < Total; J += OpenConns)
      if (Out.Jobs[J].Completed)
        X.completed(Mix[J]);
    if (Error E = checkOutputs(Clients[C], Sv->Inputs[C], X, C)) {
      Out.Error = E.message();
      return Out;
    }
  }
  for (net::NetClient &C : Clients)
    (void)C.bye();
  Rig.stop();
  Out.Counts.add(Rig);
  return Out;
}

} // namespace

RunResult runServeOpen(const Options &O, Tracer &T) {
  RunResult R;
  Tracer Off(false);
  auto Now = Clock::now();
  auto Deadline = Now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(O.Seconds));
  // Stalled sweeps are discarded; a run that has kept none by three times
  // --seconds fails.
  auto GiveUp = Now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(3 * O.Seconds));
  std::vector<SweepOut> Plain, Traced;
  std::vector<double> SetupS;
  unsigned Stalled = 0;
  double WorstLagMs = 0;
  unsigned MinSweeps = O.Smoke ? 1 : 3;
  for (uint64_t N = 0;; ++N) {
    bool UseTrace = O.Trace && N % 2 == 1;
    SweepOut S = runSweep(O.Seed, N + 1, O.Smoke, UseTrace ? T : Off);
    releaseFreedMemory();
    R.Attempted += S.Jobs.size();
    if (!S.Error.empty()) {
      R.Error = S.Error;
      return R;
    }
    for (const OpenRecord &J : S.Jobs)
      R.Failed += !J.Completed;
    if (Error E = timeSetups(O.Seed, false, 0, O.Smoke ? 1 : OpenSetupReps,
                             SetupS)) {
      R.Error = E.message();
      return R;
    }
    releaseFreedMemory();
    if (!UseTrace)
      SetupS.push_back(S.SetupS);
    // A sweep whose sender the host stalled measured the host, not the
    // server: discard it (smoke runs share the machine with other tests
    // and keep every sweep).
    WorstLagMs = std::max(WorstLagMs, S.LagP99Ms);
    if (!O.Smoke && S.LagP99Ms > LagLimitMs)
      ++Stalled;
    else
      (UseTrace ? Traced : Plain).push_back(std::move(S));
    if (O.Smoke && Plain.size() + Traced.size() >= 2)
      break;
    if (N + 1 >= MinSweeps && Clock::now() >= Deadline && !Plain.empty() &&
        (!O.Trace || !Traced.empty()))
      break;
    if (Clock::now() >= GiveUp) {
      R.Error = formatString("the load generator lagged more than %g ms "
                             "behind its schedule in %u of %llu sweeps: the "
                             "host is too loaded to measure serving latency",
                             LagLimitMs, Stalled,
                             static_cast<unsigned long long>(N + 1));
      return R;
    }
  }

  // Per rung: each sweep's percentiles. The ladder rule takes the median
  // over sweeps of p99 and tail p50, so one sweep hit by a host stall
  // cannot fail a rung.
  std::vector<double> Rates = sweepRates(O.Smoke);
  unsigned NumRungs = static_cast<unsigned>(Rates.size());
  struct LadderOut {
    std::vector<Rung> Rungs;
    /// [rung][sweep] latency percentiles.
    std::vector<std::vector<double>> P50, P95, P99;
    size_t Samples = 0; ///< completed jobs behind the first rung's figures
  };
  auto RungStats = [&](const std::vector<SweepOut> &Sweeps) {
    LadderOut Out;
    Out.Rungs.resize(NumRungs);
    Out.P50.resize(NumRungs);
    Out.P95.resize(NumRungs);
    Out.P99.resize(NumRungs);
    std::vector<std::vector<double>> TailP50(NumRungs);
    for (const SweepOut &S : Sweeps) {
      std::vector<std::vector<double>> Lat(NumRungs), Tail(NumRungs);
      for (const OpenRecord &Rec : S.Jobs) {
        Rung &Rg = Out.Rungs[Rec.Rung];
        ++Rg.Attempted;
        if (!Rec.Completed) {
          ++Rg.Failed;
          continue;
        }
        double Ms = msBetween(Rec.Due, Rec.Done);
        Lat[Rec.Rung].push_back(Ms);
        if (Rec.Tail)
          Tail[Rec.Rung].push_back(Ms);
      }
      for (unsigned K = 0; K < NumRungs; ++K) {
        Out.P50[K].push_back(median(Lat[K]));
        Out.P95[K].push_back(percentile(Lat[K], 0.95));
        Out.P99[K].push_back(percentile(Lat[K], 0.99));
        TailP50[K].push_back(median(Tail[K]));
      }
      Out.Samples += Lat[0].size();
    }
    for (unsigned K = 0; K < NumRungs; ++K) {
      Out.Rungs[K].RateJobsS = Rates[K];
      Out.Rungs[K].P99Ms = median(Out.P99[K]);
      Out.Rungs[K].TailP50Ms = median(TailP50[K]);
    }
    // The ladder rule sees the ladder only, not the overload rungs.
    Out.Rungs.resize(ladderRungs(Rates));
    return Out;
  };
  LadderOut Lad = RungStats(Plain);
  unsigned Ref = RefRung;

  std::vector<double> SweepS, DrainS, Goodput, SimMs, Lag;
  for (const SweepOut &S : Plain) {
    SweepS.push_back(S.SweepS);
    for (size_t K = 0; K < S.DrainS.size(); ++K) {
      DrainS.push_back(S.DrainS[K]);
      Goodput.push_back(S.DrainCompleted[K] / S.DrainS[K]);
    }
    SimMs.push_back(S.Counts.SimMs);
    Lag.push_back(S.LagP99Ms);
  }
  R.EndToEnd.set("setup_s", median(SetupS), "s");
  // Capacity: the median overload rung's drain. Drains last about 0.2 s;
  // their best swung more between runs than their median.
  R.EndToEnd.set("wall_s", median(DrainS), "s");
  R.EndToEnd.set("sim_ms", median(SimMs), "sim-ms");
  // Latency at the reference rung is the best sweep's: sweeps run the
  // same rates on seeded schedules of 1000 jobs, and host noise (stolen
  // vCPU time on a shared VM) only ever adds latency. The median sweep
  // swung 25-30% between runs; the best sweep about 5%.
  R.EndToEnd.set("p50_ms", best(Lad.P50[Ref]), "ms");
  R.EndToEnd.set("p95_ms", best(Lad.P95[Ref]), "ms");
  R.EndToEnd.set("goodput_jobs_s", median(Goodput), "jobs/s");
  R.Info.set("reference_rate_jobs_s", Ladder[Ref], "jobs/s");
  R.Info.set("latency_samples_per_rung", static_cast<double>(Lad.Samples),
             "count");
  R.Info.set("sweeps", static_cast<double>(Plain.size()), "count");
  R.Info.set("stalled_sweeps", Stalled, "count");
  R.Info.set("gen.lag_p99_ms.worst", WorstLagMs, "ms");
  R.Info.set("setups", static_cast<double>(SetupS.size()), "count");
  R.Info.set("sweep_s.median", median(SweepS), "s");
  R.Info.set("wall_s.best", best(DrainS), "s");
  R.Info.set("max_rate_jobs_s", maxPassingRate(Lad.Rungs, P99LimitMs),
             "jobs/s");
  R.Info.set("gen.lag_p99_ms", median(Lag), "ms");
  for (unsigned K = 0; K < ladderRungs(Rates); ++K) {
    R.Info.set(formatString("rung.%g.p50_ms", Rates[K]), median(Lad.P50[K]),
               "ms");
    R.Info.set(formatString("rung.%g.p99_ms", Rates[K]), Lad.Rungs[K].P99Ms,
               "ms");
    R.Info.set(formatString("rung.%g.tail_p50_ms", Rates[K]),
               Lad.Rungs[K].TailP50Ms, "ms");
  }

  if (!O.Trace)
    return R;

  Metrics &L = R.PerLayer;
  auto Floor = measureDirect(O.Seed, T);
  if (!Floor) {
    R.Error = Floor.message();
    return R;
  }
  std::vector<Span> Spans = T.spans();
  ServerCounts C;
  std::vector<double> TLag;
  std::vector<double> ClassLat[2];
  for (const SweepOut &S : Traced) {
    C.add(S.Counts);
    TLag.push_back(S.LagP99Ms);
    for (const OpenRecord &J : S.Jobs)
      if (J.Rung == Ref && J.Completed)
        ClassLat[J.Large].push_back(msBetween(J.Due, J.Done) * 1000.0);
  }
  double Jobs = C.Submitted > 0 ? C.Submitted : 1;
  servingCommonLayers(L, Spans, *Floor);
  L.set("serve.path_overhead_us.small", median(ClassLat[0]) - Floor->SmallUs,
        "us");
  L.set("serve.path_overhead_us.large", median(ClassLat[1]) - Floor->LargeUs,
        "us");
  L.set("serve.coalesce_ratio", C.Completed > 0 ? C.Coalesced / C.Completed : 0,
        "ratio");
  L.set("serve.fast_lane_frac", C.Completed > 0 ? C.FastLane / C.Completed : 0,
        "ratio");
  L.set("serve.rejected_frac", C.Rejected / Jobs, "ratio");
  L.set("net.backpressure_stalls", C.Stalls / Traced.size(), "count");
  L.set("net.bytes_per_job", C.Bytes / Jobs, "B");
  L.set("gen.lag_p99_ms", median(TLag), "ms");
  L.set("lat.p99_ms", best(Lad.P99[Ref]), "ms");
  L.set("max_rate_jobs_s", maxPassingRate(Lad.Rungs, P99LimitMs), "jobs/s");
  double PlainP50 = best(Lad.P50[Ref]);
  double TracedP50 = best(RungStats(Traced).P50[Ref]);
  L.set("trace.overhead_pct",
        PlainP50 > 0 ? (TracedP50 / PlainP50 - 1.0) * 100.0 : 0, "%");
  return R;
}

//===----------------------------------------------------------------------===//
// serve-faults
//===----------------------------------------------------------------------===//

namespace {

struct BatchOut {
  double SetupS = 0, WallS = 0;
  std::vector<net::NetFaultSite> Fired; ///< sorted
  std::vector<double> LatMs, RecoveryMs;
  uint64_t Jobs = 0, Completed = 0, Resubmits = 0, Reconnects = 0;
  ServerCounts Counts;
  std::string Error;
};

/// One connection of a serve-faults batch: closed loop, fixed window.
struct FaultConn {
  std::vector<double> LatMs, RecoveryMs;
  uint64_t Completed = 0, Resubmits = 0, Reconnects = 0;
  std::string Error;
};

void runFaultConn(net::NetClient &C, const ConnInputs &In, unsigned Conn,
                  uint64_t Seed, unsigned Jobs, Tracer &T, uint64_t BatchNo,
                  FaultConn &Out) {
  std::vector<Job> Mix = makeMix(Seed + Conn * 0x10001, Jobs);
  std::vector<Clock::time_point> SentAt(Jobs);
  std::vector<unsigned> Answers(Jobs, 0);
  std::vector<bool> Retried(Jobs, false);
  std::set<uint64_t> Outstanding;
  // A sliding window: tag Next may be sent only while the oldest
  // unanswered tag is fewer than Window tags behind it. A lost Result
  // therefore stalls the connection after Window - 1 more answers (until
  // the client's call timeout or a reconnect recovers it) instead of
  // lingering outstanding while the server's bounded dedup cache evicts
  // its answer — which would turn the retry into a second execution.
  unsigned Next = 0, Done = 0, Oldest = 0;
  Expect X;
  while (Done < Jobs) {
    while (Oldest < Jobs && Answers[Oldest])
      ++Oldest;
    while (Next < Jobs && Next < Oldest + Window) {
      SentAt[Next] = Clock::now();
      Error E = Error::success();
      {
        Scope Sp(T, "net.submit", BatchNo * 1000000 + Next);
        E = C.submit(submitMsg(Mix[Next], Next));
      }
      if (E) {
        Out.Error = E.message();
        return;
      }
      Outstanding.insert(Next++);
    }
    uint64_t Before = C.clientStats().Reconnects;
    auto R = C.readResult();
    if (!R) {
      Out.Error = R.message();
      return;
    }
    if (C.clientStats().Reconnects != Before)
      for (uint64_t Tag : Outstanding)
        Retried[Tag] = true;
    if (R->Tag >= Jobs || ++Answers[R->Tag] != 1) {
      Out.Error = formatString("tag %llu answered more than once",
                               static_cast<unsigned long long>(R->Tag));
      return;
    }
    Outstanding.erase(R->Tag);
    ++Done;
    auto Now = Clock::now();
    double Ms = std::chrono::duration<double, std::milli>(Now - SentAt[R->Tag])
                    .count();
    T.record("job", SentAt[R->Tag], Now, BatchNo * 1000000 + R->Tag);
    if (static_cast<serve::JobState>(R->State) != serve::JobState::Completed)
      continue;
    ++Out.Completed;
    Out.LatMs.push_back(Ms);
    if (Retried[R->Tag] || R->Replayed)
      Out.RecoveryMs.push_back(Ms);
    X.completed(Mix[R->Tag]);
  }
  if (Error E = checkOutputs(C, In, X, Conn)) {
    Out.Error = E.message();
    return;
  }
  Out.Resubmits = C.clientStats().Resubmits;
  Out.Reconnects = C.clientStats().Reconnects;
  (void)C.bye();
}

/// One batch against a fresh server. Its fault schedule is seeded by
/// (\p Seed, \p Schedule): consecutive batch pairs share a schedule, so a
/// run covers many schedules and checks that each one replays.
BatchOut runBatch(uint64_t Seed, uint64_t Schedule, uint64_t BatchNo,
                  bool Smoke, Tracer &T) {
  BatchOut Out;
  unsigned Jobs = Smoke ? 40 : FaultJobsPerConn;
  std::unique_ptr<net::NetFault> F = makeFault(Seed, Schedule);

  auto S0 = Clock::now();
  Expected<Served> Sv = serveUp(Seed, F.get(), T, BatchNo);
  Out.SetupS = secondsSince(S0);
  if (!Sv) {
    Out.Error = Sv.message();
    return Out;
  }
  ServerRig &Rig = *Sv->Rig;
  std::vector<net::NetClient> &Clients = Sv->Clients;
  const std::vector<ConnInputs> &Inputs = Sv->Inputs;

  auto W0 = Clock::now();
  std::vector<FaultConn> CO(FaultConns);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < FaultConns; ++C)
    Threads.emplace_back(runFaultConn, std::ref(Clients[C]),
                         std::cref(Inputs[C]), C, Seed, Jobs, std::ref(T),
                         BatchNo, std::ref(CO[C]));
  for (std::thread &Th : Threads)
    Th.join();
  Out.WallS = secondsSince(W0);
  Rig.stop();
  Out.Fired = F->firedSorted();
  for (FaultConn &C : CO) {
    if (!C.Error.empty()) {
      Out.Error = C.Error;
      return Out;
    }
    Out.LatMs.insert(Out.LatMs.end(), C.LatMs.begin(), C.LatMs.end());
    Out.RecoveryMs.insert(Out.RecoveryMs.end(), C.RecoveryMs.begin(),
                          C.RecoveryMs.end());
    Out.Completed += C.Completed;
    Out.Resubmits += C.Resubmits;
    Out.Reconnects += C.Reconnects;
  }
  Out.Jobs = static_cast<uint64_t>(Jobs) * FaultConns;
  Out.Counts.add(Rig);
  // Exactly-once at the server: no job ran twice (retries were answered
  // from the dedup cache or rebound to the running original).
  double Expected = static_cast<double>(Out.Completed) + 2 * FaultConns; // warm-up
  if (Out.Counts.Completed != Expected)
    Out.Error = formatString("server completed %.0f jobs for %.0f answered: "
                             "a retried job executed twice",
                             Out.Counts.Completed, Expected);
  return Out;
}

} // namespace

RunResult runServeFaults(const Options &O, Tracer &T) {
  RunResult R;
  Tracer Off(false);
  auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(O.Seconds));
  std::vector<BatchOut> Plain, Traced;
  std::vector<double> SetupS;
  unsigned MinBatches = 4; // two schedules, each replayed once
  std::vector<net::NetFaultSite> PairFired;
  for (uint64_t N = 0;; ++N) {
    bool UseTrace = O.Trace && N % 2 == 1;
    BatchOut B = runBatch(O.Seed, N / 2, N + 1, O.Smoke, UseTrace ? T : Off);
    releaseFreedMemory();
    if (!B.Error.empty()) {
      R.Error = B.Error;
      return R;
    }
    // The second batch of a pair replays the first one's fault schedule.
    // How many Result frames a session sends depends on timing (replays
    // after a reconnect add frames), so compare the decisions every run
    // is certain to reach: each session's first Jobs/2 Result frames.
    unsigned Reached = (O.Smoke ? 40 : FaultJobsPerConn) / 2;
    auto Prefix = [Reached](const std::vector<net::NetFaultSite> &All) {
      std::vector<net::NetFaultSite> P;
      for (const net::NetFaultSite &S : All)
        if (S.Occurrence < Reached)
          P.push_back(S);
      return P;
    };
    if (N % 2 == 0) {
      PairFired = Prefix(B.Fired);
    } else if (Prefix(B.Fired) != PairFired) {
      R.Error = formatString("fault schedule %llu did not replay: %zu vs %zu "
                             "faults in the first %u Result frames per "
                             "session",
                             static_cast<unsigned long long>(N / 2),
                             Prefix(B.Fired).size(), PairFired.size(),
                             Reached);
      return R;
    }
    R.Attempted += B.Jobs;
    R.Failed += B.Jobs - B.Completed;
    // Setup-only repetitions, each on a fault schedule of its own.
    if (Error E = timeSetups(O.Seed, true, (1ull << 32) + N * FaultSetupReps,
                             O.Smoke ? 1 : FaultSetupReps, SetupS)) {
      R.Error = E.message();
      return R;
    }
    releaseFreedMemory();
    if (!UseTrace)
      SetupS.push_back(B.SetupS);
    (UseTrace ? Traced : Plain).push_back(std::move(B));
    size_t Done = Plain.size() + Traced.size();
    if (O.Smoke && Done >= 2)
      break;
    if (Done >= MinBatches && Done % 2 == 0 && Clock::now() >= Deadline)
      break;
  }

  // Each batch's p50 / p99, then the median over batches.
  std::vector<double> WallS, SimMs, P50, P95, P99, Faults;
  double Completed = 0, Wall = 0, Samples = 0;
  for (const BatchOut &B : Plain) {
    WallS.push_back(B.WallS);
    SimMs.push_back(B.Counts.SimMs);
    P50.push_back(median(B.LatMs));
    P95.push_back(percentile(B.LatMs, 0.95));
    P99.push_back(percentile(B.LatMs, 0.99));
    Samples += static_cast<double>(B.LatMs.size());
    Completed += static_cast<double>(B.Completed);
    Wall += B.WallS;
    Faults.push_back(B.Counts.FaultsInjected);
  }
  R.EndToEnd.set("setup_s", median(SetupS), "s");
  R.EndToEnd.set("wall_s", median(WallS), "s");
  R.EndToEnd.set("sim_ms", median(SimMs), "sim-ms");
  R.EndToEnd.set("p50_ms", median(P50), "ms");
  R.EndToEnd.set("p95_ms", median(P95), "ms");
  R.EndToEnd.set("goodput_jobs_s", Completed / Wall, "jobs/s");
  R.Info.set("latency_samples_per_batch", Samples / Plain.size(), "count");
  std::vector<double> Pooled;
  for (const BatchOut &B : Plain)
    Pooled.insert(Pooled.end(), B.LatMs.begin(), B.LatMs.end());
  // The timeout tail: Results lost with no reconnect to rescue them wait
  // out the client's call timeout.
  R.Info.set("p999_ms", percentile(Pooled, 0.999), "ms");
  R.Info.set("batches", static_cast<double>(Plain.size()), "count");
  R.Info.set("setups", static_cast<double>(SetupS.size()), "count");
  R.Info.set("net.faults_injected.min", *std::min_element(Faults.begin(), Faults.end()), "count");
  R.Info.set("net.faults_injected.max", *std::max_element(Faults.begin(), Faults.end()), "count");

  if (!O.Trace)
    return R;

  Metrics &L = R.PerLayer;
  auto Floor = measureDirect(O.Seed, T);
  if (!Floor) {
    R.Error = Floor.message();
    return R;
  }
  servingCommonLayers(L, T.spans(), *Floor);
  L.set("lat.p99_ms", median(P99), "ms");
  std::vector<double> Rec, Amp, Reconn, Dedup, Rebind, Inj;
  for (const BatchOut &B : Traced) {
    Rec.insert(Rec.end(), B.RecoveryMs.begin(), B.RecoveryMs.end());
    Amp.push_back(1.0 + static_cast<double>(B.Resubmits) / B.Jobs);
    Reconn.push_back(static_cast<double>(B.Reconnects));
    Dedup.push_back(B.Counts.DedupReplays);
    Rebind.push_back(B.Counts.Rebinds);
    Inj.push_back(B.Counts.FaultsInjected);
  }
  L.set("net.retry_amp", median(Amp), "ratio");
  L.set("net.reconnects", median(Reconn), "count");
  L.set("net.dedup_replays", median(Dedup), "count");
  L.set("net.inflight_rebinds", median(Rebind), "count");
  L.set("net.recovery_ms", median(Rec), "ms");
  L.set("net.faults_injected", median(Inj), "count");
  std::vector<double> TWall;
  for (const BatchOut &B : Traced)
    TWall.push_back(B.WallS);
  L.set("trace.overhead_pct", (median(TWall) / median(WallS) - 1.0) * 100.0,
        "%");
  return R;
}

} // namespace exobench
