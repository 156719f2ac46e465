//===- tests/parallel_sim_test.cpp - Epoch-schedule golden tests -----------===//
//
// Golden tests of the epoch-based GMA engine's determinism contract
// (DESIGN.md, "Epoch schedule & determinism contract"). Three workloads
// that stress every shared-resource interaction the resolve phase
// arbitrates — ATR-miss-heavy streaming, a CEH exception storm, and an
// xmit/wait + spawn + shared-sampler mix — run on a fresh device, and
// every observable is compared bit for bit against constants captured
// from the multi-threaded epoch engine this serial engine replaced:
// the full GmaRunStats, a hash of the output memory, and a hash of the
// shred trace. A change to the canonical schedule (the resolve order,
// the horizon, any arbitration rule) changes these constants; such a
// change must be deliberate and re-capture them.
//
//===----------------------------------------------------------------------===//

#include "gma/GmaDevice.h"

#include "mem/AddressSpace.h"
#include "xasm/Assembler.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

using namespace exochi;
using namespace exochi::gma;

namespace {

/// ATR/CEH proxy mirroring the one in gma_test.cpp: demand-pages through
/// an Ia32AddressSpace and emulates f64 adds.
class TestProxy : public ProxySignalHandler {
public:
  explicit TestProxy(mem::Ia32AddressSpace &AS) : AS(AS) {}

  Expected<mem::TimeNs> onTranslationMiss(mem::VirtAddr Va, bool IsWrite,
                                          mem::GpuMemType MemType,
                                          mem::Tlb &Tlb) override {
    ++Misses;
    mem::PageFault F;
    auto T = AS.translate(Va, IsWrite, &F);
    if (!T) {
      if (!AS.handleFault(F))
        return Error::make("unserviceable fault");
      T = AS.translate(Va, IsWrite);
      if (!T)
        return T.takeError();
    }
    auto Pte = mem::transcodePteIa32ToGpu(T->Pte, MemType);
    if (!Pte)
      return Pte.takeError();
    Tlb.insert(mem::pageNumber(Va), *Pte);
    return 500.0;
  }

  Expected<mem::TimeNs> onException(const ExceptionInfo &Info,
                                    ShredRegView &Regs) override {
    ++Exceptions;
    if (Info.Kind != ExceptionKind::UnsupportedType ||
        Info.Instr.Op != isa::Opcode::Add ||
        Info.Instr.Ty != isa::ElemType::F64)
      return Error::make("test proxy only emulates f64 add");
    const isa::Instruction &I = Info.Instr;
    for (unsigned L = 0; L < I.Width; ++L) {
      auto ReadF64 = [&](const isa::Operand &O) {
        unsigned R = O.Reg0 + 2 * L;
        uint64_t Bits = Regs.readReg(R) |
                        (static_cast<uint64_t>(Regs.readReg(R + 1)) << 32);
        double D;
        std::memcpy(&D, &Bits, 8);
        return D;
      };
      double Result = ReadF64(I.Src0) + ReadF64(I.Src1);
      uint64_t Bits;
      std::memcpy(&Bits, &Result, 8);
      unsigned R = I.Dst.Reg0 + 2 * L;
      Regs.writeReg(R, static_cast<uint32_t>(Bits));
      Regs.writeReg(R + 1, static_cast<uint32_t>(Bits >> 32));
    }
    return 2000.0;
  }

  mem::Ia32AddressSpace &AS;
  unsigned Misses = 0;
  unsigned Exceptions = 0;
};

/// Fresh platform per run: nothing may carry over from an earlier test.
struct Rig {
  explicit Rig(GmaConfig Config = GmaConfig())
      : AS(PM), Device(Config, PM, Bus), Proxy(AS) {
    Device.setProxyHandler(&Proxy);
    Device.setTracer(&Tracer);
  }

  mem::VirtAddr alloc(uint64_t Bytes) {
    mem::VirtAddr Va = Allocator.allocate(Bytes);
    AS.reserve(Va, (Bytes + mem::PageSize - 1) & ~mem::PageOffsetMask,
               /*Writable=*/true, "test");
    return Va;
  }

  uint32_t loadKernel(const char *Asm, const xasm::SymbolBindings &Binds,
                      std::string Name) {
    auto K = xasm::assembleKernel(Asm, Binds);
    EXPECT_TRUE(static_cast<bool>(K)) << K.message();
    KernelImage Img;
    Img.Code = K->Code;
    Img.Name = std::move(Name);
    return Device.registerKernel(std::move(Img));
  }

  mem::PhysicalMemory PM;
  mem::MemoryBus Bus;
  mem::Ia32AddressSpace AS;
  mem::VirtualAllocator Allocator;
  GmaDevice Device;
  TestProxy Proxy;
  TraceRecorder Tracer;
};

/// FNV-1a over \p N bytes, continuing from \p H.
uint64_t fnv(uint64_t H, const void *Data, size_t N) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t K = 0; K < N; ++K)
    H = (H ^ P[K]) * 0x100000001b3ull;
  return H;
}
constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;

template <typename T> uint64_t fnvValue(uint64_t H, const T &V) {
  return fnv(H, &V, sizeof(V));
}

/// Everything a run makes observable, reduced to comparable values:
/// stats in full, surface memory and the shred trace as hashes (doubles
/// hashed by bit pattern: the contract is bit-identity).
struct Observed {
  GmaRunStats Stats;
  uint64_t MemoryHash = 0;
  uint64_t TraceHash = 0;
  size_t Spans = 0;
  unsigned ProxyMisses = 0;
  unsigned ProxyExceptions = 0;
};

Observed observe(Rig &R, mem::VirtAddr Base, uint64_t Bytes) {
  Observed O;
  O.Stats = R.Device.stats();
  std::vector<uint8_t> Memory(Bytes);
  R.AS.read(Base, Memory.data(), Bytes);
  O.MemoryHash = fnv(FnvBasis, Memory.data(), Memory.size());
  uint64_t H = FnvBasis;
  for (const ShredSpan &S : R.Tracer.spans()) {
    H = fnvValue(H, S.Device);
    H = fnvValue(H, S.Eu);
    H = fnvValue(H, S.Slot);
    H = fnvValue(H, S.ShredId);
    H = fnv(H, S.Kernel.data(), S.Kernel.size());
    H = fnvValue(H, S.StartNs);
    H = fnvValue(H, S.EndNs);
  }
  O.TraceHash = H;
  O.Spans = R.Tracer.spans().size();
  O.ProxyMisses = R.Proxy.Misses;
  O.ProxyExceptions = R.Proxy.Exceptions;
  return O;
}

/// Renders \p S as the designated initializer the golden constants use
/// (doubles as exact hex-float literals), so a deliberate schedule change
/// can re-capture them from the failure message.
std::string statsLiteral(const GmaRunStats &S) {
  std::string Out = "{";
  auto Field = [&](const char *Name, const std::string &V) {
    Out += std::string(Out.size() > 1 ? ", " : "") + "." + Name + " = " + V;
  };
  auto U = [](uint64_t V) { return std::to_string(V) + "u"; };
  auto D = [](double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%a", V);
    return std::string(Buf);
  };
  Field("StartNs", D(S.StartNs));
  Field("FinishNs", D(S.FinishNs));
  Field("ShredsExecuted", U(S.ShredsExecuted));
  Field("Instructions", U(S.Instructions));
  Field("MemoryOps", U(S.MemoryOps));
  Field("BytesLoaded", U(S.BytesLoaded));
  Field("BytesStored", U(S.BytesStored));
  Field("TlbMisses", U(S.TlbMisses));
  Field("ProxyCalls", U(S.ProxyCalls));
  Field("ExceptionsHandled", U(S.ExceptionsHandled));
  Field("CacheHits", U(S.CacheHits));
  Field("CacheMisses", U(S.CacheMisses));
  Field("SamplerOps", U(S.SamplerOps));
  Field("IssueCycles", D(S.IssueCycles));
  Field("ProxyStallNs", D(S.ProxyStallNs));
  Field("OfflinedEus", "{}"); // injection is off in every workload
  return Out + "}";
}

/// Bit-exact comparison against the golden constants (GmaRunStats is
/// compared field-wise with ==, doubles included).
void expectGolden(const Observed &O, const Observed &Golden) {
  EXPECT_TRUE(O.Stats == Golden.Stats)
      << "stats diverge from the golden schedule; observed:\n"
      << statsLiteral(O.Stats);
  EXPECT_EQ(O.MemoryHash, Golden.MemoryHash);
  EXPECT_EQ(O.TraceHash, Golden.TraceHash);
  EXPECT_EQ(O.Spans, Golden.Spans);
  EXPECT_EQ(O.ProxyMisses, Golden.ProxyMisses);
  EXPECT_EQ(O.ProxyExceptions, Golden.ProxyExceptions);
}

} // namespace

//===----------------------------------------------------------------------===//
// Workload 1: ATR-miss-heavy vector add
//===----------------------------------------------------------------------===//

const Observed GoldenVectorAdd = {
    .Stats = {.StartNs = 0x0p+0, .FinishNs = 0x1.37e590b21642dp+13,
              .ShredsExecuted = 512u, .Instructions = 3072u,
              .MemoryOps = 1536u, .BytesLoaded = 32768u,
              .BytesStored = 16384u, .TlbMisses = 12u, .ProxyCalls = 12u,
              .ExceptionsHandled = 0u, .CacheHits = 768u, .CacheMisses = 512u,
              .SamplerOps = 0u, .IssueCycles = 0x1.1p+12,
              .ProxyStallNs = 0x1.77p+12, .OfflinedEus = {}},
    .MemoryHash = 0xbeeb4a904f7887e5ull,
    .TraceHash = 0xbc64d82ee2dff58eull,
    .Spans = 512,
    .ProxyMisses = 12,
    .ProxyExceptions = 0};

// Many shreds streaming over multiple pages: every page's first touch
// raises an ATR proxy call, and the shared cache, bus, and TLB are under
// constant contention — the arbitration-order stress case.
TEST(ParallelSimTest, VectorAddWithAtrMissesIsBitIdentical) {
  constexpr unsigned N = 4096; // 16 KiB per surface = 4 pages each
  Rig R;
  mem::VirtAddr A = R.alloc(N * 4), B = R.alloc(N * 4), C = R.alloc(N * 4);
  for (unsigned K = 0; K < N; ++K) {
    R.AS.store<int32_t>(A + K * 4, static_cast<int32_t>(K * 3));
    R.AS.store<int32_t>(B + K * 4, static_cast<int32_t>(7000 - K));
  }

  xasm::SymbolBindings Binds;
  Binds.bindScalar("i", 0);
  Binds.bindSurface("A", 0);
  Binds.bindSurface("B", 1);
  Binds.bindSurface("C", 2);
  uint32_t Kid = R.loadKernel(R"(
    shl.1.dw vr1 = i, 3
    ld.8.dw  [vr2..vr9]   = (A, vr1, 0)
    ld.8.dw  [vr10..vr17] = (B, vr1, 0)
    add.8.dw [vr18..vr25] = [vr2..vr9], [vr10..vr17]
    st.8.dw  (C, vr1, 0)  = [vr18..vr25]
    halt
  )",
                              Binds, "vecadd");

  auto Surfaces = std::make_shared<SurfaceTable>();
  Surfaces->push_back({A, N, 1, isa::ElemType::I32, SurfaceMode::Input,
                       mem::GpuMemType::Cached});
  Surfaces->push_back({B, N, 1, isa::ElemType::I32, SurfaceMode::Input,
                       mem::GpuMemType::Cached});
  Surfaces->push_back({C, N, 1, isa::ElemType::I32, SurfaceMode::Output,
                       mem::GpuMemType::Cached});
  for (unsigned I = 0; I < N / 8; ++I) {
    ShredDescriptor D;
    D.KernelId = Kid;
    D.Params = {static_cast<int32_t>(I)};
    D.Surfaces = Surfaces;
    R.Device.enqueueShred(std::move(D));
  }

  auto Exit = R.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_EQ(*Exit, RunExit::QueueDrained);
  EXPECT_GT(R.Device.stats().TlbMisses, 0u);
  for (unsigned K = 0; K < N; ++K)
    ASSERT_EQ(R.AS.load<int32_t>(C + K * 4),
              static_cast<int32_t>(K * 3 + 7000 - K))
        << "element " << K;

  expectGolden(observe(R, C, N * 4), GoldenVectorAdd);
}

//===----------------------------------------------------------------------===//
// Workload 2: CEH exceptions (f64 emulation through the proxy)
//===----------------------------------------------------------------------===//

const Observed GoldenCeh = {
    .Stats = {.StartNs = 0x0p+0, .FinishNs = 0x1.5a3fb64f1081p+11,
              .ShredsExecuted = 24u, .Instructions = 192u, .MemoryOps = 72u,
              .BytesLoaded = 384u, .BytesStored = 192u, .TlbMisses = 1u,
              .ProxyCalls = 25u, .ExceptionsHandled = 24u, .CacheHits = 60u,
              .CacheMisses = 12u, .SamplerOps = 0u, .IssueCycles = 0x1.08p+8,
              .ProxyStallNs = 0x1.f4p+8, .OfflinedEus = {}},
    .MemoryHash = 0xd5526df28b8b6235ull,
    .TraceHash = 0x7eb476d17ec18849ull,
    .Spans = 24,
    .ProxyMisses = 1,
    .ProxyExceptions = 24};

// Every shred raises an unsupported-type exception that the proxy
// emulates; exception resolution order feeds back into timing through
// the proxy stall, so any change to the resolve order changes stats.
TEST(ParallelSimTest, CehExceptionStormIsBitIdentical) {
  constexpr unsigned Shreds = 24;
  Rig R;
  // Per shred: 4 f64 slots (in a, in b, out, pad).
  mem::VirtAddr Buf = R.alloc(Shreds * 4 * 8);
  for (unsigned S = 0; S < Shreds; ++S) {
    double A = 1.25 * (S + 1), B = 2.5 + S;
    R.AS.write(Buf + (S * 4 + 0) * 8, &A, 8);
    R.AS.write(Buf + (S * 4 + 1) * 8, &B, 8);
  }

  xasm::SymbolBindings Binds;
  Binds.bindScalar("base", 0);
  Binds.bindSurface("buf", 0);
  uint32_t Kid = R.loadKernel(R"(
    add.1.dw vr30 = base, 0
    add.1.dw vr31 = base, 1
    add.1.dw vr32 = base, 2
    ld.1.df [vr0..vr1] = (buf, vr30, 0)
    ld.1.df [vr2..vr3] = (buf, vr31, 0)
    add.1.df [vr4..vr5] = [vr0..vr1], [vr2..vr3]
    st.1.df (buf, vr32, 0) = [vr4..vr5]
    halt
  )",
                              Binds, "f64add");

  auto Surfaces = std::make_shared<SurfaceTable>();
  Surfaces->push_back({Buf, Shreds * 4, 1, isa::ElemType::F64,
                       SurfaceMode::InputOutput, mem::GpuMemType::Cached});
  for (unsigned S = 0; S < Shreds; ++S) {
    ShredDescriptor D;
    D.KernelId = Kid;
    D.Params = {static_cast<int32_t>(S * 4)};
    D.Surfaces = Surfaces;
    R.Device.enqueueShred(std::move(D));
  }

  auto Exit = R.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_EQ(R.Device.stats().ExceptionsHandled, Shreds);
  for (unsigned S = 0; S < Shreds; ++S) {
    double Result = 0;
    R.AS.read(Buf + (S * 4 + 2) * 8, &Result, 8);
    ASSERT_DOUBLE_EQ(Result, 1.25 * (S + 1) + 2.5 + S) << "shred " << S;
  }

  expectGolden(observe(R, Buf, Shreds * 4 * 8), GoldenCeh);
}

//===----------------------------------------------------------------------===//
// Workload 3: xmit/wait pairs + spawn + shared sampler
//===----------------------------------------------------------------------===//

const Observed GoldenMix = {
    .Stats = {.StartNs = 0x0p+0, .FinishNs = 0x1.3f1f16a509986p+10,
              .ShredsExecuted = 24u, .Instructions = 240u, .MemoryOps = 56u,
              .BytesLoaded = 256u, .BytesStored = 96u, .TlbMisses = 2u,
              .ProxyCalls = 2u, .ExceptionsHandled = 0u, .CacheHits = 53u,
              .CacheMisses = 1u, .SamplerOps = 16u, .IssueCycles = 0x1.08p+8,
              .ProxyStallNs = 0x1.f4p+9, .OfflinedEus = {}},
    .MemoryHash = 0xe62d6b31827807a5ull,
    .TraceHash = 0x01e22bf9377633c6ull,
    .Spans = 24,
    .ProxyMisses = 2,
    .ProxyExceptions = 0};

// Cross-shred synchronization, dynamic shred creation, and the shared
// fixed-function sampler in one run: every category of buffered
// interaction the resolve phase arbitrates.
TEST(ParallelSimTest, SyncSpawnSamplerMixIsBitIdentical) {
  constexpr unsigned Pairs = 8;
  Rig R;
  // tex: 2x2 RGBA8 gradient; out: one i32 per pair + one per child.
  mem::VirtAddr Tex = R.alloc(4 * 4);
  R.AS.store<uint32_t>(Tex + 0, 0xff000000u);
  R.AS.store<uint32_t>(Tex + 4, 0xff0000c8u);
  R.AS.store<uint32_t>(Tex + 8, 0xff00c800u);
  R.AS.store<uint32_t>(Tex + 12, 0xff00c8c8u);
  mem::VirtAddr Out = R.alloc(4 * Pairs * 4);

  // role 0 (producer, slot 2P+1): sample, store the red channel, send
  // 777 to its consumer, spawn a child tagged 1000+slot. role 1
  // (consumer, slot 2P): wait for the value and store it. Spawned
  // children arrive with a single param >= 1000: they sample and store
  // at slot (tag - 1000) + 2*Pairs.
  xasm::SymbolBindings Binds;
  Binds.bindScalar("role", 0);
  Binds.bindScalar("peer", 1);
  Binds.bindScalar("slot", 2);
  Binds.bindSurface("tex", 0);
  Binds.bindSurface("out", 1);
  uint32_t Kid = R.loadKernel(R"(
    cmp.ge.1.dw p3 = role, 1000
    br p3, child
    cmp.eq.1.dw p1 = role, 1
    br p1, consumer
    ; producer
    mov.1.f vr4 = 0.5
    mov.1.f vr5 = 0.5
    sample.4.f [vr8..vr11] = (tex, vr4, vr5)
    cvt.1.dw.f vr16 = vr8
    xmit peer, vr20 = 777
    add.1.dw vr30 = slot, 1000
    spawn vr30
    st.1.dw (out, slot, 0) = vr16
    halt
  consumer:
    wait vr20
    st.1.dw (out, slot, 0) = vr20
    halt
  child:
    mov.1.f vr4 = 0.5
    mov.1.f vr5 = 0.5
    sample.4.f [vr8..vr11] = (tex, vr4, vr5)
    cvt.1.dw.f vr16 = vr8
    sub.1.dw vr2 = role, 1000
    add.1.dw vr2 = vr2, 16
    st.1.dw (out, vr2, 0) = vr16
    halt
  )",
                              Binds, "mix");

  auto Surfaces = std::make_shared<SurfaceTable>();
  Surfaces->push_back({Tex, 2, 2, isa::ElemType::I32, SurfaceMode::Input,
                       mem::GpuMemType::Cached});
  Surfaces->push_back({Out, 4 * Pairs, 1, isa::ElemType::I32,
                       SurfaceMode::Output, mem::GpuMemType::Cached});

  for (unsigned P = 0; P < Pairs; ++P) {
    ShredDescriptor Consumer;
    Consumer.KernelId = Kid;
    Consumer.Params = {1, 0, static_cast<int32_t>(2 * P)};
    Consumer.Surfaces = Surfaces;
    uint32_t ConsumerId = R.Device.enqueueShred(std::move(Consumer));

    ShredDescriptor Producer;
    Producer.KernelId = Kid;
    Producer.Params = {0, static_cast<int32_t>(ConsumerId),
                       static_cast<int32_t>(2 * P + 1)};
    Producer.Surfaces = Surfaces;
    R.Device.enqueueShred(std::move(Producer));
  }

  auto Exit = R.Device.run(0.0);
  ASSERT_TRUE(static_cast<bool>(Exit)) << Exit.message();
  EXPECT_EQ(*Exit, RunExit::QueueDrained);
  // Pairs producers + Pairs consumers + Pairs spawned children.
  EXPECT_EQ(R.Device.stats().ShredsExecuted, 3u * Pairs);
  EXPECT_EQ(R.Device.stats().SamplerOps, 2u * Pairs);
  for (unsigned P = 0; P < Pairs; ++P)
    ASSERT_EQ(R.AS.load<int32_t>(Out + (2 * P) * 4), 777) << "pair " << P;

  expectGolden(observe(R, Out, 4 * Pairs * 4), GoldenMix);
}
