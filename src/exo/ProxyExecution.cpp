//===- exo/ProxyExecution.cpp --------------------------------------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//

#include "exo/ProxyExecution.h"

#include "fault/FaultInjector.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace exochi;
using namespace exochi::exo;
using namespace exochi::isa;

Expected<gma::TimeNs>
ExoProxyHandler::onTranslationMiss(mem::VirtAddr Va, bool IsWrite,
                                   mem::GpuMemType MemType, mem::Tlb &Tlb) {
  ++Stats.AtrRequests;
  gma::TimeNs Latency = Params.SignalLatencyNs + 2 * Params.WalkReadNs;

  if (Inj) {
    // FaultLab probes, keyed by faulting page so a given access faults
    // identically on every replay. Transient faults are retried
    // with exponential backoff on the signal latency; only a fault that
    // persists past the retry budget (or an injected hard failure)
    // reaches the device as an error.
    uint64_t Key = mem::pageNumber(Va);
    unsigned Attempt = 0;
    while (Inj->shouldInject(fault::FaultKind::AtrTransient, Key)) {
      ++Stats.InjectedFaults;
      if (++Attempt > Params.MaxRetries)
        return Error::make(formatString(
            "ATR proxy: transient fault at 0x%llx persisted after %u "
            "retries",
            static_cast<unsigned long long>(Va), Params.MaxRetries));
      ++Stats.TransientRetries;
      Latency += Params.SignalLatencyNs *
                 static_cast<double>(1u << std::min(Attempt, 6u));
    }
    if (Inj->shouldInject(fault::FaultKind::AtrFatal, Key)) {
      ++Stats.InjectedFaults;
      return Error::make(formatString(
          "ATR proxy: injected unserviceable fault at 0x%llx",
          static_cast<unsigned long long>(Va)));
    }
  }

  // Proxy execution: the IA32 shred touches the virtual address on behalf
  // of the exo-sequencer, servicing demand-page faults through the OS.
  mem::PageFault F;
  auto T = AS.translate(Va, IsWrite, &F);
  if (!T) {
    if (!AS.handleFault(F))
      return Error::make(formatString(
          "ATR proxy: unserviceable %s fault at 0x%llx",
          mem::faultKindName(F.Kind), static_cast<unsigned long long>(Va)));
    ++Stats.DemandPageFaults;
    Latency += Params.FaultServiceNs;
    mem::PageFault F2;
    T = AS.translate(Va, IsWrite, &F2);
    if (!T) {
      // The second walk can still miss (e.g. the mapping changed under
      // us). Report it with proxy-site context instead of letting the
      // raw walker error escape.
      ++Stats.DoubleFaults;
      return Error::make(formatString(
          "ATR proxy: %s fault at 0x%llx persists after demand-page "
          "service (double fault)",
          mem::faultKindName(F2.Kind), static_cast<unsigned long long>(Va)));
    }
  }

  // ATR: transcode the IA32 PTE into the exo-sequencer's native format
  // and install it so both sequencers resolve the page to the same frame.
  auto Pte = mem::transcodePteIa32ToGpu(T->Pte, MemType);
  if (!Pte)
    return Pte.takeError();
  ++Stats.PteTranscodes;
  Tlb.insert(mem::pageNumber(Va), *Pte);
  return Latency;
}

namespace {

/// Register index of lane \p Lane of df operand \p O (register pairs).
unsigned f64LaneReg(const Operand &O, unsigned Lane) {
  if (O.regCount() <= 2)
    return O.Reg0; // scalar broadcast
  return O.Reg0 + 2 * Lane;
}

double readF64(const Operand &O, unsigned Lane, const gma::ShredRegView &Regs) {
  if (O.Kind == OperandKind::Imm) {
    // df immediates are stored as F32 bit patterns by the assembler.
    float F;
    uint32_t Bits = static_cast<uint32_t>(O.Imm);
    std::memcpy(&F, &Bits, 4);
    return F;
  }
  unsigned R = f64LaneReg(O, Lane);
  uint64_t Bits = Regs.readReg(R) |
                  (static_cast<uint64_t>(Regs.readReg(R + 1)) << 32);
  double D;
  std::memcpy(&D, &Bits, 8);
  return D;
}

void writeF64(const Operand &O, unsigned Lane, double V,
              gma::ShredRegView &Regs) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, 8);
  unsigned R = f64LaneReg(O, Lane);
  Regs.writeReg(R, static_cast<uint32_t>(Bits));
  Regs.writeReg(R + 1, static_cast<uint32_t>(Bits >> 32));
}

} // namespace

Error ExoProxyHandler::emulateF64(const Instruction &I,
                                  gma::ShredRegView &Regs) {
  auto LaneEnabled = [&](unsigned L) {
    if (I.PredReg == NoPred)
      return true;
    bool Bit = Regs.readPredLane(I.PredReg, L);
    return I.PredNegate ? !Bit : Bit;
  };

  switch (I.Op) {
  case Opcode::Cmp: {
    for (unsigned L = 0; L < I.Width; ++L) {
      if (!LaneEnabled(L))
        continue;
      double A = readF64(I.Src0, L, Regs), B = readF64(I.Src1, L, Regs);
      bool R = false;
      switch (I.Cmp) {
      case CmpOp::Eq: R = A == B; break;
      case CmpOp::Ne: R = A != B; break;
      case CmpOp::Lt: R = A < B; break;
      case CmpOp::Le: R = A <= B; break;
      case CmpOp::Gt: R = A > B; break;
      case CmpOp::Ge: R = A >= B; break;
      }
      Regs.writePredLane(I.Dst.Reg0, L, R);
    }
    return Error::success();
  }

  case Opcode::Sel: {
    for (unsigned L = 0; L < I.Width; ++L) {
      bool Bit = Regs.readPredLane(I.PredReg, L);
      if (I.PredNegate)
        Bit = !Bit;
      writeF64(I.Dst, L, readF64(Bit ? I.Src0 : I.Src1, L, Regs), Regs);
    }
    return Error::success();
  }

  case Opcode::Cvt: {
    for (unsigned L = 0; L < I.Width; ++L) {
      if (!LaneEnabled(L))
        continue;
      if (I.Ty == ElemType::F64) {
        // Widening convert: read source in SrcTy.
        double V;
        if (I.SrcTy == ElemType::F32) {
          uint32_t Bits = I.Src0.Kind == OperandKind::Imm
                              ? static_cast<uint32_t>(I.Src0.Imm)
                              : Regs.readReg(
                                    I.Src0.regCount() <= 1
                                        ? I.Src0.Reg0
                                        : I.Src0.Reg0 + L);
          float F;
          std::memcpy(&F, &Bits, 4);
          V = F;
        } else {
          int32_t IV = I.Src0.Kind == OperandKind::Imm
                           ? I.Src0.Imm
                           : static_cast<int32_t>(Regs.readReg(
                                 I.Src0.regCount() <= 1 ? I.Src0.Reg0
                                                        : I.Src0.Reg0 + L));
          V = IV;
        }
        writeF64(I.Dst, L, V, Regs);
      } else {
        // Narrowing convert from df.
        double V = readF64(I.Src0, L, Regs);
        if (I.Ty == ElemType::F32) {
          float F = static_cast<float>(V);
          uint32_t Bits;
          std::memcpy(&Bits, &F, 4);
          Regs.writeReg(I.Dst.regCount() <= 1 ? I.Dst.Reg0 : I.Dst.Reg0 + L,
                        Bits);
        } else {
          double Lo, Hi;
          switch (I.Ty) {
          case ElemType::I8: Lo = -128; Hi = 127; break;
          case ElemType::I16: Lo = -32768; Hi = 32767; break;
          default: Lo = -2147483648.0; Hi = 2147483647.0; break;
          }
          double C = std::min(std::max(std::trunc(V), Lo), Hi);
          Regs.writeReg(I.Dst.regCount() <= 1 ? I.Dst.Reg0 : I.Dst.Reg0 + L,
                        static_cast<uint32_t>(static_cast<int32_t>(C)));
        }
      }
    }
    return Error::success();
  }

  case Opcode::Mov:
  case Opcode::Abs: {
    for (unsigned L = 0; L < I.Width; ++L) {
      if (!LaneEnabled(L))
        continue;
      double A = readF64(I.Src0, L, Regs);
      writeF64(I.Dst, L, I.Op == Opcode::Abs ? std::fabs(A) : A, Regs);
    }
    return Error::success();
  }

  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Mac:
  case Opcode::Div:
  case Opcode::Min:
  case Opcode::Max:
  case Opcode::Avg: {
    for (unsigned L = 0; L < I.Width; ++L) {
      if (!LaneEnabled(L))
        continue;
      double A = readF64(I.Src0, L, Regs);
      double B = readF64(I.Src1, L, Regs);
      double R = 0;
      switch (I.Op) {
      case Opcode::Add: R = A + B; break;
      case Opcode::Sub: R = A - B; break;
      case Opcode::Mul: R = A * B; break;
      case Opcode::Mac: R = readF64(I.Dst, L, Regs) + A * B; break;
      case Opcode::Div: R = A / B; break; // IEEE: inf/nan
      case Opcode::Min: R = std::min(A, B); break;
      case Opcode::Max: R = std::max(A, B); break;
      case Opcode::Avg: R = (A + B) * 0.5; break;
      default: exochiUnreachable("filtered above");
      }
      writeF64(I.Dst, L, R, Regs);
    }
    return Error::success();
  }

  default:
    return Error::make(formatString(
        "CEH: no IA32 emulation for df instruction '%s'", opcodeName(I.Op)));
  }
}

Expected<gma::TimeNs>
ExoProxyHandler::onException(const gma::ExceptionInfo &Info,
                             gma::ShredRegView &Regs) {
  // FaultLab: CEH handler timeouts, keyed by faulting site (kernel, pc).
  // Each timeout re-signals the handler after a backed-off delay; the
  // exception is only reported unhandled once the budget is spent.
  gma::TimeNs Extra = 0;
  if (Inj) {
    uint64_t Key = (static_cast<uint64_t>(Info.KernelId) << 32) | Info.Pc;
    unsigned Attempt = 0;
    while (Inj->shouldInject(fault::FaultKind::CehTimeout, Key)) {
      ++Stats.InjectedFaults;
      if (++Attempt > Params.MaxRetries)
        return Error::make(formatString(
            "CEH: handler for shred %u pc %u timed out after %u retries",
            Info.ShredId, Info.Pc, Params.MaxRetries));
      ++Stats.CehRetries;
      Extra += Params.SignalLatencyNs *
               static_cast<double>(1u << std::min(Attempt, 6u));
    }
  }

  switch (Info.Kind) {
  case gma::ExceptionKind::UnsupportedType: {
    // CEH Figure 2 scenario: a double-precision vector instruction faults
    // and is emulated with full IEEE semantics by the IA32 proxy.
    if (Error E = emulateF64(Info.Instr, Regs))
      return E;
    ++Stats.ExceptionsEmulated;
    return Extra + Params.SignalLatencyNs + Params.EmulationNs;
  }

  case gma::ExceptionKind::DivideByZero: {
    if (DivZero == DivZeroPolicy::Fault)
      return Error::make("SEH: integer divide by zero (policy: fault)");
    // Application-level SEH handler: compute safe lanes, write 0 into the
    // offending ones, and resume.
    const Instruction &I = Info.Instr;
    for (unsigned L = 0; L < I.Width; ++L) {
      auto ReadLane = [&](const Operand &O) -> int32_t {
        if (O.Kind == OperandKind::Imm)
          return O.Imm;
        unsigned R = O.regCount() <= 1 ? O.Reg0 : O.Reg0 + L;
        return static_cast<int32_t>(Regs.readReg(R));
      };
      int32_t A = ReadLane(I.Src0), B = ReadLane(I.Src1);
      unsigned DstReg = I.Dst.regCount() <= 1 ? I.Dst.Reg0 : I.Dst.Reg0 + L;
      Regs.writeReg(DstReg, B == 0 ? 0u : static_cast<uint32_t>(A / B));
    }
    ++Stats.DivZeroHandled;
    ++Stats.ExceptionsEmulated;
    return Extra + Params.SignalLatencyNs + Params.EmulationNs;
  }

  case gma::ExceptionKind::SurfaceBounds:
    return Error::make(formatString(
        "shred accessed outside its bound surface (kernel %u pc %u)",
        Info.KernelId, Info.Pc));
  case gma::ExceptionKind::InvalidSurface:
    return Error::make(formatString(
        "shred referenced an unbound surface slot (kernel %u pc %u)",
        Info.KernelId, Info.Pc));
  }
  exochiUnreachable("bad ExceptionKind");
}

//===----------------------------------------------------------------------===//
// IA32 host lane: functional execution of orphaned shreds
//===----------------------------------------------------------------------===//
//
// Last rung of the FaultLab degradation ladder: when a shred can no
// longer run on any EU (hard-failed device, exhausted re-dispatch
// budget), the IA32 sequencer executes its kernel functionally — the
// paper's Figure 10 cooperative CPU+GPU machinery repurposed as a
// failover lane. Semantics mirror the device's functional model
// exactly so a fault-injected run still produces the correct outputs;
// only xmit/wait/spawn cannot run here (they are device synchronization
// primitives with no host-side peer).

namespace {

/// Register file of an orphan shred running on the IA32 core.
class HostRegView : public gma::ShredRegView {
public:
  uint32_t Regs[NumVRegs] = {};
  uint16_t Preds[NumPRegs] = {};

  uint32_t readReg(unsigned Reg) const override { return Regs[Reg]; }
  void writeReg(unsigned Reg, uint32_t Value) override { Regs[Reg] = Value; }
  bool readPredLane(unsigned PredReg, unsigned Lane) const override {
    return (Preds[PredReg] >> Lane) & 1;
  }
  void writePredLane(unsigned PredReg, unsigned Lane, bool Set) override {
    if (Set)
      Preds[PredReg] |= static_cast<uint16_t>(1u << Lane);
    else
      Preds[PredReg] &= static_cast<uint16_t>(~(1u << Lane));
  }
};

/// Register index supplying lane \p Lane of operand \p O (same regioning
/// rules as the device: scalar broadcast and F64 register pairs).
unsigned hostLaneReg(const Operand &O, unsigned Lane, ElemType Ty) {
  unsigned PerLane = Ty == ElemType::F64 ? 2 : 1;
  if (O.regCount() <= PerLane)
    return O.Reg0; // broadcast
  return O.Reg0 + Lane * PerLane;
}

int64_t hostSignExtend(int64_t V, ElemType Ty) {
  switch (Ty) {
  case ElemType::I8:
    return static_cast<int8_t>(V);
  case ElemType::I16:
    return static_cast<int16_t>(V);
  default:
    return static_cast<int32_t>(V);
  }
}

} // namespace

Error ExoProxyHandler::hostCopy(mem::VirtAddr Va, void *Buf, uint64_t Size,
                                bool IsWrite) {
  uint8_t *P = static_cast<uint8_t *>(Buf);
  uint64_t Remaining = Size;
  mem::VirtAddr Cur = Va;
  while (Remaining > 0) {
    uint64_t Chunk = std::min(Remaining, mem::PageSize - mem::pageOffset(Cur));
    mem::PageFault F;
    auto T = AS.translate(Cur, IsWrite, &F);
    if (!T) {
      if (!AS.handleFault(F))
        return Error::make(formatString(
            "IA32 host lane: unserviceable %s fault at 0x%llx",
            mem::faultKindName(F.Kind),
            static_cast<unsigned long long>(Cur)));
      mem::PageFault F2;
      T = AS.translate(Cur, IsWrite, &F2);
      if (!T) {
        ++Stats.DoubleFaults;
        return Error::make(formatString(
            "IA32 host lane: %s fault at 0x%llx persists after "
            "demand-page service",
            mem::faultKindName(F2.Kind),
            static_cast<unsigned long long>(Cur)));
      }
    }
    if (IsWrite)
      AS.physical().write(T->Phys, P, Chunk);
    else
      AS.physical().read(T->Phys, P, Chunk);
    P += Chunk;
    Cur += Chunk;
    Remaining -= Chunk;
  }
  return Error::success();
}

Expected<gma::TimeNs>
ExoProxyHandler::onShredOrphaned(const gma::OrphanShred &O) {
  if (!O.Code)
    return Error::make(formatString(
        "host lane: shred %u orphaned without kernel code", O.ShredId));
  const std::vector<Instruction> &Code = *O.Code;

  HostRegView Regs;
  if (O.RecordVa != 0 && !O.Params.empty()) {
    ++Stats.OrphanMemoryOps;
    std::vector<uint8_t> Buf(O.Params.size() * 4);
    if (Error E = hostCopy(O.RecordVa, Buf.data(), Buf.size(),
                           /*IsWrite=*/false))
      return Error::make(formatString(
          "host lane: shred %u descriptor fetch failed: %s", O.ShredId,
          E.message().c_str()));
    for (size_t K = 0; K < O.Params.size() && K < NumVRegs; ++K)
      std::memcpy(&Regs.Regs[K], Buf.data() + K * 4, 4);
  } else {
    for (size_t K = 0; K < O.Params.size() && K < NumVRegs; ++K)
      Regs.Regs[K] = static_cast<uint32_t>(O.Params[K]);
  }

  // Far above any legitimate kernel in the modelled workloads: orphans
  // caught in an infinite loop become a diagnosed error, not a hang.
  constexpr uint64_t InstrBudget = 4'000'000;
  uint64_t Instrs = 0;
  uint32_t Pc = 0;
  bool Done = false;

  while (!Done && Pc < Code.size()) {
    if (++Instrs > InstrBudget)
      return Error::make(formatString(
          "host lane: shred %u exceeded the %llu-instruction budget "
          "(runaway orphan)",
          O.ShredId, static_cast<unsigned long long>(InstrBudget)));

    const Instruction &I = Code[Pc];
    uint32_t NextPc = Pc + 1;

    auto LaneEnabled = [&](unsigned Lane) {
      if (I.PredReg == NoPred)
        return true;
      bool Bit = (Regs.Preds[I.PredReg] >> Lane) & 1;
      return I.PredNegate ? !Bit : Bit;
    };
    auto ReadIntLane = [&](const Operand &Opr, unsigned Lane) -> int64_t {
      if (Opr.Kind == OperandKind::Imm)
        return Opr.Imm;
      return static_cast<int32_t>(Regs.Regs[hostLaneReg(Opr, Lane, I.Ty)]);
    };
    auto ReadF32Lane = [&](const Operand &Opr, unsigned Lane) -> float {
      uint32_t Bits = Opr.Kind == OperandKind::Imm
                          ? static_cast<uint32_t>(Opr.Imm)
                          : Regs.Regs[hostLaneReg(Opr, Lane, I.Ty)];
      float F;
      std::memcpy(&F, &Bits, 4);
      return F;
    };
    auto WriteIntLane = [&](const Operand &Opr, unsigned Lane, int64_t V) {
      Regs.Regs[hostLaneReg(Opr, Lane, I.Ty)] =
          static_cast<uint32_t>(hostSignExtend(V, I.Ty));
    };
    auto WriteF32Lane = [&](const Operand &Opr, unsigned Lane, float F) {
      uint32_t Bits;
      std::memcpy(&Bits, &F, 4);
      Regs.Regs[hostLaneReg(Opr, Lane, I.Ty)] = Bits;
    };
    auto ScalarVal = [&](const Operand &Opr) -> int64_t {
      if (Opr.Kind == OperandKind::Imm)
        return Opr.Imm;
      return static_cast<int32_t>(Regs.Regs[Opr.Reg0]);
    };

    switch (I.Op) {
    case Opcode::Nop:
      break;

    case Opcode::Halt:
      Done = true;
      break;

    case Opcode::Jmp:
      NextPc = static_cast<uint32_t>(I.Src0.Imm);
      break;

    case Opcode::Br: {
      bool Bit = (Regs.Preds[I.PredReg] & 1) != 0; // lane 0
      if (I.PredNegate ? !Bit : Bit)
        NextPc = static_cast<uint32_t>(I.Src0.Imm);
      break;
    }

    case Opcode::Sid:
      Regs.Regs[I.Dst.Reg0] = O.ShredId;
      break;

    case Opcode::Xmit:
    case Opcode::Wait:
    case Opcode::Spawn:
      return Error::make(formatString(
          "host lane: shred %u pc %u: `%s` is a device-only "
          "synchronization op; cannot re-dispatch on IA32",
          O.ShredId, Pc, opcodeName(I.Op)));

    case Opcode::Cmp: {
      if (I.Ty == ElemType::F64) {
        if (Error E = emulateF64(I, Regs))
          return E;
        break;
      }
      for (unsigned L = 0; L < I.Width; ++L) {
        if (!LaneEnabled(L))
          continue;
        bool R = false;
        if (I.Ty == ElemType::F32) {
          float A = ReadF32Lane(I.Src0, L), B = ReadF32Lane(I.Src1, L);
          switch (I.Cmp) {
          case CmpOp::Eq: R = A == B; break;
          case CmpOp::Ne: R = A != B; break;
          case CmpOp::Lt: R = A < B; break;
          case CmpOp::Le: R = A <= B; break;
          case CmpOp::Gt: R = A > B; break;
          case CmpOp::Ge: R = A >= B; break;
          }
        } else {
          int64_t A = ReadIntLane(I.Src0, L), B = ReadIntLane(I.Src1, L);
          switch (I.Cmp) {
          case CmpOp::Eq: R = A == B; break;
          case CmpOp::Ne: R = A != B; break;
          case CmpOp::Lt: R = A < B; break;
          case CmpOp::Le: R = A <= B; break;
          case CmpOp::Gt: R = A > B; break;
          case CmpOp::Ge: R = A >= B; break;
          }
        }
        Regs.writePredLane(I.Dst.Reg0, L, R);
      }
      break;
    }

    case Opcode::Sel: {
      if (I.Ty == ElemType::F64) {
        if (Error E = emulateF64(I, Regs))
          return E;
        break;
      }
      for (unsigned L = 0; L < I.Width; ++L) {
        bool Bit = (Regs.Preds[I.PredReg] >> L) & 1;
        if (I.PredNegate)
          Bit = !Bit;
        const Operand &Src = Bit ? I.Src0 : I.Src1;
        if (I.Ty == ElemType::F32)
          WriteF32Lane(I.Dst, L, ReadF32Lane(Src, L));
        else
          WriteIntLane(I.Dst, L, ReadIntLane(Src, L));
      }
      break;
    }

    case Opcode::Cvt: {
      if (I.Ty == ElemType::F64 || I.SrcTy == ElemType::F64) {
        if (Error E = emulateF64(I, Regs))
          return E;
        break;
      }
      for (unsigned L = 0; L < I.Width; ++L) {
        if (!LaneEnabled(L))
          continue;
        double V;
        if (I.SrcTy == ElemType::F32) {
          uint32_t Bits = I.Src0.Kind == OperandKind::Imm
                              ? static_cast<uint32_t>(I.Src0.Imm)
                              : Regs.Regs[hostLaneReg(I.Src0, L, I.SrcTy)];
          float F;
          std::memcpy(&F, &Bits, 4);
          V = F;
        } else {
          int64_t IV = I.Src0.Kind == OperandKind::Imm
                           ? I.Src0.Imm
                           : static_cast<int32_t>(
                                 Regs.Regs[hostLaneReg(I.Src0, L, I.SrcTy)]);
          V = static_cast<double>(hostSignExtend(IV, I.SrcTy));
        }
        if (I.Ty == ElemType::F32) {
          WriteF32Lane(I.Dst, L, static_cast<float>(V));
        } else {
          double Lo, Hi;
          switch (I.Ty) {
          case ElemType::I8: Lo = -128; Hi = 127; break;
          case ElemType::I16: Lo = -32768; Hi = 32767; break;
          default: Lo = -2147483648.0; Hi = 2147483647.0; break;
          }
          double Clamped = std::min(std::max(std::trunc(V), Lo), Hi);
          WriteIntLane(I.Dst, L, static_cast<int64_t>(Clamped));
        }
      }
      break;
    }

    case Opcode::Ld:
    case Opcode::St:
    case Opcode::LdBlk:
    case Opcode::StBlk: {
      if (!O.Surfaces || I.Src0.Imm < 0 ||
          static_cast<size_t>(I.Src0.Imm) >= O.Surfaces->size())
        return Error::make(formatString(
            "host lane: shred %u pc %u references an unbound surface slot",
            O.ShredId, Pc));
      const gma::SurfaceBinding &S =
          (*O.Surfaces)[static_cast<size_t>(I.Src0.Imm)];
      bool IsWrite = I.Op == Opcode::St || I.Op == Opcode::StBlk;
      bool Is2D = I.Op == Opcode::LdBlk || I.Op == Opcode::StBlk;

      int64_t FirstElem;
      if (Is2D) {
        int64_t X = ScalarVal(I.Src1), Y = ScalarVal(I.Src2);
        if (X < 0 || Y < 0 || X + I.Width > S.Width ||
            Y >= static_cast<int64_t>(S.Height))
          return Error::make(formatString(
              "host lane: shred %u pc %u accessed outside its surface",
              O.ShredId, Pc));
        FirstElem = Y * static_cast<int64_t>(S.Width) + X;
      } else {
        FirstElem = ScalarVal(I.Src1) + ScalarVal(I.Src2);
        if (FirstElem < 0 ||
            FirstElem + I.Width > static_cast<int64_t>(S.totalElements()))
          return Error::make(formatString(
              "host lane: shred %u pc %u accessed outside its surface",
              O.ShredId, Pc));
      }

      unsigned Esz = elemTypeSize(I.Ty);
      mem::VirtAddr Va = S.Base + static_cast<uint64_t>(FirstElem) * Esz;
      uint64_t Span = static_cast<uint64_t>(I.Width) * Esz;
      std::vector<uint8_t> Buf(Span);
      ++Stats.OrphanMemoryOps;

      if (IsWrite) {
        bool AnyMasked = false;
        for (unsigned L = 0; L < I.Width; ++L)
          if (!LaneEnabled(L))
            AnyMasked = true;
        if (AnyMasked) // read-modify-write under predication
          if (Error E = hostCopy(Va, Buf.data(), Span, /*IsWrite=*/false))
            return E;
        for (unsigned L = 0; L < I.Width; ++L) {
          if (!LaneEnabled(L))
            continue;
          if (I.Ty == ElemType::F64) {
            uint64_t Wide =
                static_cast<uint64_t>(
                    Regs.Regs[hostLaneReg(I.Dst, L, I.Ty)]) |
                (static_cast<uint64_t>(
                     Regs.Regs[hostLaneReg(I.Dst, L, I.Ty) + 1])
                 << 32);
            std::memcpy(Buf.data() + L * Esz, &Wide, 8);
          } else {
            uint32_t U = static_cast<uint32_t>(ReadIntLane(I.Dst, L));
            std::memcpy(Buf.data() + L * Esz, &U, Esz);
          }
        }
        if (Error E = hostCopy(Va, Buf.data(), Span, /*IsWrite=*/true))
          return E;
      } else {
        if (Error E = hostCopy(Va, Buf.data(), Span, /*IsWrite=*/false))
          return E;
        for (unsigned L = 0; L < I.Width; ++L) {
          if (!LaneEnabled(L))
            continue;
          if (I.Ty == ElemType::F64) {
            uint64_t Wide = 0;
            std::memcpy(&Wide, Buf.data() + L * Esz, 8);
            Regs.Regs[hostLaneReg(I.Dst, L, I.Ty)] =
                static_cast<uint32_t>(Wide);
            Regs.Regs[hostLaneReg(I.Dst, L, I.Ty) + 1] =
                static_cast<uint32_t>(Wide >> 32);
          } else {
            int64_t V = 0;
            if (I.Ty == ElemType::I8) {
              int8_t B;
              std::memcpy(&B, Buf.data() + L * Esz, 1);
              V = B;
            } else if (I.Ty == ElemType::I16) {
              int16_t W;
              std::memcpy(&W, Buf.data() + L * Esz, 2);
              V = W;
            } else {
              int32_t D;
              std::memcpy(&D, Buf.data() + L * Esz, 4);
              V = D;
            }
            WriteIntLane(I.Dst, L, V);
          }
        }
      }
      break;
    }

    case Opcode::Sample: {
      if (!O.Surfaces || I.Src0.Imm < 0 ||
          static_cast<size_t>(I.Src0.Imm) >= O.Surfaces->size())
        return Error::make(formatString(
            "host lane: shred %u pc %u references an unbound surface slot",
            O.ShredId, Pc));
      const gma::SurfaceBinding &S =
          (*O.Surfaces)[static_cast<size_t>(I.Src0.Imm)];
      if (S.Width == 0 || S.Height == 0)
        return Error::make(formatString(
            "host lane: shred %u pc %u sampled an empty surface", O.ShredId,
            Pc));

      float U = ReadF32Lane(I.Src1, 0), V = ReadF32Lane(I.Src2, 0);
      auto Clamp = [](int X, int Hi) {
        return std::min(std::max(X, 0), Hi);
      };
      int W = static_cast<int>(S.Width), H = static_cast<int>(S.Height);
      float Uc = std::min(std::max(U, 0.0f), static_cast<float>(W - 1));
      float Vc = std::min(std::max(V, 0.0f), static_cast<float>(H - 1));
      int X0 = static_cast<int>(Uc), Y0 = static_cast<int>(Vc);
      int X1 = Clamp(X0 + 1, W - 1), Y1 = Clamp(Y0 + 1, H - 1);
      float Fx = Uc - static_cast<float>(X0),
            Fy = Vc - static_cast<float>(Y0);

      uint32_t Texels[4] = {};
      for (int Row = 0; Row < 2; ++Row) {
        int Y = Row == 0 ? Y0 : Y1;
        mem::VirtAddr Va =
            S.Base + (static_cast<uint64_t>(Y) * S.Width + X0) * 4;
        uint64_t Span = X1 > X0 ? 8 : 4;
        uint8_t Tmp[8] = {};
        ++Stats.OrphanMemoryOps;
        if (Error E = hostCopy(Va, Tmp, Span, /*IsWrite=*/false))
          return E;
        std::memcpy(&Texels[Row * 2 + 0], Tmp, 4);
        std::memcpy(&Texels[Row * 2 + 1], Span == 8 ? Tmp + 4 : Tmp, 4);
      }

      for (unsigned Ch = 0; Ch < 4; ++Ch) {
        auto Channel = [&](unsigned T) {
          return static_cast<float>((Texels[T] >> (8 * Ch)) & 0xff);
        };
        float Top = Channel(0) * (1 - Fx) + Channel(1) * Fx;
        float Bot = Channel(2) * (1 - Fx) + Channel(3) * Fx;
        float OutV = Top * (1 - Fy) + Bot * Fy;
        uint32_t Bits;
        std::memcpy(&Bits, &OutV, 4);
        Regs.Regs[I.Dst.Reg0 + Ch] = Bits;
      }
      break;
    }

    default: {
      // ALU operations.
      if (I.Ty == ElemType::F64) {
        if (Error E = emulateF64(I, Regs))
          return E;
        break;
      }
      bool HadDivZero = false;
      for (unsigned L = 0; L < I.Width; ++L) {
        if (!LaneEnabled(L))
          continue;
        if (I.Ty == ElemType::F32) {
          float A = ReadF32Lane(I.Src0, L);
          float B = I.Src1.Kind == OperandKind::None
                        ? 0.0f
                        : ReadF32Lane(I.Src1, L);
          float R = 0;
          switch (I.Op) {
          case Opcode::Mov: R = A; break;
          case Opcode::Add: R = A + B; break;
          case Opcode::Sub: R = A - B; break;
          case Opcode::Mul: R = A * B; break;
          case Opcode::Mac: R = ReadF32Lane(I.Dst, L) + A * B; break;
          case Opcode::Div: R = A / B; break; // IEEE inf/nan, no fault
          case Opcode::Min: R = std::min(A, B); break;
          case Opcode::Max: R = std::max(A, B); break;
          case Opcode::Avg: R = (A + B) * 0.5f; break;
          case Opcode::Abs: R = std::fabs(A); break;
          default:
            return Error::make(formatString(
                "host lane: shred %u pc %u: %s is not defined for float "
                "operands",
                O.ShredId, Pc, opcodeName(I.Op)));
          }
          WriteF32Lane(I.Dst, L, R);
        } else {
          int64_t A = ReadIntLane(I.Src0, L);
          int64_t B = I.Src1.Kind == OperandKind::None
                          ? 0
                          : ReadIntLane(I.Src1, L);
          int64_t R = 0;
          switch (I.Op) {
          case Opcode::Mov: R = A; break;
          case Opcode::Add: R = A + B; break;
          case Opcode::Sub: R = A - B; break;
          case Opcode::Mul: R = A * B; break;
          case Opcode::Mac: R = ReadIntLane(I.Dst, L) + A * B; break;
          case Opcode::Div:
            // Same policy split the device's CEH path applies.
            if (B == 0) {
              if (DivZero == DivZeroPolicy::Fault)
                return Error::make(formatString(
                    "host lane: shred %u pc %u: integer divide by zero "
                    "(policy: fault)",
                    O.ShredId, Pc));
              HadDivZero = true;
              R = 0;
              break;
            }
            R = A / B;
            break;
          case Opcode::Min: R = std::min(A, B); break;
          case Opcode::Max: R = std::max(A, B); break;
          case Opcode::Avg: R = (A + B + 1) >> 1; break;
          case Opcode::Abs: R = A < 0 ? -A : A; break;
          case Opcode::Shl: R = A << (B & 31); break;
          case Opcode::Shr:
            R = static_cast<int64_t>(static_cast<uint32_t>(A) >> (B & 31));
            break;
          case Opcode::Asr: R = static_cast<int32_t>(A) >> (B & 31); break;
          case Opcode::And: R = A & B; break;
          case Opcode::Or: R = A | B; break;
          case Opcode::Xor: R = A ^ B; break;
          case Opcode::Not: R = ~A; break;
          default:
            return Error::make(formatString(
                "host lane: shred %u pc %u: unhandled opcode %s", O.ShredId,
                Pc, opcodeName(I.Op)));
          }
          WriteIntLane(I.Dst, L, R);
        }
      }
      if (HadDivZero)
        ++Stats.DivZeroHandled;
      break;
    }
    }

    if (!Done)
      Pc = NextPc;
  }

  ++Stats.OrphansEmulated;
  Stats.OrphanInstructions += Instrs;
  return Params.SignalLatencyNs +
         static_cast<double>(Instrs) * Params.OrphanInstrNs;
}
