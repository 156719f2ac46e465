//===- exo/ProxyExecution.h - ATR and CEH proxy execution ------------------===//
//
// Part of the EXOCHI reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production implementation of proxy execution (paper Sections 3.2
/// and 3.3): when an exo-sequencer incurs a TLB miss or exception, it
/// suspends the shred and signals the OS-managed IA32 sequencer with a
/// user-level interrupt (the MISP exoskeleton). The IA32 proxy handler
/// then either
///
///  - services the fault (ATR): touch the faulting virtual address under
///    the OS (demand paging), read the IA32 PTE, transcode it to the
///    exo-sequencer's GPU page-table format, and insert it into the
///    requesting TLB; or
///
///  - emulates the faulting instruction (CEH): e.g. a double-precision
///    vector instruction is executed lane-by-lane with full IEEE double
///    semantics on the IA32 side, and the results are written back into
///    the exo-sequencer's register file before the shred resumes.
///
//===----------------------------------------------------------------------===//

#ifndef EXOCHI_EXO_PROXYEXECUTION_H
#define EXOCHI_EXO_PROXYEXECUTION_H

#include "gma/Gma.h"
#include "mem/AddressSpace.h"

#include <cstdint>

namespace exochi {

namespace fault {
class FaultInjector;
}

namespace exo {

/// Latency parameters of the MISP signalling / proxy-execution path.
struct ProxyParams {
  /// User-level inter-sequencer interrupt round trip (SIGNAL + resume).
  gma::TimeNs SignalLatencyNs = 250.0;
  /// One page-table level read during the proxy walk.
  gma::TimeNs WalkReadNs = 90.0;
  /// OS demand-page fault service (allocation + mapping).
  gma::TimeNs FaultServiceNs = 1500.0;
  /// Software emulation of one faulting instruction (CEH).
  gma::TimeNs EmulationNs = 1200.0;
  /// FaultLab: bounded retries for injected transient proxy faults and
  /// CEH handler timeouts before the fault is reported upward.
  unsigned MaxRetries = 3;
  /// Per-instruction cost of the IA32 host lane executing an orphaned
  /// shred functionally (degradation ladder, last rung).
  gma::TimeNs OrphanInstrNs = 5.0;
};

/// How the structured-exception-handling layer treats integer divide by
/// zero raised on an exo-sequencer (the application-level handler of
/// paper Section 3.3).
enum class DivZeroPolicy : uint8_t {
  Fault,     ///< terminate the shred (default OS behaviour)
  WriteZero, ///< the handler writes 0 into the offending lanes and resumes
};

/// Statistics of proxy activity on the IA32 sequencer.
struct ProxyStats {
  uint64_t AtrRequests = 0;
  uint64_t DemandPageFaults = 0;
  uint64_t PteTranscodes = 0;
  uint64_t ExceptionsEmulated = 0;
  uint64_t DivZeroHandled = 0;

  // FaultLab resilience counters (all zero when injection is disarmed).
  uint64_t InjectedFaults = 0;      ///< injector decisions taken at proxy sites
  uint64_t TransientRetries = 0;    ///< ATR retries after transient faults
  uint64_t CehRetries = 0;          ///< CEH handler timeout retries
  uint64_t DoubleFaults = 0;        ///< second walk missed after fault service
  uint64_t OrphansEmulated = 0;     ///< orphan shreds run on the host lane
  uint64_t OrphanInstructions = 0;  ///< instructions interpreted on that lane
  /// Memory operations on that lane, counted by the device's rule: one
  /// per descriptor-record fetch, one per executed ld/st/ldblk/stblk, two
  /// per sample (one per texel row).
  uint64_t OrphanMemoryOps = 0;
};

/// The IA32-side proxy handler installed into the GMA device.
class ExoProxyHandler : public gma::ProxySignalHandler {
public:
  ExoProxyHandler(mem::Ia32AddressSpace &AS, ProxyParams Params = ProxyParams())
      : AS(AS), Params(Params) {}

  void setDivZeroPolicy(DivZeroPolicy P) { DivZero = P; }

  /// Installs the FaultLab injector consulted at the proxy's probe sites
  /// (nullptr to remove). A disarmed injector costs ~nothing.
  void setFaultInjector(fault::FaultInjector *I) { Inj = I; }

  /// Retry budget for injected transient faults / handler timeouts.
  void setMaxRetries(unsigned K) { Params.MaxRetries = K; }

  const ProxyStats &stats() const { return Stats; }
  void resetStats() { Stats = ProxyStats(); }

  // gma::ProxySignalHandler:
  Expected<gma::TimeNs> onTranslationMiss(mem::VirtAddr Va, bool IsWrite,
                                          mem::GpuMemType MemType,
                                          mem::Tlb &Tlb) override;
  Expected<gma::TimeNs> onException(const gma::ExceptionInfo &Info,
                                    gma::ShredRegView &Regs) override;
  Expected<gma::TimeNs> onShredOrphaned(const gma::OrphanShred &O) override;

private:
  /// Emulates a double-precision (df) ALU/compare/convert instruction
  /// with IEEE-double semantics through the register view.
  Error emulateF64(const isa::Instruction &I, gma::ShredRegView &Regs);

  /// Copies between host buffer and shared virtual memory, servicing
  /// demand-page faults through the OS. Unlike Ia32AddressSpace::read /
  /// write (which abort), unserviceable faults come back as an Error so
  /// the host lane can diagnose rather than kill the process.
  Error hostCopy(mem::VirtAddr Va, void *Buf, uint64_t Size, bool IsWrite);

  mem::Ia32AddressSpace &AS;
  ProxyParams Params;
  DivZeroPolicy DivZero = DivZeroPolicy::Fault;
  ProxyStats Stats;
  fault::FaultInjector *Inj = nullptr;
};

} // namespace exo
} // namespace exochi

#endif // EXOCHI_EXO_PROXYEXECUTION_H
