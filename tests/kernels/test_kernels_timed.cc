/** @file End-to-end timed (SALAM engine) runs of benchmark kernels. */

#include <gtest/gtest.h>

#include "drive/testbench.hh"
#include "kernels/machsuite.hh"

using namespace salam;
using namespace salam::ir;
using namespace salam::kernels;

namespace
{

/** Run a kernel through the timed accelerator; return cycles. */
std::uint64_t
runTimed(const Kernel &kernel, std::string *failure,
         bool optimized = true)
{
    Module mod("m");
    IRBuilder b(mod);
    Function *fn =
        optimized ? kernel.buildOptimized(b) : kernel.build(b);

    core::DeviceConfig dev;
    dev.readPortsPerCycle = 4;
    dev.writePortsPerCycle = 4;
    drive::Testbench tb(*fn, dev);
    *failure = tb.runKernel(kernel);
    return tb.cu->cycleCount();
}

} // namespace

class TimedKernel : public ::testing::TestWithParam<const char *>
{};

TEST_P(TimedKernel, EngineMatchesGolden)
{
    std::unique_ptr<Kernel> kernel;
    // Scale down the heavier kernels so the timed suite stays fast.
    std::string name = GetParam();
    if (name == "gemm")
        kernel = makeGemm(8, 4);
    else if (name == "fft-strided")
        kernel = makeFft(64);
    else if (name == "md-knn")
        kernel = makeMdKnn(16, 8, 2);
    else if (name == "md-grid")
        kernel = makeMdGrid(2, 3);
    else if (name == "nw")
        kernel = makeNw(16);
    else if (name == "stencil2d")
        kernel = makeStencil2d(12, 12, 2);
    else if (name == "stencil3d")
        kernel = makeStencil3d(4, 6, 6, 2);
    else if (name == "bfs-queue")
        kernel = makeBfs(32, 3);
    else if (name == "spmv-crs")
        kernel = makeSpmv(16, 6);
    else
        kernel = makeKernel(name);
    ASSERT_NE(kernel, nullptr);

    std::string failure;
    std::uint64_t cycles = runTimed(*kernel, &failure);
    EXPECT_EQ(failure, "") << name;
    EXPECT_GT(cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MachSuite, TimedKernel,
    ::testing::Values("bfs-queue", "fft-strided", "gemm", "md-grid",
                      "md-knn", "nw", "spmv-crs", "stencil2d",
                      "stencil3d"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(TimedKernelProperties, UnrolledGemmIsFasterSameResult)
{
    std::string f1, f8;
    std::uint64_t c1 = runTimed(*makeGemm(8, 1), &f1);
    std::uint64_t c8 = runTimed(*makeGemm(8, 8), &f8);
    EXPECT_EQ(f1, "");
    EXPECT_EQ(f8, "");
    EXPECT_LT(c8, c1);
}

TEST(TimedKernelProperties, SpmvCyclesTrackNonzeros)
{
    // More nonzeros per row -> more work -> more cycles; the engine
    // retimes from the data, not from a fixed trace.
    std::string fa, fb;
    std::uint64_t sparse =
        runTimed(*makeSpmv(16, 3), &fa);
    std::uint64_t dense =
        runTimed(*makeSpmv(16, 12), &fb);
    EXPECT_EQ(fa, "");
    EXPECT_EQ(fb, "");
    EXPECT_GT(dense, sparse);
}
