/**
 * @file
 * Pins the optimized IR of every kernel.
 *
 * Trace capture rebuilds a kernel's IR and assumes its static ids
 * match the capture, so the optimization pipeline must produce the
 * same IR on every build. Each case hashes the printer output after
 * the kernel's defaultPasses(); a pass change that alters any
 * instruction, name or order changes the hash.
 */

#include <gtest/gtest.h>

#include <functional>

#include "ir/printer.hh"
#include "kernels/machsuite.hh"

using namespace salam;
using namespace salam::kernels;

namespace
{

/** FNV-1a, 64 bit. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct PassCase
{
    const char *label;
    std::function<std::unique_ptr<Kernel>()> make;
    std::uint64_t hash;
};

/**
 * Prints a case as its label. Without it gtest prints the raw bytes,
 * pointers included, so the listed test names would change with
 * every process's address layout.
 */
void
PrintTo(const PassCase &c, std::ostream *os)
{
    *os << c.label;
}

/** Every makeKernel name, plus the configurations the benches use. */
const PassCase passCases[] = {
    {"bfs_queue", [] { return makeKernel("bfs-queue"); },
     0xa4bf91e2bac08991ULL},
    {"fft_strided", [] { return makeKernel("fft-strided"); },
     0x47c32bebfc16de33ULL},
    {"gemm", [] { return makeKernel("gemm"); },
     0x6af82a2c49e2a7aeULL},
    {"md_grid", [] { return makeKernel("md-grid"); },
     0x8ad1b597b6055609ULL},
    {"md_knn", [] { return makeKernel("md-knn"); },
     0x8089db75a482e576ULL},
    {"nw", [] { return makeKernel("nw"); },
     0x471d5c30114fc8f8ULL},
    {"spmv_crs", [] { return makeKernel("spmv-crs"); },
     0x0874d9c52e15c943ULL},
    {"stencil2d", [] { return makeKernel("stencil2d"); },
     0x80046df213ea5ab2ULL},
    {"stencil3d", [] { return makeKernel("stencil3d"); },
     0x830be5dfb2f68148ULL},
    {"conv2d", [] { return makeKernel("conv2d"); },
     0xa5fa63379fe23b5fULL},
    {"relu", [] { return makeKernel("relu"); },
     0xc60fe8248748e743ULL},
    {"maxpool", [] { return makeKernel("maxpool"); },
     0x273f8e33cc60e251ULL},
    {"spmv_guarded", [] { return makeSpmv(64, 8, true, 2); },
     0x47a54b7d00ab7c9aULL},
    {"gemm_n16_u16", [] { return makeGemm(16, 16); },
     0x8b092906a2323f07ULL},
    {"gemm_n32_u32", [] { return makeGemm(32, 32); },
     0xdb97a18c03205619ULL},
    {"conv2d_stream", [] { return makeConv2d(32, 32, true); },
     0x12a62f4e90b59eceULL},
    {"relu_stream", [] { return makeRelu(900, true, true); },
     0xd40f71211ce8e292ULL},
    {"maxpool_stream", [] { return makeMaxPool(30, 30, true, false); },
     0xae42e318e91487b4ULL},
};

class PassOutput : public ::testing::TestWithParam<PassCase>
{};

} // namespace

TEST_P(PassOutput, PrinterHashIsPinned)
{
    const PassCase &c = GetParam();
    auto kernel = c.make();
    ASSERT_NE(kernel, nullptr);
    ir::Module mod("m");
    ir::IRBuilder builder(mod);
    kernel->buildOptimized(builder);
    std::uint64_t hash = fnv1a(ir::Printer::toString(mod));
    EXPECT_EQ(hash, c.hash)
        << c.label << ": printer output hash 0x" << std::hex << hash;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, PassOutput, ::testing::ValuesIn(passCases),
    [](const ::testing::TestParamInfo<PassCase> &info) {
        return std::string(info.param.label);
    });
