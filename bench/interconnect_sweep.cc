/**
 * @file
 * Interconnect design-space sweep: fabric kind, bus width, and
 * outstanding-transaction credits as SweepSpec axes.
 *
 * Two parts:
 *
 * 1. A SweepRunner grid over the single-accelerator GEMM testbench
 *    with ic_kind x bus_width x credits axes. Points with a modeled
 *    fabric are exactly the ones the trace-reuse fast path must NOT
 *    replay (the replay models a private scratchpad only), so under
 *    `--sim-mode auto` every fabric point falls back to full
 *    simulation while the direct baseline still takes the fast
 *    path. check.sh diffs an auto store against a full store here:
 *    cycles must be bit-identical.
 *
 * 2. Contention curves on fig16's multi-accelerator cluster: the
 *    conv -> ReLU -> max-pool private-SPM pipeline (scenario (a) of
 *    fig16) re-timed with an AXI-like local fabric across a
 *    bus-width x credit grid. The DMA moves every intermediate
 *    tensor through the fabric, so narrowing the data channel or
 *    starving the requesters of credits stretches the end-to-end
 *    time — the curve flattens to the crossbar baseline as the bus
 *    widens and the credit pool deepens.
 */

#include <sstream>
#include <vector>

#include "cnn_pipeline.hh"
#include "common.hh"
#include "drive/sweep_runner.hh"
#include "drive/sweep_spec.hh"

using namespace salam;
using namespace salam::bench;
using namespace salam::drive;
using namespace salam::kernels;
using namespace salam::mem;

int
main(int argc, char **argv)
{
    bool cluster_curve = true;
    std::vector<unsigned> curve_widths = {64, 16, 8, 4};
    std::vector<unsigned> curve_credits = {0, 2, 1}; // 0 = unlimited
    auto parse_list = [](const char *flag, const std::string &v,
                         std::vector<unsigned> &out) {
        out.clear();
        std::string item;
        std::istringstream is(v);
        while (std::getline(is, item, ','))
            out.push_back(static_cast<unsigned>(
                parseUint(flag, item)));
        if (out.empty())
            fatal("%s needs at least one value", flag);
    };
    const ObsOptions options = parseObsArgs(
        argc, argv,
        {{"--skip-cluster-curve", "",
          "run only the SweepSpec grid, not the fig16-cluster "
          "contention curves",
          [&](const std::string &) { cluster_curve = false; }},
         {"--curve-widths", "<a,b,...>",
          "bus widths (bytes) for the cluster contention curve "
          "(default 64,16,8,4)",
          [&](const std::string &v) {
              parse_list("--curve-widths", v, curve_widths);
          }},
         {"--curve-credits", "<a,b,...>",
          "credit limits for the cluster contention curve; 0 means "
          "unlimited (default 0,2,1)",
          [&](const std::string &v) {
              parse_list("--curve-credits", v, curve_credits);
          }}});
    header("Interconnect sweep: fabric kind / bus width / credits");

    constexpr unsigned gemmN = 16;
    constexpr unsigned unroll = 8;
    const std::string trace_key = "n16u8";

    // Part 1: SweepSpec grid over the single-accelerator testbench.
    // ic_kind 1 = crossbar, 2 = AXI-like bus; credits 0 = unlimited.
    // The crossbar ignores bus_width, so its rows stay flat — the
    // printed grid doubles as an A/B of handshake-limited vs
    // beat-limited fabrics.
    drive::SweepSpec spec;
    spec.axis("ic_kind", {1, 2})
        .axis("bus_width", {4, 64})
        .axis("credits", {0, 2});

    auto point_config = [&spec](std::size_t idx,
                                core::DeviceConfig &dev,
                                BenchMemory &memcfg) {
        (void)dev;
        auto kind = spec.value(idx, 0);
        auto width = static_cast<unsigned>(spec.value(idx, 1));
        auto credits = static_cast<unsigned>(spec.value(idx, 2));
        memcfg.useInterconnect = true;
        memcfg.interconnect.kind = kind == 2
            ? InterconnectKind::AxiBus
            : InterconnectKind::Crossbar;
        memcfg.interconnect.busWidthBytes = width;
        memcfg.interconnect.maxOutstandingPerRequester =
            credits == 0 ? unlimitedCredits : credits;
    };

    // Direct-bind baseline: no fabric, so under --sim-mode auto this
    // is the one run the trace-reuse fast path may serve.
    core::DeviceConfig base_dev;
    BenchMemory base_mem;
    BenchRun baseline = runSalamMode(options, *makeGemm(gemmN, unroll),
                                     trace_key, base_dev, base_mem);
    std::printf("%-8s %-10s %-10s %12s %8s  %s\n", "kind",
                "bus_width", "credits", "cycles", "vs_base",
                "mode");
    std::printf("%-8s %-10s %-10s %12llu %7.2fx  %s\n", "direct",
                "-", "-",
                static_cast<unsigned long long>(baseline.cycles),
                1.0, baseline.simMode.c_str());

    struct Row
    {
        std::uint64_t cycles = 0;
        std::string mode;
    };
    std::vector<Row> rows(spec.numPoints());

    auto sweep_opts = sweepRunnerOptions(options);
    const std::string kernel_name = makeGemm(gemmN, unroll)->name();
    sweep_opts.pointHash = [&](std::size_t idx) {
        core::DeviceConfig dev;
        BenchMemory memcfg;
        point_config(idx, dev, memcfg);
        return runConfigHash(kernel_name, dev, memcfg);
    };
    sweep_opts.pointAxes = [&](std::size_t idx) {
        return spec.axesJson(idx);
    };
    drive::SweepRunner runner(sweep_opts);
    auto results =
        runner.run(spec.numPoints(), [&](std::size_t idx) {
            auto kernel = makeGemm(gemmN, unroll);
            core::DeviceConfig dev;
            BenchMemory memcfg;
            point_config(idx, dev, memcfg);
            BenchRun run =
                runSalamMode(options, *kernel, trace_key, dev, memcfg);
            rows[idx] = {run.cycles, run.simMode};
            return "{\"mode\":\"" + run.simMode + "\"}";
        });

    for (std::size_t i = 0; i < spec.numPoints(); ++i) {
        const char *kind = spec.value(i, 0) == 2 ? "axi" : "xbar";
        auto width = static_cast<unsigned>(spec.value(i, 1));
        auto credits = static_cast<unsigned>(spec.value(i, 2));
        char credit_buf[16];
        if (credits == 0)
            std::snprintf(credit_buf, sizeof(credit_buf), "unl");
        else
            std::snprintf(credit_buf, sizeof(credit_buf), "%u",
                          credits);
        if (results[i].outcome == "cached") {
            std::printf("%-8s %-10u %-10s       cached | ok in "
                        "resume store\n",
                        kind, width, credit_buf);
            continue;
        }
        if (!results[i].ok) {
            std::printf("%-8s %-10u %-10s       FAILED | %s\n",
                        kind, width, credit_buf,
                        results[i].error.c_str());
            continue;
        }
        std::printf("%-8s %-10u %-10s %12llu %7.2fx  %s\n", kind,
                    width, credit_buf,
                    static_cast<unsigned long long>(rows[i].cycles),
                    static_cast<double>(rows[i].cycles) /
                        static_cast<double>(baseline.cycles),
                    rows[i].mode.c_str());
    }
    std::printf("(%zu points, %u thread%s, %.2fs wall)\n",
                spec.numPoints(), runner.lastThreads(),
                runner.lastThreads() == 1 ? "" : "s",
                runner.lastWallSeconds());

    // Part 2: contention curves on fig16's multi-accelerator
    // cluster (private-SPM pipeline, AXI fabric).
    if (cluster_curve) {
        std::printf("\nfig16 cluster contention curve "
                    "(conv->relu->pool, private SPM + DMA):\n");
        // A more aggressive data mover than fig16's (64-byte bursts,
        // deep outstanding window) so the cluster fabric — not the
        // DMA's own request pacing — is the bottleneck the curve
        // measures. fig16's 16B/2-deep mover is latency-bound and
        // would flatten the bus-width axis.
        core::DmaConfig dma;
        dma.burstBytes = 64;
        dma.maxOutstanding = 8;
        const auto image = cnn::makeImage();
        const auto expected = cnn::golden(image);
        Tick xbar_t = cnn::scenarioPrivate(image, expected,
                                           InterconnectConfig{}, dma);
        std::printf("%-8s %-10s %-10s %14s %9s\n", "fabric",
                    "bus_width", "credits", "end-to-end(us)",
                    "vs_xbar");
        std::printf("%-8s %-10s %-10s %14.2f %8.2fx\n", "xbar",
                    "-", "-", static_cast<double>(xbar_t) / 1e6,
                    1.0);
        for (unsigned credits : curve_credits) {
            for (unsigned width : curve_widths) {
                InterconnectConfig ic;
                ic.kind = InterconnectKind::AxiBus;
                ic.busWidthBytes = width;
                ic.maxOutstandingPerRequester =
                    credits == 0 ? unlimitedCredits : credits;
                Tick t = cnn::scenarioPrivate(image, expected, ic, dma);
                char credit_buf[16];
                if (credits == 0)
                    std::snprintf(credit_buf, sizeof(credit_buf),
                                  "unl");
                else
                    std::snprintf(credit_buf, sizeof(credit_buf),
                                  "%u", credits);
                std::printf("%-8s %-10u %-10s %14.2f %8.2fx\n",
                            "axi", width, credit_buf,
                            static_cast<double>(t) / 1e6,
                            static_cast<double>(t) /
                                static_cast<double>(xbar_t));
                // Machine-parseable for check.sh / plotting.
                std::printf("curve-point width=%u credits=%s "
                            "ticks=%llu\n",
                            width, credit_buf,
                            static_cast<unsigned long long>(t));
            }
        }
    }
    return finishSweep(options, runner, "interconnect.sweep");
}
