/**
 * @file
 * Fault-campaign driver: one seeded full-system run under injection.
 *
 * The system is the smallest realistic full stack — host CPU, GIC,
 * DMA, one ReLU accelerator with a private scratchpad — so every
 * injection site class is exercised: scratchpad and DRAM responses,
 * crossbar retries, DMA bursts, accelerator done-interrupts, and the
 * host's interrupt waits. scripts/check.sh invokes this binary once
 * per fault kind and asserts the exit code, the run record's outcome,
 * and (for hangs) that the state dump names the stuck component.
 *
 * Inputs are strictly positive so ReLU is the identity function: any
 * injected bit flip anywhere on the data path changes the output and
 * is caught by the exact golden comparison.
 *
 *   fault_campaign [--inject <spec>]... [--inject-seed N]
 *                  [--watchdog T] [--dump-out F] [--store-out D] ...
 */

#include <cmath>
#include <sstream>
#include <vector>

#include "common.hh"
#include "inject/fault_injector.hh"
#include "sys/system.hh"

using namespace salam;
using namespace salam::bench;
using namespace salam::drive;
using namespace salam::kernels;
using namespace salam::sys;
using namespace salam::mem;

namespace
{

constexpr unsigned count = 1024;
constexpr std::uint64_t dataBytes = 4ull * count;

} // namespace

int
main(int argc, char **argv)
{
    const ObsOptions options = parseObsArgs(argc, argv);

    // Positive inputs: ReLU output == input, bit-exact.
    Lcg rng(7);
    std::vector<float> input(count);
    for (auto &v : input)
        v = 0.5f + static_cast<float>(rng.nextDouble());

    Simulation sim;
    std::unique_ptr<inject::FaultInjector> injector =
        makeFaultInjector(options, sim);
    ScopedTerminationHook flush_on_fatal =
        installTerminationHook(options, sim, "fault_campaign.relu");

    SystemConfig syscfg;
    syscfg.watchdogWindowTicks = options.watchdogTicks;
    syscfg.stateDumpPath = options.dumpOut;
    SalamSystem sys(sim, syscfg);
    auto &cluster = sys.addCluster("c0", periodFromMhz(100));

    ScratchpadConfig sproto;
    sproto.numPorts = 2;
    sproto.readPorts = 4;
    sproto.writePorts = 4;
    auto &spm = cluster.addSpm("spm", 16 * 1024, sproto);
    cluster.localXbar().connectDevice(spm.port(1),
                                      spm.config().range);

    core::DmaConfig dma_proto;
    dma_proto.burstBytes = 16;
    dma_proto.maxOutstanding = 2;
    auto &dma = cluster.addDma("dma", dma_proto);
    unsigned dma_irq = sys.allocateIrq();
    dma.setIrqCallback(sys.gic().lineCallback(dma_irq));

    ir::Module mod("m");
    ir::IRBuilder b(mod);
    ir::Function *relu_fn = makeRelu(count)->buildOptimized(b);
    auto &relu = cluster.addAccelerator(
        "relu", *relu_fn, {},
        {{"spm", {spm.config().range}, false}});
    bindPorts(relu.comm->dataPort(0), spm.port(0));

    std::uint64_t dram_in = SystemAddressMap::dramBase + 0x10000;
    std::uint64_t dram_out = SystemAddressMap::dramBase + 0x20000;
    sys.dram().backdoorWrite(dram_in, input.data(), dataBytes);

    std::uint64_t spm_in = spm.config().range.start;
    std::uint64_t spm_out = spm_in + dataBytes;

    DriverCpu &host = sys.host();
    std::uint64_t dma_mmr = dma.config().mmrRange.start;
    host.push(HostOp::mark("begin"));
    driver::pushDmaTransfer(host, dma_mmr, dram_in, spm_in,
                            dataBytes);
    host.push(HostOp::waitIrq(dma_irq));
    driver::pushAcceleratorStart(host, relu, {spm_in, spm_out});
    host.push(HostOp::waitIrq(relu.irqId));
    // Snapshot the output the instant the host believes the kernel
    // is done. A spurious wake-up captures an incomplete scratchpad
    // here regardless of how the later DMA races the accelerator.
    std::vector<float> snapshot(count);
    host.push(HostOp::call([&spm, &snapshot, spm_out] {
        spm.backdoorRead(spm_out, snapshot.data(), dataBytes);
    }));
    driver::pushDmaTransfer(host, dma_mmr, spm_out, dram_out,
                            dataBytes);
    host.push(HostOp::waitIrq(dma_irq));
    host.push(HostOp::mark("end"));

    Tick end = sys.run();

    unsigned mismatches = 0;
    unsigned stale = 0;
    for (unsigned i = 0; i < count; ++i) {
        float got = 0.0f;
        sys.dram().backdoorRead(dram_out + 4ull * i, &got, 4);
        if (got != input[i])
            ++mismatches;
        if (snapshot[i] != input[i])
            ++stale;
    }
    printInjectionLog(injector.get());
    if (mismatches > 0 || stale > 0) {
        fatal("fault_campaign: wrong result, %u of %u outputs "
              "differ from the golden reference (%u stale at the "
              "host's done-snapshot)",
              mismatches, count, stale);
    }

    sim.finalizeAll();
    std::printf("fault_campaign: ok, %llu ticks end-to-end, "
                "%zu injections fired\n",
                static_cast<unsigned long long>(
                    host.markAt("end") - host.markAt("begin")),
                injector ? injector->log().size()
                         : static_cast<std::size_t>(0));

    if (recordsRuns(options)) {
        obs::RunReport report;
        report.run = "fault_campaign.relu";
        report.cycles = relu.cu->cycleCount();
        report.extra = {
            {"end_to_end_ticks", static_cast<double>(end)},
            {"injections_fired",
             injector ? static_cast<double>(injector->log().size())
                      : 0.0},
        };
        report.statsJson = sim.stats().dumpJsonString();
        // One queryable record per fired fault, so a campaign over
        // many seeds can be sliced by site/kind with salam-query
        // instead of scraping stdout.
        std::vector<obs::StoreRecord> records;
        if (injector) {
            for (const inject::InjectionRecord &rec : injector->log()) {
                obs::StoreRecord srec;
                srec.kind = "injection";
                srec.kernel = inject::faultKindName(rec.kind);
                std::ostringstream payload;
                payload << "{\"tick\":" << rec.tick
                        << ",\"fault_kind\":\""
                        << obs::jsonEscape(
                               inject::faultKindName(rec.kind))
                        << "\",\"site\":\""
                        << obs::jsonEscape(rec.site)
                        << "\",\"detail\":\""
                        << obs::jsonEscape(rec.detail) << "\"}";
                srec.json = payload.str();
                records.push_back(std::move(srec));
            }
        }
        recordRun(options, std::move(report), std::move(records));
    }
    return 0;
}
