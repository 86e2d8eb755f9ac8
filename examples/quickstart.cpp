/**
 * @file
 * Quickstart: simulate one accelerator in five steps.
 *
 *   1. Express the kernel in IR through the IRBuilder (the role
 *      clang plays in the original gem5-SALAM flow).
 *   2. Apply optimizations (unrolling controls datapath ILP).
 *   3. Build a small system: scratchpad + communications interface
 *      + compute unit.
 *   4. Seed data, run, and read results back.
 *   5. Inspect cycles, power, and area.
 *
 * Build & run:  ./build/examples/quickstart
 *
 * Observability (both optional):
 *   --trace-out <file>   write a Chrome trace_event JSON trace
 *                        (load it at https://ui.perfetto.dev)
 *   --store-out <dir>    append a run record to a result store
 *                        (inspect it with salam-query)
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/compute_unit.hh"
#include "core/power_report.hh"
#include "ir/ir_builder.hh"
#include "mem/backdoor.hh"
#include "mem/scratchpad.hh"
#include "obs/result_store.hh"
#include "obs/run_report.hh"
#include "opt/pass_manager.hh"
#include "sim/simulation.hh"

using namespace salam;

int
main(int argc, char **argv)
{
    const char *trace_out = nullptr;
    const char *store_out = nullptr;
    for (int k = 1; k < argc; ++k) {
        if (std::strcmp(argv[k], "--trace-out") == 0 && k + 1 < argc)
            trace_out = argv[++k];
        else if (std::strcmp(argv[k], "--store-out") == 0 &&
                 k + 1 < argc)
            store_out = argv[++k];
        else
            fatal("usage: quickstart [--trace-out FILE] "
                  "[--store-out DIR]");
    }
    // ---- 1. The kernel: y[i] = a * x[i] + y[i] over 64 doubles.
    ir::Module mod("quickstart");
    ir::IRBuilder b(mod);
    ir::Context &ctx = b.context();
    const ir::Type *f64 = ctx.doubleType();

    ir::Function *fn = b.createFunction("daxpy", ctx.voidType());
    ir::Argument *a = fn->addArgument(f64, "a");
    ir::Argument *x = fn->addArgument(ctx.pointerTo(f64), "x");
    ir::Argument *y = fn->addArgument(ctx.pointerTo(f64), "y");

    ir::BasicBlock *entry = b.createBlock("entry");
    ir::BasicBlock *loop = b.createBlock("loop");
    ir::BasicBlock *done = b.createBlock("done");

    b.setInsertPoint(entry);
    b.br(loop);

    b.setInsertPoint(loop);
    ir::PhiInst *i = b.phi(ctx.i64(), "i");
    ir::Value *px = b.gep(f64, x, i, "px");
    ir::Value *py = b.gep(f64, y, i, "py");
    ir::Value *sum = b.fadd(b.fmul(a, b.load(px, "vx"), "ax"),
                            b.load(py, "vy"), "sum");
    b.store(sum, py);
    ir::Value *inext = b.add(i, b.constI64(1), "i.next");
    ir::Value *cond = b.icmp(ir::Predicate::SLT, inext,
                             b.constI64(64), "cond");
    b.condBr(cond, loop, done);
    i->addIncoming(b.constI64(0), entry);
    i->addIncoming(inext, loop);

    b.setInsertPoint(done);
    b.ret();

    // ---- 2. Optimize: unroll by 8 for an 8-wide datapath.
    opt::PassManager::run(*fn, {opt::PassSpec::unroll("loop", 8),
                                opt::PassSpec::cleanup()});

    // ---- 3. The system: SPM + CommInterface + ComputeUnit.
    Simulation sim;
    if (trace_out != nullptr)
        sim.enableTracing();
    core::DeviceConfig dev; // 100 MHz, 1-to-1 FU map by default
    dev.readPortsPerCycle = 8;
    dev.writePortsPerCycle = 8;

    mem::ScratchpadConfig scfg;
    scfg.range = mem::AddrRange{0x10000, 0x10000 + 64 * 1024};
    scfg.readPorts = 8;
    scfg.writePorts = 8;
    auto &spm = sim.create<mem::Scratchpad>("spm", dev.clockPeriod,
                                            scfg);

    core::CommInterfaceConfig ccfg;
    ccfg.mmrRange = mem::AddrRange{0x2000, 0x2000 + 256};
    ccfg.dataPorts.push_back({"spm", {scfg.range}});
    auto &comm = sim.create<core::CommInterface>(
        "comm", dev.clockPeriod, ccfg);
    mem::bindPorts(comm.dataPort(0), spm.port(0));

    auto &cu = sim.create<core::ComputeUnit>("acc", *fn, dev, comm);

    // ---- 4. Seed inputs, run, verify.
    const std::uint64_t xa = 0x10000, ya = 0x12000;
    mem::ScratchpadBackdoor backdoor(spm);
    for (int k = 0; k < 64; ++k) {
        backdoor.writeF64(xa + 8u * static_cast<unsigned>(k), k);
        backdoor.writeF64(ya + 8u * static_cast<unsigned>(k),
                          100.0);
    }
    cu.start({ir::RuntimeValue::fromDouble(0.5),
              ir::RuntimeValue::fromPointer(xa),
              ir::RuntimeValue::fromPointer(ya)});
    sim.run();

    bool ok = true;
    for (int k = 0; k < 64; ++k) {
        double got =
            backdoor.readF64(ya + 8u * static_cast<unsigned>(k));
        ok &= (got == 100.0 + 0.5 * k);
    }

    // ---- 5. Report.
    core::AcceleratorReport report = core::buildReport(cu, &spm);
    std::printf("daxpy results: %s\n", ok ? "CORRECT" : "WRONG");
    std::printf("cycles:        %llu (%.2f us @ 100 MHz)\n",
                static_cast<unsigned long long>(report.cycles),
                report.runtimeNs / 1000.0);
    std::printf("power:         %.3f mW (%.3f dynamic, %.3f "
                "static)\n",
                report.power.totalMw(),
                report.power.dynamicTotalMw(),
                report.power.staticTotalMw());
    std::printf("area:          %.0f um^2 datapath, %.0f um^2 "
                "SPM\n",
                report.area.fuUm2 + report.area.registerUm2,
                report.area.spmUm2);

    // ---- 6. Optional machine-readable outputs.
    sim.finalizeAll();
    if (obs::TraceSink *sink = sim.traceSink()) {
        if (!sink->writeChromeTraceFile(trace_out))
            fatal("could not write trace to '%s'", trace_out);
        std::printf("trace:         %s (%zu events)\n", trace_out,
                    sink->size());
    }
    if (store_out != nullptr) {
        obs::RunReport run_report;
        run_report.run = "quickstart.daxpy";
        for (int k = 0; k < argc; ++k) {
            if (k > 0)
                run_report.commandLine += ' ';
            run_report.commandLine += argv[k];
        }
        run_report.configHash =
            obs::fnv1aHash("quickstart.daxpy|n=64");
        run_report.cycles = report.cycles;
        run_report.extra = {
            {"power_mw", report.power.totalMw()},
            {"spm_reads",
             static_cast<double>(spm.readCount())},
            {"spm_writes",
             static_cast<double>(spm.writeCount())},
        };
        run_report.statsJson = sim.stats().dumpJsonString();
        std::string error;
        std::unique_ptr<obs::ResultStore> store =
            obs::ResultStore::open(store_out, &error);
        if (!store)
            fatal("--store-out: %s", error.c_str());
        store->appendRunReport(run_report, "quickstart");
        if (!store->flush())
            fatal("could not append a run record to '%s'", store_out);
        std::printf("run record:    %s\n", store_out);
    }
    return ok ? 0 : 1;
}
