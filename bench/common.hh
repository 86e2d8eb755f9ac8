/**
 * @file
 * Shared helpers for the paper-reproduction benches: the
 * --interconnect choice and the print helpers.
 *
 * Each bench binary regenerates one table or figure from the paper.
 * The single-accelerator testbench they share (runSalam, the
 * --sim-mode policy, the run recorder) and the option parser are
 * library code, in drive/testbench.hh and drive/options.hh.
 */

#ifndef SALAM_BENCH_COMMON_HH
#define SALAM_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "drive/testbench.hh"
#include "kernels/machsuite.hh"

namespace salam::bench
{

/**
 * Shared --interconnect/--bus-width/--ic-credits handling: a bench
 * keeps one of these alive across parseObsArgs (append options() to
 * its extra list) and calls apply() on each BenchMemory it builds.
 */
struct InterconnectChoice
{
    /** "direct" (historical port bind), "xbar", or "axi". */
    std::string kind = "direct";
    unsigned busWidthBytes = 64;
    unsigned credits = mem::unlimitedCredits;

    bool direct() const { return kind == "direct"; }

    mem::InterconnectConfig
    config() const
    {
        mem::InterconnectConfig ic;
        ic.kind = kind == "axi" ? mem::InterconnectKind::AxiBus
                                : mem::InterconnectKind::Crossbar;
        ic.busWidthBytes = busWidthBytes;
        ic.maxOutstandingPerRequester = credits;
        return ic;
    }

    void
    apply(drive::BenchMemory &memcfg) const
    {
        memcfg.useInterconnect = !direct();
        if (memcfg.useInterconnect)
            memcfg.interconnect = config();
    }

    drive::OptionList
    options()
    {
        return {
            {"--interconnect", "<kind>",
             "fabric between accelerator and memory: direct "
             "(default), xbar, or axi",
             [this](const std::string &v) {
                 if (v != "direct" && v != "xbar" && v != "axi")
                     fatal("--interconnect needs direct, xbar, or "
                           "axi, got '%s'",
                           v.c_str());
                 kind = v;
             }},
            {"--bus-width", "<bytes>",
             "AXI-like bus data-channel beat width in bytes "
             "(default 64)",
             [this](const std::string &v) {
                 busWidthBytes = static_cast<unsigned>(
                     drive::parseUint("--bus-width", v));
             }},
            {"--ic-credits", "<N>",
             "outstanding-transaction credits per requester "
             "(default unlimited; 0 is rejected at elaboration)",
             [this](const std::string &v) {
                 credits = static_cast<unsigned>(
                     drive::parseUint("--ic-credits", v));
             }},
        };
    }
};

/** Percent error of @p measured against @p reference. */
inline double
pctError(double measured, double reference)
{
    if (reference == 0.0)
        return 0.0;
    return 100.0 * (measured - reference) / reference;
}

/** Print a section header. */
inline void
header(const char *title)
{
    std::printf("\n=== %s ===\n", title);
}

} // namespace salam::bench

#endif // SALAM_BENCH_COMMON_HH
