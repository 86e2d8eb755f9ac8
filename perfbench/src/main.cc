/**
 * @file
 * perfbench: the repository benchmark binary.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>] [--fault golden|fast-mismatch]
 *
 * One thread simulates one design point at a time (a closed loop,
 * the way a sweep driver waits on each result), through
 * drive::SweepRunner batches of one worker. An untraced run times
 * every point in several passes over about --seconds, at least 100
 * points, with a timed set-up before each pass and one at the end
 * (setup_s is the fastest). Every point is checked; any failure makes
 * the result incorrect and the exit code 1. See README.md.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 runs every point
 * twice, untraced and traced in alternating order, prints the
 * per-layer metrics and a self-time table, and writes the spans as a
 * Chrome trace. The last line of standard output is always one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "drive/sweep_runner.hh"
#include "obs/host_telemetry.hh"
#include "sim/sim_context.hh"
#include "workload.hh"

namespace perfbench
{
namespace
{

using namespace salam;

constexpr std::size_t minPointsUntraced = 100;

/** Exact-count metrics sum the first this-many points of a seed. */
constexpr std::size_t countPoints = 8;
/** Measuring never runs longer than this, whatever --seconds says. */
constexpr double hardCapSeconds = 120.0;
constexpr unsigned maxPasses = 8;
/**
 * A batch ran in the host's fast state when the reference point
 * around it was at most this much slower than its fastest in the run.
 * The two states differ by about 1.8x.
 */
constexpr double fastStateSlack = 1.25;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".";
    std::string fault;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> [--work-dir d] "
                 "[--fault golden|fast-mismatch]\nworkloads:",
                 why);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--work-dir") {
            o.workDir = v;
        } else if (flag == "--fault") {
            o.fault = v;
            if (v != "golden" && v != "fast-mismatch")
                usage("--fault takes golden or fast-mismatch");
        } else {
            usage(("unknown option " + flag).c_str());
        }
        if (end != nullptr && (*end != '\0' || end == v.c_str()))
            usage(("bad number for " + flag).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (o.seconds <= 0.0)
        usage("--seconds must be positive");
    return o;
}

// ---------------------------------------------------------------
// Result stamp: what produced the numbers, on what host state
// ---------------------------------------------------------------

std::vector<int>
startAffinity()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }
    return cpus;
}

std::string
cpuList(const std::vector<int> &cpus)
{
    std::string out;
    for (int cpu : cpus) {
        if (!out.empty())
            out += ',';
        out += std::to_string(cpu);
    }
    return out;
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    double one = 0, five = 0, fifteen = 0;
    if (!(in >> one >> five >> fifteen))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "[%.2f, %.2f, %.2f]", one, five,
                  fifteen);
    return buf;
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? v : fallback;
}

/**
 * Why timings from this build are not comparable numbers, or "" for
 * an optimised, uninstrumented build.
 */
std::string
timingFlag()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
#ifndef __OPTIMIZE__
    return "unoptimised build";
#endif
    std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        return "build type " + type;
    if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr)
        return "sanitizer flags";
    return "";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
stampJson(const Options &o, const std::vector<int> &affinity,
          int cpu_start, int cpu_end, std::size_t migrations,
          const std::string &load_start)
{
    std::string flag = timingFlag();
    std::ostringstream os;
    os << "{\"workload\": " << jsonString(o.workload)
       << ", \"seed\": " << o.seed
       << ", \"trace\": " << (o.trace ? 1 : 0)
       << ", \"git_sha\": " << jsonString(envOr("PERFBENCH_GIT_SHA", "unknown"))
       << ", \"src_digest\": "
       << jsonString(envOr("PERFBENCH_SRC_DIGEST", "unknown"))
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"affinity\": " << jsonString(cpuList(affinity))
       << ", \"cpu_start\": " << cpu_start << ", \"cpu_end\": " << cpu_end
       << ", \"cpu_moves\": " << migrations
       << ", \"loadavg_start\": " << load_start
       << ", \"loadavg_end\": " << loadAverage()
       << ", \"timing_valid\": " << (flag.empty() ? "true" : "false")
       << ", \"timing_flag\": " << jsonString(flag) << "}";
    return os.str();
}

// ---------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** Attach telemetry to the calling thread's SimContext for a scope. */
class TelemetryBinding
{
  public:
    explicit TelemetryBinding(obs::HostTelemetry *tel)
        : ctx(SimContext::current()), prev(ctx.hostTelemetry())
    {
        ctx.setHostTelemetry(tel);
    }

    ~TelemetryBinding() { ctx.setHostTelemetry(prev); }

    TelemetryBinding(const TelemetryBinding &) = delete;
    TelemetryBinding &operator=(const TelemetryBinding &) = delete;

  private:
    SimContext &ctx;
    obs::HostTelemetry *prev;
};

/** Turn span recording on for a scope. */
class Recording
{
  public:
    Recording(Tracer &tracer, bool on) : tracer(tracer)
    {
        tracer.setEnabled(on);
    }

    ~Recording() { tracer.setEnabled(false); }

    Recording(const Recording &) = delete;
    Recording &operator=(const Recording &) = delete;

  private:
    Tracer &tracer;
};

/**
 * What the loop keeps of one point: a few words per pass, so the
 * benchmark's own memory stays out of peak_rss_mb.
 */
struct Slot
{
    /** Host seconds of the untraced run in each pass. */
    std::array<float, maxPasses> sec{};
    /** Seconds of the simulate/replay call in each of those runs. */
    std::array<float, maxPasses> simSec{};
    std::uint64_t dynInsts = 0;
    std::uint64_t simTicks = 0;
    unsigned runs = 0;
    bool ok = true;
};

/** Traced-run sums over every point. */
struct TracedSums
{
    double tracedSec = 0.0;
    double plainSec = 0.0;
    std::uint64_t fullInsts = 0;
    std::uint64_t replayInsts = 0;
    std::uint64_t events = 0;
    std::size_t replayed = 0;
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

class Bench
{
  public:
    explicit Bench(const Options &o)
        : opt(o), ctx{tracer}, wl(makeWorkload(o.workload, o.seed,
                                               o.workDir))
    {
        if (!wl)
            usage(("unknown workload '" + o.workload + "'").c_str());
    }

    /**
     * Set up, then run the measured passes. Pass 0 runs new points
     * until its share of --seconds is used and enough points are
     * done; each later pass re-runs those points in the same order,
     * after another timed set-up, until --seconds is up. A traced run
     * makes one pass.
     */
    void
    run()
    {
        // Untraced runs time every point several times, in passes
        // spread over the run, and keep the fastest: the host
        // alternates for seconds at a time between a fast state and
        // one about 1.8x slower (other tenants), so one timing per
        // point measures the neighbours as much as the simulator.
        const unsigned passes =
            opt.trace ? 1 : std::min(wl->passes(), maxPasses);
        // A traced run sets up twice: the per-set-up metrics
        // (drive.capture_ms, drive.replay_prep_ms) average two.
        if (!timedSetup() || (opt.trace && !timedSetup()))
            return;
        ctx.corruptNextOutput = opt.fault == "golden";
        ctx.perturbNextReplay = opt.fault == "fast-mismatch";

        const std::size_t min_points =
            opt.trace ? countPoints : minPointsUntraced;
        const std::size_t batch = wl->batchSize();
        const std::uint64_t start = nowNs();
        if (!opt.trace)
            canary.assign(passes, {});
        while (secondsSince(start) < hardCapSeconds &&
               (slots.size() < min_points ||
                secondsSince(start) < opt.seconds / passes)) {
            const std::size_t base = slots.size();
            slots.resize(base + batch);
            runBatch(base, batch, 0);
        }
        // Later set-ups rebuild what the first one built, and how much
        // of that the allocator keeps varies run to run; the peak
        // through one set-up and one pass over every point does not.
        peakRssKb = obs::sampleRssPeakKb();
        // Later passes stop when --seconds is up, the last one maybe
        // part way: in the slow host state a pass takes longer than
        // pass 0 did.
        for (unsigned p = 1; p < passes && secondsSince(start) < opt.seconds;
             ++p) {
            if (!timedSetup())
                return;
            for (std::size_t base = 0; base < slots.size() &&
                                       secondsSince(start) < opt.seconds;
                 base += batch)
                runBatch(base, std::min(batch, slots.size() - base), p);
        }
        if (!opt.trace && !timedSetup())
            return;

        try {
            for (const PointRecord &f :
                 wl->verify(slots.size(), ctx, verified))
                noteFailure(f.index, f.error);
        } catch (const std::exception &e) {
            setupError = std::string("cross-check: ") + e.what();
        }
    }

    /** Print the report; return the process exit code. */
    int
    report(int cpu_start, const std::string &load_start)
    {
        std::size_t failed = failures.size();
        for (const auto &[i, error] : failures)
            std::printf("FAIL point=%zu seed=%llu config=[%s]: %s\n", i,
                        static_cast<unsigned long long>(opt.seed),
                        wl->describe(i).c_str(), error.c_str());
        if (!setupError.empty())
            std::printf("FAIL setup seed=%llu: %s\n",
                        static_cast<unsigned long long>(opt.seed),
                        setupError.c_str());

        std::vector<Metric> metrics =
            opt.trace ? layerMetrics() : endToEndMetrics();
        const std::size_t attempted = std::max<std::size_t>(slots.size(), 1);
        if (!setupError.empty())
            failed = attempted;
        std::printf("fail_ratio %.6g (%zu of %zu points; %zu "
                    "cross-checked against full simulation)\n",
                    static_cast<double>(failed) /
                        static_cast<double>(attempted),
                    failed, attempted, verified);
        std::printf("perfbench-stamp %s\n",
                    stampJson(opt, allowedCpus, cpu_start, sched_getcpu(),
                              migrations, load_start)
                        .c_str());
        if (!timingFlag().empty())
            std::printf("WARNING: timings flagged (%s); not comparable\n",
                        timingFlag().c_str());

        std::string json = "{\"correct\": ";
        json += failed == 0 ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(attempted) +
                ", \"failed\": " + std::to_string(failed) +
                ", \"metrics\": {";
        char buf[128];
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i == 0 ? "" : ", ", metrics[i].name.c_str(),
                          metrics[i].value, metrics[i].unit);
            json += buf;
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
        return failed == 0 ? 0 : 1;
    }

  private:
    /** One timed set-up; false (with setupError) if it failed. */
    bool
    timedSetup()
    {
        try {
            Recording rec(tracer, opt.trace);
            TelemetryBinding bind(opt.trace ? &telemetry : nullptr);
            ctx.telemetry = opt.trace ? &telemetry : nullptr;
            std::uint64_t t0 = nowNs();
            wl->setup(ctx);
            setupSec.push_back(secondsSince(t0));
            return true;
        } catch (const std::exception &e) {
            setupError = e.what();
            return false;
        }
    }

    /**
     * The reference point on the current CPU; when it reads slow, on
     * every allowed CPU in turn, staying pinned to the fastest. The
     * slow host state holds one vCPU at a time, for seconds, and the
     * scheduler would otherwise leave the benchmark on it.
     */
    double
    hostStateReading()
    {
        double here = canarySeconds(ctx);
        fastestCanary = std::min(fastestCanary, here);
        if (here <= fastestCanary * fastStateSlack || allowedCpus.size() < 2)
            return here;
        double best = here;
        int best_cpu = sched_getcpu();
        for (int cpu : allowedCpus) {
            pinTo(cpu);
            double c = canarySeconds(ctx);
            if (c < best) {
                best = c;
                best_cpu = cpu;
            }
        }
        pinTo(best_cpu);
        ++migrations;
        fastestCanary = std::min(fastestCanary, best);
        return best;
    }

    static void
    pinTo(int cpu)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_setaffinity(0, sizeof(set), &set);
    }

    /**
     * Points [base, base + n) of pass @p pass as one SweepRunner
     * sweep on one worker. A fresh runner per batch: a set-up
     * between passes replaces the workload's result store. Untraced,
     * the reference point runs before and after the batch; the
     * slower of the two is the batch's host-state reading.
     */
    void
    runBatch(std::size_t base, std::size_t n, unsigned pass)
    {
        const double before = opt.trace ? 0.0 : hostStateReading();
        drive::SweepRunner::Options ro;
        ro.threads = 1;
        ro.store = wl->store();
        ro.storeName = "perfbench-" + opt.workload;
        drive::SweepRunner runner(ro);
        auto results = runner.run(n, [&](std::size_t i) {
            runSlot(base + i, pass);
            return std::string();
        });
        runnerSec += runner.lastWallSeconds();
        for (const drive::SweepPointResult &r : results) {
            if (!r.ok)
                noteFailure(base + r.index,
                            "sweep outcome " + r.outcome + ": " + r.error);
        }
        if (!opt.trace) {
            const double after = canarySeconds(ctx);
            fastestCanary = std::min(fastestCanary, after);
            canary[pass].push_back(std::max(before, after));
        }
    }

    /**
     * The fastest of point @p i's untraced runs made in the host's
     * fast state, or of all its runs when none was; @p fast tells
     * which.
     */
    std::pair<double, double>
    bestRun(std::size_t i, bool &fast) const
    {
        const Slot &s = slots[i];
        const double limit = fastestCanary * fastStateSlack;
        double sec = 1e300, sim = 1e300;
        fast = false;
        for (int want_fast = 1; want_fast >= 0 && sec == 1e300;
             --want_fast) {
            for (unsigned p = 0; p < s.runs; ++p) {
                const std::vector<double> &c = canary[p];
                const std::size_t b = i / wl->batchSize();
                bool in_fast = b < c.size() && c[b] <= limit;
                if (want_fast && !in_fast)
                    continue;
                sec = std::min(sec, static_cast<double>(s.sec[p]));
                sim = std::min(sim, static_cast<double>(s.simSec[p]));
                fast = fast || in_fast;
            }
        }
        return {sec, sim};
    }

    /** Fail point @p index; the first diagnostic is the one kept. */
    void
    noteFailure(std::size_t index, const std::string &error)
    {
        slots[index].ok = false;
        failures.emplace(index, error);
    }

    struct Timed
    {
        PointRecord rec;
        double sec = 0.0;
    };

    Timed
    timedPoint(std::size_t index, bool traced)
    {
        Recording rec(tracer, traced);
        TelemetryBinding bind(traced ? &telemetry : nullptr);
        ctx.telemetry = traced ? &telemetry : nullptr;
        std::uint64_t t0 = nowNs();
        Timed out;
        {
            Scope root(tracer, "point", static_cast<long>(index));
            out.rec = wl->runPoint(index, ctx);
        }
        out.sec = secondsSince(t0);
        return out;
    }

    void
    runSlot(std::size_t index, unsigned pass)
    {
        Timed plain;
        if (!opt.trace) {
            plain = timedPoint(index, false);
        } else {
            // Alternate the order so neither side always runs warm.
            const bool traced_first = index % 2 == 1;
            Timed a = timedPoint(index, traced_first);
            Timed b = timedPoint(index, !traced_first);
            plain = std::move(traced_first ? b : a);
            const Timed &traced = traced_first ? a : b;
            const PointRecord &r = traced.rec;
            sums.tracedSec += traced.sec;
            sums.plainSec += plain.sec;
            (r.replayed ? sums.replayInsts : sums.fullInsts) +=
                r.counts.dynInsts;
            sums.events += r.counts.events;
            sums.replayed += r.replayed ? 1 : 0;
            pointSec += traced.sec;
            if (!r.ok)
                noteFailure(index, r.error);
        }
        pointSec += plain.sec;
        const PointRecord &r = plain.rec;
        Slot &s = slots[index];
        s.sec[pass] = static_cast<float>(plain.sec);
        s.simSec[pass] = static_cast<float>(r.simulateSec);
        s.dynInsts = r.counts.dynInsts;
        s.simTicks = r.simTicks;
        s.runs = pass + 1;
        if (pass == 0 && index < countPoints)
            firstCounts.add(r.counts);
        if (!r.ok)
            noteFailure(index, r.error);
    }

    std::vector<Metric>
    endToEndMetrics()
    {
        std::vector<double> times;
        double host_sec = 0.0, sim_sec = 0.0, insts = 0.0, ticks = 0.0;
        std::size_t runs = 0, no_fast = 0, fast_batches = 0, batches = 0;
        const double limit = fastestCanary * fastStateSlack;
        for (const std::vector<double> &pass : canary) {
            batches += pass.size();
            for (double c : pass)
                fast_batches += c <= limit ? 1 : 0;
        }
        for (std::size_t i = 0; i < slots.size(); ++i) {
            const Slot &s = slots[i];
            runs += s.runs;
            if (!s.ok || s.runs == 0)
                continue;
            bool fast = false;
            auto [sec, sim] = bestRun(i, fast);
            no_fast += fast ? 0 : 1;
            times.push_back(sec * 1e3);
            host_sec += sec;
            sim_sec += sim;
            insts += static_cast<double>(s.dynInsts);
            ticks += static_cast<double>(s.simTicks);
        }
        std::vector<Metric> m = {
            {"setup_s",
             setupSec.empty() ? 0.0
                              : *std::min_element(setupSec.begin(),
                                                  setupSec.end()),
             "s"},
            {"points_per_s",
             host_sec > 0 ? static_cast<double>(times.size()) / host_sec
                          : 0.0,
             "1/s"},
            {"point_ms_p50", quantile(times, 0.5), "ms"},
            {"point_ms_p90", quantile(times, 0.9), "ms"},
            {"sim_minsts_per_s", sim_sec > 0 ? insts / sim_sec / 1e6 : 0,
             "M/s"},
            {"sim_ticks_per_s", sim_sec > 0 ? ticks / sim_sec : 0, "1/s"},
            {"peak_rss_mb", static_cast<double>(peakRssKb) / 1024.0, "MB"},
        };
        std::printf("perfbench %s seed=%llu: %zu points, %zu timed runs "
                    "(p90 over %zu samples, %zu beyond it); fastest of "
                    "%zu set-ups\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), slots.size(),
                    runs, times.size(), times.size() / 10,
                    setupSec.size());
        std::printf("host state: %zu of %zu batches fast (reference "
                    "point %.3f ms at best); %zu points had no fast-state "
                    "run and keep their fastest run\n",
                    fast_batches, batches, fastestCanary * 1e3, no_fast);
        for (const Metric &x : m)
            std::printf("  %-18s %14.6g %s\n", x.name.c_str(), x.value,
                        x.unit);
        return m;
    }

    std::vector<Metric>
    layerMetrics()
    {
        const auto pt = tracer.totals(false);
        const auto su = tracer.totals(true);
        auto get = [](const std::map<std::string, SpanTotals> &t,
                      const char *name) {
            auto it = t.find(name);
            return it == t.end() ? SpanTotals{} : it->second;
        };

        const PointCounts &first = firstCounts;
        const double traced_sec = sums.tracedSec;
        const double plain_sec = sums.plainSec;
        const double n = static_cast<double>(std::max<std::size_t>(
            slots.size(), 1));
        const double reps = static_cast<double>(setupSec.size());
        auto self_ms = [&](const char *name) {
            return static_cast<double>(get(pt, name).selfNs) / 1e6 / n;
        };
        auto incl_ms = [&](const char *name) {
            return static_cast<double>(get(pt, name).inclusiveNs) / 1e6 / n;
        };
        auto per = [](double num, std::uint64_t den) {
            return den == 0 ? 0.0 : num / static_cast<double>(den);
        };
        const double run_ns =
            static_cast<double>(get(pt, "sim.run").inclusiveNs +
                                get(pt, "sys.run").inclusiveNs);
        const double pps_plain = plain_sec > 0 ? n / plain_sec : 0.0;
        const double pps_traced = traced_sec > 0 ? n / traced_sec : 0.0;
        const double overhead_ms =
            (runnerSec - pointSec) * 1e3 / n;
        const bool has_store = wl->store() != nullptr;
        auto count = [](std::uint64_t c) { return static_cast<double>(c); };

        std::vector<Metric> m = {
            {"ir.build_ms", self_ms("ir.build"), "ms"},
            {"opt.passes_ms", self_ms("opt.passes"), "ms"},
            {"ir.static_insts", count(first.staticInsts), "count"},
            {"core.elaborate_ms", self_ms("core.elaborate"), "ms"},
            {"core.engine_ms", self_ms("core.engine"), "ms"},
            {"core.host_ns_per_inst",
             per(static_cast<double>(get(pt, "core.engine").selfNs),
                 sums.fullInsts),
             "ns"},
            {"core.dyn_insts", count(first.dynInsts), "count"},
            {"core.sim_cycles", count(first.simCycles), "count"},
            {"core.stall_cycles", count(first.stallCycles), "count"},
            {"core.stall_mem_cycles", count(first.stallMemCycles),
             "count"},
            {"core.arena_miss_ratio",
             per(count(first.arenaMisses),
                 first.arenaHits + first.arenaMisses),
             "ratio"},
            {"core.report_ms", self_ms("core.report"), "ms"},
            {"mem.model_ms", self_ms("mem.model"), "ms"},
            {"mem.spm_accesses", count(first.spmAccesses), "count"},
            {"mem.dram_bytes", count(first.dramBytes), "bytes"},
            {"mem.dma_bytes", count(first.dmaBytes), "bytes"},
            {"mem.fabric_retries", count(first.fabricRetries), "count"},
            {"sim.elaborate_ms", self_ms("sim.elaborate"), "ms"},
            {"sim.events", count(first.events), "count"},
            {"sim.event_loop_ms", self_ms("sim.event_loop"), "ms"},
            {"sim.other_ms", self_ms("sim.other"), "ms"},
            {"sim.host_ns_per_event", per(run_ns, sums.events), "ns"},
            {"sim.teardown_ms", self_ms("sim.teardown"), "ms"},
            {"sys.elaborate_ms", self_ms("sys.elaborate"), "ms"},
            {"sys.run_ms", incl_ms("sys.run"), "ms"},
            {"sys.host_ops", count(first.hostOps), "count"},
            {"drive.capture_ms",
             static_cast<double>(get(su, "drive.capture").inclusiveNs) /
                 1e6 / reps,
             "ms"},
            {"drive.replay_prep_ms",
             static_cast<double>(get(su, "drive.replay_prep").inclusiveNs) /
                 1e6 / reps,
             "ms"},
            {"drive.replay_ms", self_ms("drive.replay"), "ms"},
            {"drive.replay_ns_per_inst",
             per(static_cast<double>(get(pt, "drive.replay").selfNs),
                 sums.replayInsts),
             "ns"},
            {"drive.fast_ratio",
             has_store ? static_cast<double>(sums.replayed) / n : 0.0, "ratio"},
            {"drive.trace_bytes", count(wl->traceBytes()), "bytes"},
            {"drive.sweep_overhead_ms", overhead_ms, "ms"},
            {"obs.store_append_ms", self_ms("obs.store_append"), "ms"},
            {"obs.store_bytes", count(wl->storeBytes()) / n, "bytes"},
            {"kernels.seed_ms", self_ms("kernels.seed"), "ms"},
            {"kernels.check_ms", self_ms("kernels.check"), "ms"},
            {"unattributed_ms", self_ms("point"), "ms"},
            {"trace_overhead_pct",
             pps_plain > 0 ? (pps_plain - pps_traced) / pps_plain * 100.0
                           : 0.0,
             "%"},
        };
        printSelfTimeTable(pt, traced_sec, plain_sec, n);
        std::printf("per-layer metrics (times: mean self time per point; "
                    "counts: sum over the first %zu points)\n",
                    countPoints);
        for (const Metric &x : m)
            std::printf("  %-26s %14.6g %s\n", x.name.c_str(), x.value,
                        x.unit);

        const std::string path = opt.workDir + "/spans-" + opt.workload +
            "-seed" + std::to_string(opt.seed) + ".trace.json";
        if (tracer.writeChromeTrace(path, 200000))
            std::printf("spans: %zu recorded, written to %s\n",
                        tracer.size(), path.c_str());
        else
            std::printf("spans: could not write %s\n", path.c_str());
        return m;
    }

    void
    printSelfTimeTable(const std::map<std::string, SpanTotals> &pt,
                       double traced_sec, double plain_sec, double n) const
    {
        std::vector<std::pair<std::string, SpanTotals>> rows(pt.begin(),
                                                             pt.end());
        std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
            return a.second.selfNs > b.second.selfNs;
        });
        std::printf("perfbench %s seed=%llu traced: %zu points, "
                    "%.3f s traced, %.3f s untraced\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), slots.size(),
                    traced_sec, plain_sec);
        std::printf("  %-18s %10s %14s %8s\n", "span (self time)",
                    "calls/pt", "self ms/pt", "share");
        for (const auto &[name, t] : rows) {
            double ms = static_cast<double>(t.selfNs) / 1e6 / n;
            std::printf("  %-18s %10.2f %14.4f %7.2f%%\n",
                        name == "point" ? "(unattributed)" : name.c_str(),
                        static_cast<double>(t.count) / n, ms,
                        traced_sec > 0 ? ms * n / 1e3 / traced_sec * 100.0
                                       : 0.0);
        }
    }

    Options opt;
    Tracer tracer;
    obs::HostTelemetry telemetry;
    RunContext ctx;
    std::unique_ptr<Workload> wl;
    std::vector<double> setupSec;
    std::string setupError;
    std::vector<Slot> slots;
    std::map<std::size_t, std::string> failures;
    PointCounts firstCounts;
    TracedSums sums;
    std::uint64_t peakRssKb = 0;
    /** Per pass, per batch: the batch's reference-point reading. */
    std::vector<std::vector<double>> canary;
    double fastestCanary = 1e300;
    /** The CPUs the process may run on, as it started. */
    std::vector<int> allowedCpus = startAffinity();
    std::size_t migrations = 0;
    double runnerSec = 0.0;
    double pointSec = 0.0;
    std::size_t verified = 0;
};

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt = parseArgs(argc, argv);
    const int cpu_start = sched_getcpu();
    const std::string load_start = loadAverage();
    // fatal() outside a sweep point (set-up, the cross-check) throws
    // too, so it is reported as a failed run instead of exiting.
    salam::SimContext::processDefault().setFatalMode(
        salam::SimContext::FatalMode::Throw);
    Bench bench(opt);
    bench.run();
    int code = bench.report(cpu_start, load_start);
    std::fflush(stdout);
    return code;
}
