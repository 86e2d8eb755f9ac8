/**
 * @file
 * Table-driven command-line option parsing shared by the benches,
 * salam-query, and future tools.
 *
 * Every binary in the repo declares its options as a table of
 * {flag, value placeholder, help, apply-callback} rows and hands
 * argv to parseOptions(). One engine then provides consistent
 * "--opt value"/"--opt=value" handling, an unknown-argument listing,
 * a generated --help table, and parent-directory creation for
 * output-path values.
 *
 * The engine serves two policies through ParsePolicy:
 *  - benches: errors are fatal() (the process is about to run a long
 *    simulation — die loudly before it), --help prints the table and
 *    exits 0, and stray positional arguments are errors.
 *  - query-style tools: errors are returned as a message for the
 *    tool's own usage() text (soft, exit code 1), and positional
 *    arguments (store paths) are collected for the caller.
 *
 * The observability options every bench shares (ObsOptions) have
 * their one table here too, behind parseObsArgs().
 */

#ifndef SALAM_DRIVE_OPTIONS_HH
#define SALAM_DRIVE_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace salam::obs
{
class HostTelemetry;
class ResultStore;
} // namespace salam::obs

namespace salam::drive
{

/** One command-line option a tool accepts. */
struct Option
{
    /** Flag spelling, e.g. "--trace-out". */
    std::string name;

    /** Placeholder in help, e.g. "<file>"; empty = boolean flag. */
    std::string valueName;

    /** One-line help text. */
    std::string help;

    /** Applies the parsed value (flags receive ""). May fatal(). */
    std::function<void(const std::string &value)> apply;

    /**
     * The value names a file (or directory) the tool will write:
     * missing parent directories are created at parse time, so a
     * typo fails before a long simulation instead of after it.
     */
    bool outputPath = false;
};

using OptionList = std::vector<Option>;

/** Parse an unsigned integer option value; fatal()s on junk. */
std::uint64_t parseUint(const std::string &flag,
                        const std::string &value, int base = 10);

/** How parseOptions() reacts to the non-table parts of argv. */
struct ParsePolicy
{
    /** Program name for the --help header (argv[0] basename ok). */
    std::string program;

    /** First argv index to parse (2 for subcommand tools). */
    int firstArg = 1;

    /**
     * Print the option table and std::exit(0) on --help. When
     * false, --help is an unknown option like any other.
     */
    bool handleHelp = true;

    /**
     * Errors (unknown option, missing value) call fatal() with the
     * known-option listing. When false they are returned in
     * ParseResult::error instead, for the tool's own usage() text.
     */
    bool fatalErrors = true;

    /**
     * Collect non-option arguments here instead of treating them as
     * errors. Null = positionals are unknown-argument errors.
     */
    std::vector<std::string> *positionals = nullptr;
};

/** Outcome of a soft-error parse (fatalErrors never returns !ok). */
struct ParseResult
{
    bool ok = true;
    std::string error;
};

/**
 * Parse argv against @p table under @p policy. Recognizes
 * "--opt value" and "--opt=value";
 * output-path option values get their missing parent directories
 * created here, at parse time.
 */
ParseResult parseOptions(int argc, char **argv,
                         const OptionList &table,
                         const ParsePolicy &policy);

/** Print the --help table ("  --opt <v>   help") to stdout. */
void printOptionTable(const OptionList &table);

/**
 * Observability options shared by every bench binary. Parsed once in
 * main() by parseObsArgs() and handed to every testbench run.
 */
struct ObsOptions
{
    /** Chrome trace_event JSON path; the last run's trace wins. */
    std::string traceOut;

    /** StatRegistry::dumpJson path; the last run's stats win. */
    std::string statsOut;

    /**
     * Critical-path hotspot report path (JSON); folded stacks go to
     * "<path>.folded". Enables profiling; the last run wins.
     */
    std::string profileOut;

    /** Interval-stats period in engine cycles; 0 disables. */
    std::uint64_t statsInterval = 0;

    /** Fault specs from --inject, in "kind@site[:k=v]*" grammar. */
    std::vector<std::string> injectSpecs;

    /** Campaign seed resolving unspecified nth/bit fields. */
    std::uint64_t injectSeed = 1;

    /** Watchdog no-progress window in ticks; 0 disables. */
    Tick watchdogTicks = 0;

    /** Hang state-dump destination. */
    std::string dumpOut = "state_dump.json";

    /**
     * Worker threads for design-space sweeps (0 = hardware
     * concurrency). Forced to 1 by effectiveSweepThreads() when
     * per-run artifact options are active.
     */
    unsigned sweepThreads = 1;

    /**
     * Host-performance telemetry: attribute the simulator's own
     * wall time to phases, count lock contention, and (in sweeps)
     * record per-worker timelines. Sweep-safe: per-point telemetry
     * is owned by the point's SimContext, so this does NOT force
     * --sweep-threads 1.
     */
    bool hostTelemetry = false;

    /**
     * Host-telemetry output path. Single runs write the telemetry
     * JSON here (last run wins); sweeps write the scaling summary
     * here and a Chrome trace to "<path>.trace.json".
     */
    std::string hostTelemetryOut;

    /**
     * Result-store directory (--store-out). Every run appends a
     * queryable record here (and sweeps add per-point records); the
     * store is multi-writer safe, so this does NOT force
     * --sweep-threads 1.
     */
    std::string storeOut;

    /**
     * Per-point wall-clock budget for sweeps (--point-timeout,
     * seconds; 0 disables). A point that exceeds it is terminated
     * with outcome "timeout" plus a hang dump and the pool moves on.
     */
    double pointTimeoutSeconds = 0.0;

    /** Extra attempts per failed sweep point (--point-retries). */
    unsigned pointRetries = 0;

    /**
     * Resume store path (--resume): sweep points that already have
     * an ok record there are skipped with outcome "cached".
     */
    std::string resumePath;

    /**
     * Simulation mode for sweep points (--sim-mode):
     *  - "full": every point is a complete event-driven simulation;
     *  - "fast": capture the kernel's dynamic trace once, then
     *    re-schedule it per point (trace-reuse fast path), falling
     *    back to full simulation with a warning when a point's
     *    configuration could change control flow or asks for a
     *    per-run artifact;
     *  - "auto": like "fast" but falls back silently.
     */
    std::string simMode = "full";

    /** This bench's name (argv[0] basename), stamped on records. */
    std::string benchName;

    /** The invoking command line (argv joined with spaces). */
    std::string commandLine;
};

/**
 * Parse the shared observability arguments plus a bench's @p extra
 * options with the bench policy: "--opt value" and "--opt=value",
 * --help prints the combined table and exits, anything unrecognized
 * is fatal with the full option listing, and output paths get their
 * parent directories created at parse time. Attaches
 * mainHostTelemetry() to the calling thread's SimContext under
 * --host-telemetry and opens the --store-out store.
 */
ObsOptions parseObsArgs(int argc, char **argv,
                        const OptionList &extra = {});

/**
 * The bench process's main-thread HostTelemetry. parseObsArgs()
 * attaches it to the launching thread's SimContext when
 * --host-telemetry is given; sweep workers get their own per-point
 * instances from SweepRunner instead.
 */
obs::HostTelemetry &mainHostTelemetry();

/**
 * The --store-out result store of @p options, or null when none was
 * asked for. Opened on first use (fatal() when the directory cannot
 * be opened) and kept for the process: the destructor of the static
 * slot flushes queued records at exit, and fatal() in Exit mode runs
 * static destructors too, so graceful-fatal runs still land.
 */
obs::ResultStore *resultStore(const ObsOptions &options);

} // namespace salam::drive

#endif // SALAM_DRIVE_OPTIONS_HH
