/**
 * @file
 * RunReport: one machine-readable record per simulated run.
 *
 * Benches and examples emit these so experiment trajectories (the
 * BENCH_*.json inputs) can be derived from real instrumented runs
 * instead of hand-copied console output. The stats payload is the
 * StatRegistry::dumpJson rendering, embedded verbatim; the report
 * itself stays dependency-free so any layer can produce one. A
 * report is persisted as the payload of a kind="run" record in the
 * result store (ResultStore::appendRunReport).
 */

#ifndef SALAM_OBS_RUN_REPORT_HH
#define SALAM_OBS_RUN_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace salam::obs
{

/** The simulator's version string, e.g. "salam-0.2". */
const char *simulatorVersionString();

/**
 * Build attribution baked in at configure time: the git commit the
 * tree was built from (short SHA; "unknown" outside a checkout), the
 * CMake build type, and any sanitizers in the compile flags. These go
 * into every run report so store records remain attributable across
 * machines and build trees.
 */
const char *gitShaString();
const char *buildTypeString();
const char *sanitizersString();

/** {"git_sha":...,"build_type":...,"sanitizers":...} as JSON. */
std::string buildInfoJson();

/**
 * FNV-1a over @p text; used to fingerprint run configurations so
 * downstream tooling can group or reject dumps by exact config.
 */
std::uint64_t fnv1aHash(const std::string &text);

/**
 * Create the parent directory of @p path (and any missing ancestors)
 * so opening the file for writing cannot fail on a missing directory.
 * Returns false when creation failed; a path with no directory part
 * is trivially true.
 */
bool ensureParentDir(const std::string &path);

/** Everything worth persisting about one run. */
struct RunReport
{
    /**
     * Schema version of the emitted JSON. Bump whenever the layout
     * changes incompatibly; readers reject versions they do not
     * know. The consolidated v1→v5 history lives in DESIGN.md
     * ("RunReport schema history").
     *   1: run/cycles/sim_seconds/compile_seconds/extra/stats (PR 1)
     *   2: adds schema_version, simulator_version, config_hash, and
     *      command_line metadata
     *   3: adds outcome ("ok" | "deadlock" | "fault")
     *   4: adds optional host (host-telemetry summary: wall-time
     *      phase attribution, lock contention, allocation pressure)
     *   5: adds build (git SHA, build type, sanitizers), always
     *      present
     */
    static constexpr unsigned schemaVersion = 5;

    /** Experiment or kernel identifier, e.g. "fig14.gemm". */
    std::string run;

    /** Producing simulator; simulatorVersionString() when empty. */
    std::string simulatorVersion;

    /** fnv1aHash() of the run's configuration text; 0 = unset. */
    std::uint64_t configHash = 0;

    /** The invoking command line, argv joined with spaces. */
    std::string commandLine;

    /**
     * How the run ended: "ok" (completed and checked), "deadlock"
     * (watchdog fired or the event queue drained with work pending),
     * or "fault" (wrong results or another fatal error).
     */
    std::string outcome = "ok";

    /** Accelerator cycles to completion (0 when not applicable). */
    std::uint64_t cycles = 0;

    /** Host wall-clock seconds spent simulating. */
    double simSeconds = 0.0;

    /** Host wall-clock seconds spent building/optimizing IR. */
    double compileSeconds = 0.0;

    /** Extra scalar fields (config knobs, derived metrics). */
    std::vector<std::pair<std::string, double>> extra;

    /** StatRegistry::dumpJson output (a JSON object), or empty. */
    std::string statsJson;

    /**
     * HostTelemetry::dumpJsonString output (a JSON object), or
     * empty. Host wall-time attribution for this run; schema v4.
     */
    std::string hostJson;

    /** Write the report as one self-contained JSON object. */
    void writeJson(std::ostream &os) const;

    /** writeJson as a string (the store record's payload). */
    std::string jsonString() const;
};

} // namespace salam::obs

#endif // SALAM_OBS_RUN_REPORT_HH
