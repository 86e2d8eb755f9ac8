/**
 * @file
 * ResultStore: an embedded, append-friendly, queryable on-disk store
 * for run results.
 *
 * Write-only artifacts (stats JSON, critical-path profiles,
 * host-telemetry blobs) cannot be listed, compared, or regressed
 * across the hundreds of runs of a design-space sweep. The store is
 * the one place every run record lands, a managed collection with
 * no external database dependency:
 *
 *   <dir>/STORE.json              manifest: schema header plus one
 *                                 registration line per record file
 *                                 (appended on a writer's first flush)
 *   <dir>/records-<pid>-<n>.jsonl one record file per writer process
 *
 * Each record is one line: a small envelope carrying the query keys
 * (kind, bench, kernel, outcome, config hash, sweep point, timestamp)
 * around the payload JSON verbatim. Writers are renameless appenders:
 * a process opens its own record file, so concurrent processes never
 * contend, and within a process appends buffer in memory under a
 * cheap lock and flush in one append (after each point of a durable
 * sweep, on a fatal run, at exit) — record I/O never happens under
 * a lock on the simulation path.
 *
 * The read side (StoreReader) scans every record file, indexes by
 * config hash, and skips corrupt or truncated lines, and lines
 * without the envelope, with a warning instead of failing the load
 * — a killed writer must not poison the store. Unknown envelope or payload fields are preserved: the raw
 * line is kept verbatim, so round-tripping a record written by a
 * newer schema loses nothing (forward compatibility).
 *
 * `salam-query` (src/tools) is the human front end; the
 * findByConfigHash() index is the memoization hook a future
 * sweep-service daemon needs to answer "has this exact configuration
 * already been simulated?".
 */

#ifndef SALAM_OBS_RESULT_STORE_HH
#define SALAM_OBS_RESULT_STORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "json_reader.hh"

namespace salam::obs
{

struct RunReport;

/** One record on its way into the store. */
struct StoreRecord
{
    /**
     * Record class: "run", "profile", "sweep_point", "sweep",
     * "attempt" (one per retry of a sweep point), "injection" (one
     * per fired fault of a campaign).
     */
    std::string kind = "run";

    /** Producing bench/sweep, e.g. "fig13_gemm_pareto". */
    std::string bench;

    /** Kernel / run identifier, e.g. "gemm"; may be empty. */
    std::string kernel;

    /**
     * "ok" | "fault" | "deadlock" | "error" | "timeout" |
     * "cached" | "skipped" | "interrupted".
     */
    std::string outcome = "ok";

    /** RunReport config fingerprint; 0 = not applicable. */
    std::uint64_t configHash = 0;

    /**
     * Sweep point index, or -1 outside a sweep. Defaulted from the
     * current SimContext by ResultStore::append(), so records written
     * from a sweep worker carry a stable point identity.
     */
    long point = -1;

    /** Wall-clock nanoseconds since the Unix epoch at append time. */
    std::uint64_t timestampNs = 0;

    /** The payload: one self-contained JSON object, verbatim. */
    std::string json;
};

/**
 * Append side of the store. Thread-safe: append() serializes the
 * envelope outside any lock and enqueues under a cheap in-memory
 * lock; flush() moves the queue to this process's record file in one
 * append. The destructor flushes.
 */
class ResultStore
{
  public:
    static constexpr unsigned storeSchemaVersion = 1;

    /** Manifest filename inside a store directory. */
    static const char *manifestName();

    /**
     * Open @p dir for appending, creating the directory (and missing
     * parents) and the manifest as needed. Returns null and sets
     * @p error on failure.
     */
    static std::unique_ptr<ResultStore>
    open(const std::string &dir, std::string *error = nullptr);

    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    const std::string &dir() const { return storeDir; }

    /**
     * Queue @p rec for the next flush. Fills timestampNs (wall
     * clock) and, when rec.point is -1, the current SimContext's
     * sweep point index.
     */
    void append(StoreRecord rec);

    /** Envelope a RunReport as a kind="run" record and append it. */
    void appendRunReport(const RunReport &report,
                         const std::string &bench);

    /** Write queued records to the record file; false on I/O error. */
    bool flush();

    /** Records appended and not yet flushed. */
    std::size_t pendingRecords() const;

  private:
    ResultStore(std::string dir, std::string record_path);

    struct Impl;
    std::unique_ptr<Impl> impl;
    std::string storeDir;
};

/** One record loaded from a store. */
struct LoadedRecord
{
    /** Load order across the whole store (file order, line order). */
    std::uint64_t seq = 0;

    std::string kind;
    std::string bench;
    std::string kernel;
    std::string outcome;
    std::uint64_t configHash = 0;
    long point = -1;
    std::uint64_t timestampNs = 0;

    /** Payload JSON verbatim (unknown fields preserved). */
    std::string rawJson;

    /** Parsed payload. */
    JsonValue record;

    /** Source location, for diagnostics. */
    std::string file;
    unsigned line = 0;

    /** Top-level numeric payload field, or @p dflt. */
    double
    number(const std::string &key, double dflt = 0.0) const
    {
        return record.numberOr(key, dflt);
    }
};

/** Record filter; empty fields match everything. */
struct RecordFilter
{
    std::string kind;
    std::string bench;
    std::string kernel;
    std::string outcome;

    bool matches(const LoadedRecord &rec) const;
};

/**
 * Read side: load a store directory (or one of its record files) into
 * memory and answer queries. Corrupt lines, and lines without the
 * store envelope, are skipped with a warning.
 */
class StoreReader
{
  public:
    /**
     * Load @p path (a store directory or one .jsonl file). Warnings
     * (skipped lines, unreadable files) accumulate in warnings();
     * ok() is false only when nothing could be read at all.
     */
    static StoreReader load(const std::string &path);

    bool ok() const { return loadOk; }

    const std::string &error() const { return loadError; }

    const std::vector<std::string> &warnings() const
    { return loadWarnings; }

    const std::vector<LoadedRecord> &records() const { return recs; }

    /** Records matching @p filter, in seq order. */
    std::vector<const LoadedRecord *>
    select(const RecordFilter &filter) const;

    /**
     * The latest (highest-seq) record with @p hash, or null — the
     * sweep-service memoization lookup: a hit means this exact
     * configuration has already been simulated.
     */
    const LoadedRecord *findByConfigHash(std::uint64_t hash) const;

    /** All records with @p hash, in seq order. */
    std::vector<const LoadedRecord *>
    findAllByConfigHash(std::uint64_t hash) const;

  private:
    bool loadOk = false;
    std::string loadError;
    std::vector<std::string> loadWarnings;
    std::vector<LoadedRecord> recs;
};

/** Config-hash text as records carry it: "0x" and 16 hex digits. */
std::string formatConfigHash(std::uint64_t hash);

/** Parse "0x..."/decimal config-hash text; 0 on malformed input. */
std::uint64_t parseConfigHash(const std::string &text);

} // namespace salam::obs

#endif // SALAM_OBS_RESULT_STORE_HH
