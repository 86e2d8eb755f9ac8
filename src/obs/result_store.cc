#include "result_store.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "host_telemetry.hh"
#include "json.hh"
#include "run_report.hh"
#include "sim/sim_context.hh"

#ifdef __unix__
#include <unistd.h>
#endif

namespace salam::obs
{

namespace fs = std::filesystem;

namespace
{

std::uint64_t
wallClockNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

unsigned long
processId()
{
#ifdef __unix__
    return static_cast<unsigned long>(::getpid());
#else
    return 0;
#endif
}

/** Envelope one StoreRecord as a single JSONL line. */
std::string
envelopeLine(const StoreRecord &rec)
{
    std::ostringstream os;
    os << "{\"store_schema\":" << ResultStore::storeSchemaVersion
       << ",\"kind\":\"" << jsonEscape(rec.kind) << "\""
       << ",\"bench\":\"" << jsonEscape(rec.bench) << "\""
       << ",\"kernel\":\"" << jsonEscape(rec.kernel) << "\""
       << ",\"outcome\":\"" << jsonEscape(rec.outcome) << "\""
       << ",\"config_hash\":\"" << formatConfigHash(rec.configHash)
       << "\"";
    if (rec.point >= 0)
        os << ",\"point\":" << rec.point;
    os << ",\"timestamp_ns\":" << rec.timestampNs
       << ",\"record\":"
       << (rec.json.empty() ? std::string("{}") : rec.json) << "}";
    os << "\n";
    return os.str();
}

} // namespace

const char *
ResultStore::manifestName()
{
    return "STORE.json";
}

struct ResultStore::Impl
{
    explicit Impl(std::string record_path)
        : recordPath(std::move(record_path)),
          pendingMutex("result_store_pending"),
          fileMutex("result_store_file")
    {}

    std::string recordPath;
    /** Guards pending only — never held across file I/O. */
    TimedMutex pendingMutex;
    /** Serializes flush()es of this store. */
    TimedMutex fileMutex;
    std::vector<std::string> pending;
    /** This writer's record file has been registered in STORE.json. */
    bool manifestRegistered = false;
};

ResultStore::ResultStore(std::string dir, std::string record_path)
    : impl(std::make_unique<Impl>(std::move(record_path))),
      storeDir(std::move(dir))
{}

ResultStore::~ResultStore()
{
    // fprintf, not warn(): the logging backend lives above salam_obs
    // in the link order and lean tools link salam_obs alone.
    if (!flush())
        std::fprintf(stderr,
                     "warn: result store: final flush to '%s' "
                     "failed\n",
                     impl->recordPath.c_str());
}

std::unique_ptr<ResultStore>
ResultStore::open(const std::string &dir, std::string *error)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec && !fs::is_directory(dir)) {
        if (error != nullptr)
            *error = "cannot create store directory '" + dir +
                     "': " + ec.message();
        return nullptr;
    }

    fs::path manifest = fs::path(dir) / manifestName();
    if (!fs::exists(manifest)) {
        std::ofstream os(manifest);
        if (os) {
            os << "{\"store_schema\":" << storeSchemaVersion
               << ",\"created_by\":\""
               << jsonEscape(simulatorVersionString()) << "\"}\n";
        }
        if (!os) {
            if (error != nullptr)
                *error = "cannot write store manifest in '" + dir +
                         "'";
            return nullptr;
        }
    }

    // One record file per writer process: concurrent processes never
    // share a file, so appends need no cross-process locking. The
    // sequence suffix keeps reopened stores in one process distinct.
    static std::atomic<unsigned> openSeq{0};
    unsigned seq = openSeq.fetch_add(1, std::memory_order_relaxed);
    std::string record_path =
        (fs::path(dir) /
         ("records-" + std::to_string(processId()) + "-" +
          std::to_string(seq) + ".jsonl"))
            .string();

    return std::unique_ptr<ResultStore>(
        new ResultStore(dir, std::move(record_path)));
}

void
ResultStore::append(StoreRecord rec)
{
    rec.timestampNs = wallClockNs();
    if (rec.point < 0)
        rec.point = SimContext::current().sweepPointIndex();
    // Serialize outside the lock; the lock guards one vector push.
    std::string line = envelopeLine(rec);
    std::lock_guard<TimedMutex> lock(impl->pendingMutex);
    impl->pending.push_back(std::move(line));
}

void
ResultStore::appendRunReport(const RunReport &report,
                             const std::string &bench)
{
    StoreRecord rec;
    rec.kind = "run";
    rec.bench = bench;
    rec.kernel = report.run;
    rec.outcome = report.outcome.empty() ? "ok" : report.outcome;
    rec.configHash = report.configHash;
    rec.json = report.jsonString();
    append(std::move(rec));
}

bool
ResultStore::flush()
{
    std::vector<std::string> lines;
    {
        std::lock_guard<TimedMutex> lock(impl->pendingMutex);
        lines.swap(impl->pending);
    }
    if (lines.empty())
        return true;
    std::lock_guard<TimedMutex> io(impl->fileMutex);
    {
        std::ofstream os(impl->recordPath, std::ios::app);
        if (!os) {
            // Put the records back so a later flush can retry.
            std::lock_guard<TimedMutex> lock(impl->pendingMutex);
            impl->pending.insert(
                impl->pending.begin(),
                std::make_move_iterator(lines.begin()),
                std::make_move_iterator(lines.end()));
            return false;
        }
        for (const std::string &line : lines)
            os << line;
        if (!os)
            return false;
    }

    // First successful flush: register this writer's record file in
    // the manifest (one appended JSON line; O_APPEND keeps concurrent
    // writers' lines intact). Registration after the record write
    // means a crash in between leaves an unmanifested record file —
    // the reader loads it anyway with a warning, never silently drops
    // it.
    if (!impl->manifestRegistered) {
        fs::path manifest = fs::path(storeDir) / manifestName();
        std::string base =
            fs::path(impl->recordPath).filename().string();
        std::ofstream ms(manifest, std::ios::app);
        if (ms) {
            ms << "{\"record_file\":\"" << jsonEscape(base)
               << "\"}\n";
        }
        if (ms) {
            impl->manifestRegistered = true;
        } else {
            std::fprintf(stderr,
                         "warn: result store: cannot register '%s' "
                         "in manifest '%s'\n",
                         base.c_str(), manifest.string().c_str());
        }
    }
    return true;
}

std::size_t
ResultStore::pendingRecords() const
{
    std::lock_guard<TimedMutex> lock(impl->pendingMutex);
    return impl->pending.size();
}

bool
RecordFilter::matches(const LoadedRecord &rec) const
{
    return (kind.empty() || rec.kind == kind) &&
           (bench.empty() || rec.bench == bench) &&
           (kernel.empty() || rec.kernel == kernel) &&
           (outcome.empty() || rec.outcome == outcome);
}

std::string
formatConfigHash(std::uint64_t hash)
{
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::uint64_t
parseConfigHash(const std::string &text)
{
    if (text.empty())
        return 0;
    char *end = nullptr;
    std::uint64_t v = std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0')
        return 0;
    return v;
}

namespace
{

/**
 * Decode one record line into @p out. Returns false (with @p why)
 * on malformed input, including a JSON object without the store
 * envelope.
 */
bool
decodeLine(const std::string &text, LoadedRecord &out,
           std::string &why)
{
    JsonValue value;
    try {
        value = parseJson(text);
    } catch (const std::exception &e) {
        why = e.what();
        return false;
    }
    if (!value.isObject()) {
        why = "record line is not a JSON object";
        return false;
    }

    if (!value.has("store_schema") || !value.has("record")) {
        why = "no store envelope (store_schema and record keys)";
        return false;
    }

    out.kind = value.stringOr("kind", "run");
    out.bench = value.stringOr("bench", "");
    out.kernel = value.stringOr("kernel", "");
    out.outcome = value.stringOr("outcome", "ok");
    out.configHash = parseConfigHash(value.stringOr("config_hash", ""));
    out.point = static_cast<long>(value.numberOr("point", -1));
    out.timestampNs =
        static_cast<std::uint64_t>(value.numberOr("timestamp_ns", 0));
    // Re-slice the raw payload from the original text so unknown
    // payload fields survive verbatim: find the "record": key and take
    // everything up to the envelope's closing brace.
    std::size_t at = text.find("\"record\":");
    std::size_t end = text.find_last_of('}');
    if (at != std::string::npos && end != std::string::npos && end > at)
        out.rawJson = text.substr(at + 9, end - (at + 9));
    out.record = value.at("record");
    return true;
}

void
loadFile(const std::string &path, std::vector<LoadedRecord> &recs,
         std::vector<std::string> &warnings, bool skip_manifest)
{
    std::ifstream is(path);
    if (!is) {
        warnings.push_back("cannot read '" + path + "'");
        return;
    }
    std::string line;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        LoadedRecord rec;
        std::string why;
        if (!decodeLine(line, rec, why)) {
            if (!skip_manifest || lineno > 1) {
                warnings.push_back(path + ":" +
                                   std::to_string(lineno) +
                                   ": skipped (" + why + ")");
            }
            continue;
        }
        rec.file = path;
        rec.line = lineno;
        recs.push_back(std::move(rec));
    }
}

/**
 * Parse the store manifest: the header line (schema version) followed
 * by one registration line per record file a writer has flushed.
 * Corrupt or truncated lines (a writer killed mid-append) are skipped
 * with a warning — the manifest is advisory, never load-fatal.
 * Returns false when the manifest is missing or unreadable.
 */
bool
readManifest(const std::string &dir,
             std::vector<std::string> &registered,
             std::vector<std::string> &warnings)
{
    fs::path manifest = fs::path(dir) / ResultStore::manifestName();
    std::ifstream is(manifest);
    if (!is) {
        warnings.push_back("store manifest '" + manifest.string() +
                           "' is missing or unreadable; loading "
                           "record files by directory scan only");
        return false;
    }
    std::string line;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        JsonValue value;
        try {
            value = parseJson(line);
            if (!value.isObject())
                throw std::runtime_error(
                    "manifest line is not a JSON object");
        } catch (const std::exception &e) {
            warnings.push_back(manifest.string() + ":" +
                               std::to_string(lineno) +
                               ": skipped manifest line (" +
                               std::string(e.what()) + ")");
            continue;
        }
        std::string file = value.stringOr("record_file", "");
        if (!file.empty()) {
            registered.push_back(std::move(file));
            continue;
        }
        if (value.has("store_schema")) {
            double schema = value.numberOr("store_schema", 0.0);
            if (schema >
                static_cast<double>(ResultStore::storeSchemaVersion))
                warnings.push_back(
                    "store manifest declares schema " +
                    std::to_string(static_cast<long>(schema)) +
                    " (this reader understands " +
                    std::to_string(ResultStore::storeSchemaVersion) +
                    "); unknown fields are preserved verbatim");
            continue;
        }
        warnings.push_back(manifest.string() + ":" +
                           std::to_string(lineno) +
                           ": skipped manifest line (no record_file "
                           "or store_schema key)");
    }
    return true;
}

} // namespace

StoreReader
StoreReader::load(const std::string &path)
{
    StoreReader reader;
    std::error_code ec;

    if (fs::is_directory(path, ec)) {
        std::vector<std::string> files;
        for (const auto &entry : fs::directory_iterator(path, ec)) {
            if (entry.path().extension() == ".jsonl")
                files.push_back(entry.path().string());
        }
        if (ec) {
            reader.loadError =
                "cannot scan store '" + path + "': " + ec.message();
            return reader;
        }
        // Deterministic load order regardless of directory order.
        std::sort(files.begin(), files.end());

        // Cross-check the manifest against the directory: a record
        // file the manifest lists but the scan did not find means
        // data was lost (or the store was pruned by hand); a record
        // file on disk that no writer registered means the writer
        // died between its record flush and the manifest append.
        // Both are warnings — every readable record still loads, and
        // resume treats anything unreadable as not-done.
        std::vector<std::string> registered;
        if (readManifest(path, registered, reader.loadWarnings) &&
            !registered.empty()) {
            std::unordered_set<std::string> present;
            for (const std::string &file : files)
                present.insert(fs::path(file).filename().string());
            std::unordered_set<std::string> known(registered.begin(),
                                                  registered.end());
            for (const std::string &name : registered) {
                if (present.count(name) == 0)
                    reader.loadWarnings.push_back(
                        "manifest lists '" + name +
                        "' but the file is missing (partial flush "
                        "or pruned store); its records are treated "
                        "as not done");
            }
            for (const std::string &file : files) {
                std::string base =
                    fs::path(file).filename().string();
                if (known.count(base) == 0)
                    reader.loadWarnings.push_back(
                        "record file '" + base +
                        "' is not registered in the manifest "
                        "(writer interrupted before registration?); "
                        "loaded anyway");
            }
        }

        for (const std::string &file : files)
            loadFile(file, reader.recs, reader.loadWarnings, false);
        reader.loadOk = true;
    } else if (fs::exists(path, ec)) {
        loadFile(path, reader.recs, reader.loadWarnings, false);
        reader.loadOk = true;
    } else {
        reader.loadError = "no store at '" + path + "'";
        return reader;
    }

    for (std::size_t i = 0; i < reader.recs.size(); ++i)
        reader.recs[i].seq = i;
    return reader;
}

std::vector<const LoadedRecord *>
StoreReader::select(const RecordFilter &filter) const
{
    std::vector<const LoadedRecord *> out;
    for (const LoadedRecord &rec : recs) {
        if (filter.matches(rec))
            out.push_back(&rec);
    }
    return out;
}

const LoadedRecord *
StoreReader::findByConfigHash(std::uint64_t hash) const
{
    const LoadedRecord *found = nullptr;
    for (const LoadedRecord &rec : recs) {
        if (rec.configHash == hash && hash != 0)
            found = &rec;
    }
    return found;
}

std::vector<const LoadedRecord *>
StoreReader::findAllByConfigHash(std::uint64_t hash) const
{
    std::vector<const LoadedRecord *> out;
    for (const LoadedRecord &rec : recs) {
        if (rec.configHash == hash && hash != 0)
            out.push_back(&rec);
    }
    return out;
}

} // namespace salam::obs
