#include "drive/options.hh"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "obs/debug_flags.hh"
#include "obs/host_telemetry.hh"
#include "obs/result_store.hh"
#include "obs/run_report.hh"
#include "sim/logging.hh"
#include "sim/sim_context.hh"

namespace salam::drive
{

std::uint64_t
parseUint(const std::string &flag, const std::string &value, int base)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, base);
    if (end == value.c_str() || *end != '\0')
        fatal("%s needs a number, got '%s'", flag.c_str(),
              value.c_str());
    return v;
}

void
printOptionTable(const OptionList &table)
{
    for (const Option &opt : table) {
        std::string head = opt.name;
        if (!opt.valueName.empty())
            head += " " + opt.valueName;
        std::printf("  %-26s %s\n", head.c_str(), opt.help.c_str());
    }
}

namespace
{

/** The "--trace-out, --stats-out, ..., or --help" error listing. */
std::string
knownOptionListing(const OptionList &table)
{
    std::string known;
    for (std::size_t k = 0; k < table.size(); ++k) {
        if (k)
            known += k + 1 == table.size() ? ", or " : ", ";
        known += table[k].name;
    }
    return known;
}

ParseResult
parseError(const ParsePolicy &policy, const OptionList &table,
           std::string message, bool list_known)
{
    if (policy.fatalErrors) {
        if (list_known)
            fatal("%s (expected %s)", message.c_str(),
                  knownOptionListing(table).c_str());
        fatal("%s", message.c_str());
    }
    ParseResult result;
    result.ok = false;
    result.error = std::move(message);
    return result;
}

} // namespace

ParseResult
parseOptions(int argc, char **argv, const OptionList &table,
             const ParsePolicy &policy)
{
    for (int i = policy.firstArg; i < argc; ++i) {
        std::string arg = argv[i];

        if (policy.positionals != nullptr &&
            arg.rfind("--", 0) != 0) {
            policy.positionals->push_back(arg);
            continue;
        }

        std::string inline_value;
        bool has_inline_value = false;
        if (auto eq = arg.find('='); eq != std::string::npos) {
            inline_value = arg.substr(eq + 1);
            has_inline_value = true;
            arg.erase(eq);
        }

        if (policy.handleHelp && arg == "--help") {
            std::printf("usage: %s [options]\n\noptions:\n",
                        policy.program.c_str());
            printOptionTable(table);
            std::exit(0);
        }

        const Option *opt = nullptr;
        for (const Option &candidate : table) {
            if (candidate.name == arg) {
                opt = &candidate;
                break;
            }
        }
        if (opt == nullptr) {
            // The bench-style fatal appends the known-option listing;
            // the soft error is terse because the caller prints its
            // own usage synopsis.
            return parseError(policy, table,
                              policy.fatalErrors
                                  ? "unknown argument '" + arg + "'"
                                  : "unknown option '" + arg + "'",
                              true);
        }

        std::string value;
        if (opt->valueName.empty()) {
            if (has_inline_value)
                return parseError(policy, table,
                                  arg + " takes no value", false);
        } else if (has_inline_value) {
            value = inline_value;
        } else if (i + 1 >= argc) {
            return parseError(policy, table, arg + " needs a value",
                              false);
        } else {
            value = argv[++i];
        }
        if (opt->outputPath && !value.empty() &&
            !obs::ensureParentDir(value))
            return parseError(policy, table,
                              arg + ": cannot create parent "
                                    "directory of '" + value + "'",
                              false);
        opt->apply(value);
    }
    return {};
}

namespace
{

/** The shared observability option table, applied to @p o. */
OptionList
sharedBenchOptions(ObsOptions &o)
{
    return {
        {"--trace-out", "<file>",
         "write a Chrome trace_event JSON trace (last run wins)",
         [&o](const std::string &v) { o.traceOut = v; }, true},
        {"--stats-out", "<file>",
         "write the statistics dump as JSON (last run wins)",
         [&o](const std::string &v) { o.statsOut = v; }, true},
        {"--profile-out", "<file>",
         "write the critical-path hotspot report (JSON; folded "
         "stacks to <file>.folded) and enable profiling",
         [&o](const std::string &v) { o.profileOut = v; }, true},
        {"--store-out", "<dir>",
         "append queryable run records to a result store "
         "(inspect with salam-query; sweep-safe)",
         [&o](const std::string &v) { o.storeOut = v; }, false},
        {"--stats-interval", "<N>",
         "dump+reset statistics every N engine cycles (JSONL "
         "series next to --stats-out, or stats.intervals.jsonl)",
         [&o](const std::string &v) {
             std::uint64_t cycles = parseUint("--stats-interval", v);
             if (cycles == 0)
                 fatal("--stats-interval needs a positive cycle "
                       "count");
             o.statsInterval = cycles;
         }},
        {"--debug-flags", "<spec>",
         "enable debug flags, e.g. \"Cache,DMA\" or \"All,-Event\"",
         [](const std::string &v) {
             std::string error = obs::DebugFlagRegistry::instance()
                                     .applySpecStrict(v);
             if (!error.empty())
                 fatal("%s", error.c_str());
         }},
        {"--verbose", "", "enable inform()/warn() output",
         [](const std::string &) { LogControl::setVerbose(true); }},
        {"--inject", "<spec>",
         "inject a fault, \"kind@site[:key=value]*\" (repeatable)",
         [&o](const std::string &v) { o.injectSpecs.push_back(v); }},
        {"--inject-seed", "<N>",
         "campaign seed for unspecified nth/bit",
         [&o](const std::string &v) {
             o.injectSeed = parseUint("--inject-seed", v, 0);
         }},
        {"--watchdog", "<ticks>",
         "forward-progress watchdog window",
         [&o](const std::string &v) {
             std::uint64_t ticks = parseUint("--watchdog", v, 0);
             if (ticks == 0)
                 fatal("--watchdog needs a positive tick count");
             o.watchdogTicks = ticks;
         }},
        {"--dump-out", "<file>",
         "hang state-dump path (default state_dump.json)",
         [&o](const std::string &v) { o.dumpOut = v; }, true},
        {"--sweep-threads", "<N>",
         "worker threads for design-space sweeps (0 = all hardware "
         "threads; default 1)",
         [&o](const std::string &v) {
             std::uint64_t threads = parseUint("--sweep-threads", v);
             if (threads > 1024)
                 fatal("--sweep-threads needs a thread count "
                       "(0 = hardware concurrency), got '%s'",
                       v.c_str());
             o.sweepThreads = static_cast<unsigned>(threads);
         }},
        {"--point-timeout", "<seconds>",
         "per-point wall-clock budget in sweeps; a hung point is "
         "classified outcome=timeout and the pool moves on "
         "(0 disables)",
         [&o](const std::string &v) {
             char *end = nullptr;
             double seconds = std::strtod(v.c_str(), &end);
             if (end == v.c_str() || *end != '\0' || seconds < 0.0)
                 fatal("--point-timeout needs a non-negative "
                       "seconds value, got '%s'",
                       v.c_str());
             o.pointTimeoutSeconds = seconds;
         }},
        {"--point-retries", "<N>",
         "extra attempts for a failed sweep point, with exponential "
         "backoff (default 0)",
         [&o](const std::string &v) {
             o.pointRetries = static_cast<unsigned>(
                 parseUint("--point-retries", v));
         }},
        {"--resume", "<store>",
         "skip sweep points that already have an ok record in this "
         "result store (outcome=cached); pair with --store-out to "
         "checkpoint into the same store",
         [&o](const std::string &v) { o.resumePath = v; }},
        {"--sim-mode", "<mode>",
         "sweep-point simulation mode: full (default), fast "
         "(trace-reuse re-scheduling; warns on fallback), or auto "
         "(fast with silent fallback)",
         [&o](const std::string &v) {
             if (v != "full" && v != "fast" && v != "auto")
                 fatal("--sim-mode needs full, fast, or auto, got "
                       "'%s'",
                       v.c_str());
             o.simMode = v;
         }},
        {"--host-telemetry", "",
         "attribute the simulator's own wall time to host phases "
         "and count lock contention",
         [&o](const std::string &) { o.hostTelemetry = true; }},
        {"--host-telemetry-out", "<file>",
         "implies --host-telemetry; single runs write the telemetry "
         "JSON here, sweeps the scaling summary plus "
         "<file>.trace.json",
         [&o](const std::string &v) {
             o.hostTelemetryOut = v;
             o.hostTelemetry = true;
         }, true},
    };
}

} // namespace

ObsOptions
parseObsArgs(int argc, char **argv, const OptionList &extra)
{
    ObsOptions options;
    for (int i = 0; i < argc; ++i) {
        if (i > 0)
            options.commandLine += ' ';
        options.commandLine += argv[i];
    }
    if (argc > 0) {
        options.benchName = argv[0];
        if (auto slash = options.benchName.find_last_of('/');
            slash != std::string::npos)
            options.benchName.erase(0, slash + 1);
    }

    OptionList table = sharedBenchOptions(options);
    table.insert(table.end(), extra.begin(), extra.end());

    ParsePolicy policy;
    policy.program = options.benchName;
    parseOptions(argc, argv, table, policy);

    if (options.hostTelemetry)
        SimContext::current().setHostTelemetry(&mainHostTelemetry());
    resultStore(options);
    return options;
}

obs::HostTelemetry &
mainHostTelemetry()
{
    static obs::HostTelemetry telemetry;
    return telemetry;
}

obs::ResultStore *
resultStore(const ObsOptions &options)
{
    if (options.storeOut.empty())
        return nullptr;
    static std::mutex mutex;
    static std::map<std::string, std::unique_ptr<obs::ResultStore>>
        stores;
    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<obs::ResultStore> &store = stores[options.storeOut];
    if (!store) {
        std::string error;
        store = obs::ResultStore::open(options.storeOut, &error);
        if (!store)
            fatal("--store-out: %s", error.c_str());
    }
    return store.get();
}

} // namespace salam::drive
