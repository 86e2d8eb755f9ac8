/**
 * @file
 * salam-query: inspect, compare, and gate run-result stores.
 *
 *   salam-query list    <store> [filters] [--json]
 *   salam-query show    <store> (--hash H | --seq N)
 *   salam-query diff    <storeA> <storeB> [filters] [--field F]
 *                       [--json]
 *   salam-query regress <store> --baseline <file>
 *                       [--max-drop-pct P] [--kernel K]
 *   salam-query top     <store> [--limit N] [--json]
 *   salam-query attempts <store> [--bench B] [--json]
 *
 * `attempts` audits sweep flakiness: every kind="attempt" record a
 * retrying sweep wrote (one per try of a point), plus which points
 * needed more than one attempt.
 *
 * Filters: --bench B --kernel K --outcome O --kind D.
 * A <store> is a directory written with --store-out, or one of its
 * record files.
 *
 * Exit codes: 0 success; 1 usage or I/O error; 2 `regress` found a
 * regression beyond the threshold (the CI-gate signal).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "drive/options.hh"
#include "obs/json.hh"
#include "obs/result_store.hh"
#include "obs/store_query.hh"

using namespace salam;

namespace
{

int
usage(const char *msg = nullptr)
{
    if (msg != nullptr)
        std::fprintf(stderr, "salam-query: %s\n", msg);
    std::fprintf(
        stderr,
        "usage:\n"
        "  salam-query list    <store> [--bench B] [--kernel K]\n"
        "                      [--outcome O] [--kind D] [--json]\n"
        "  salam-query show    <store> (--hash H | --seq N)\n"
        "  salam-query diff    <storeA> <storeB> [--kernel K]\n"
        "                      [--bench B] [--field F] [--json]\n"
        "  salam-query regress <store> --baseline <file>\n"
        "                      [--max-drop-pct P] [--kernel K]\n"
        "  salam-query top     <store> [--limit N] [--json]\n"
        "  salam-query attempts <store> [--bench B] [--json]\n");
    return 1;
}

struct Args
{
    std::vector<std::string> positional;
    obs::RecordFilter filter;
    std::string field;
    std::string baseline;
    std::string hash;
    long seq = -1;
    double maxDropPct = 20.0;
    std::size_t limit = 20;
    bool json = false;
};

bool
parseArgs(int argc, char **argv, Args &args, std::string &error)
{
    // Shared table-driven parser (drive/options.hh) in soft-error
    // mode: failures land in usage() with exit code 1, and the store
    // paths arrive as positional arguments.
    drive::OptionList table = {
        {"--bench", "<B>", "filter records by bench",
         [&](const std::string &v) { args.filter.bench = v; }},
        {"--kernel", "<K>", "filter records by kernel",
         [&](const std::string &v) { args.filter.kernel = v; }},
        {"--outcome", "<O>", "filter records by outcome",
         [&](const std::string &v) { args.filter.outcome = v; }},
        {"--kind", "<D>", "filter records by kind",
         [&](const std::string &v) { args.filter.kind = v; }},
        {"--field", "<F>", "diff only this payload field",
         [&](const std::string &v) { args.field = v; }},
        {"--baseline", "<file>", "regress baseline JSON",
         [&](const std::string &v) { args.baseline = v; }},
        {"--hash", "<H>", "select a record by config hash",
         [&](const std::string &v) { args.hash = v; }},
        {"--seq", "<N>", "select a record by store sequence",
         [&](const std::string &v) {
             args.seq = std::strtol(v.c_str(), nullptr, 10);
         }},
        {"--max-drop-pct", "<P>", "regression budget in percent",
         [&](const std::string &v) {
             args.maxDropPct = std::strtod(v.c_str(), nullptr);
         }},
        {"--limit", "<N>", "top-N entry budget",
         [&](const std::string &v) {
             args.limit = static_cast<std::size_t>(
                 std::strtoul(v.c_str(), nullptr, 10));
         }},
        {"--json", "", "machine-readable output",
         [&](const std::string &) { args.json = true; }},
    };
    drive::ParsePolicy policy;
    policy.program = "salam-query";
    policy.firstArg = 2;
    policy.handleHelp = false;
    policy.fatalErrors = false;
    policy.positionals = &args.positional;
    drive::ParseResult result =
        drive::parseOptions(argc, argv, table, policy);
    error = result.error;
    return result.ok;
}

obs::StoreReader
loadOrDie(const std::string &path, int &rc)
{
    obs::StoreReader reader = obs::StoreReader::load(path);
    if (!reader.ok()) {
        std::fprintf(stderr, "salam-query: %s\n",
                     reader.error().c_str());
        rc = 1;
        return reader;
    }
    for (const std::string &warning : reader.warnings())
        std::fprintf(stderr, "salam-query: warning: %s\n",
                     warning.c_str());
    rc = 0;
    return reader;
}

int
cmdList(const Args &args)
{
    int rc = 0;
    obs::StoreReader reader = loadOrDie(args.positional[0], rc);
    if (rc != 0)
        return rc;
    std::vector<const obs::LoadedRecord *> selected =
        reader.select(args.filter);
    if (args.json) {
        std::printf("[");
        for (std::size_t i = 0; i < selected.size(); ++i) {
            const obs::LoadedRecord *rec = selected[i];
            std::printf(
                "%s{\"seq\":%llu,\"kind\":\"%s\",\"bench\":\"%s\","
                "\"kernel\":\"%s\",\"outcome\":\"%s\","
                "\"config_hash\":\"%s\",\"point\":%ld,"
                "\"cycles\":%s}",
                i ? "," : "",
                static_cast<unsigned long long>(rec->seq),
                obs::jsonEscape(rec->kind).c_str(),
                obs::jsonEscape(rec->bench).c_str(),
                obs::jsonEscape(rec->kernel).c_str(),
                obs::jsonEscape(rec->outcome).c_str(),
                obs::formatConfigHash(rec->configHash).c_str(),
                rec->point,
                obs::jsonNumber(rec->number("cycles")).c_str());
        }
        std::printf("]\n");
        return 0;
    }
    std::printf("%-5s %-11s %-22s %-12s %-9s %-6s %12s  %s\n", "seq",
                "kind", "bench", "kernel", "outcome", "point",
                "cycles", "config_hash");
    for (const obs::LoadedRecord *rec : selected) {
        std::printf("%-5llu %-11s %-22s %-12s %-9s %-6ld %12.0f  %s\n",
                    static_cast<unsigned long long>(rec->seq),
                    rec->kind.c_str(), rec->bench.c_str(),
                    rec->kernel.c_str(), rec->outcome.c_str(),
                    rec->point, rec->number("cycles"),
                    obs::formatConfigHash(rec->configHash).c_str());
    }
    // Outcome histogram: one line splitting the deferred classes
    // (cached, skipped) from real failures at a glance.
    if (!selected.empty()) {
        std::map<std::string, std::size_t> outcomes;
        for (const obs::LoadedRecord *rec : selected)
            ++outcomes[rec->outcome];
        std::printf("outcomes:");
        for (const auto &[outcome, count] : outcomes)
            std::printf(" %s=%zu", outcome.c_str(), count);
        std::printf("\n");
    }
    std::printf("%zu record%s (%zu total in store)\n", selected.size(),
                selected.size() == 1 ? "" : "s",
                reader.records().size());
    return 0;
}

int
cmdAttempts(const Args &args)
{
    int rc = 0;
    obs::StoreReader reader = loadOrDie(args.positional[0], rc);
    if (rc != 0)
        return rc;
    obs::RecordFilter filter = args.filter;
    filter.kind = "attempt";
    std::vector<const obs::LoadedRecord *> selected =
        reader.select(filter);
    if (args.json) {
        std::printf("[");
        for (std::size_t i = 0; i < selected.size(); ++i) {
            const obs::LoadedRecord *rec = selected[i];
            std::printf(
                "%s{\"point\":%ld,\"attempt\":%s,"
                "\"outcome\":\"%s\",\"wall_seconds\":%s,"
                "\"error\":\"%s\"}",
                i ? "," : "", rec->point,
                obs::jsonNumber(rec->number("attempt")).c_str(),
                obs::jsonEscape(rec->outcome).c_str(),
                obs::jsonNumber(rec->number("wall_seconds")).c_str(),
                obs::jsonEscape(rec->record.stringOr("error", ""))
                    .c_str());
        }
        std::printf("]\n");
        return 0;
    }
    if (selected.empty()) {
        std::printf("no attempt records in store (sweeps write them "
                    "when --point-retries > 0)\n");
        return 0;
    }
    std::printf("%-6s %-8s %-9s %12s  %s\n", "point", "attempt",
                "outcome", "wall(s)", "error");
    std::map<long, unsigned> tries;
    std::map<long, bool> recovered;
    for (const obs::LoadedRecord *rec : selected) {
        std::printf("%-6ld %-8.0f %-9s %12.3f  %s\n", rec->point,
                    rec->number("attempt"), rec->outcome.c_str(),
                    rec->number("wall_seconds"),
                    rec->record.stringOr("error", "").c_str());
        unsigned attempt =
            static_cast<unsigned>(rec->number("attempt"));
        if (attempt > tries[rec->point])
            tries[rec->point] = attempt;
        if (rec->outcome == "ok")
            recovered[rec->point] = true;
    }
    std::size_t flaky = 0;
    std::size_t rescued = 0;
    for (const auto &[point, n] : tries) {
        if (n > 1) {
            ++flaky;
            if (recovered.count(point) != 0)
                ++rescued;
        }
    }
    std::printf("%zu attempt record%s over %zu point%s; %zu point%s "
                "needed more than one attempt (%zu recovered by "
                "retry)\n",
                selected.size(), selected.size() == 1 ? "" : "s",
                tries.size(), tries.size() == 1 ? "" : "s", flaky,
                flaky == 1 ? "" : "s", rescued);
    return 0;
}

int
cmdShow(const Args &args)
{
    int rc = 0;
    obs::StoreReader reader = loadOrDie(args.positional[0], rc);
    if (rc != 0)
        return rc;
    const obs::LoadedRecord *rec = nullptr;
    if (!args.hash.empty()) {
        std::uint64_t hash = obs::parseConfigHash(args.hash);
        if (hash == 0)
            return usage("--hash needs a non-zero hash");
        rec = reader.findByConfigHash(hash);
    } else if (args.seq >= 0) {
        for (const obs::LoadedRecord &candidate : reader.records()) {
            if (candidate.seq ==
                static_cast<std::uint64_t>(args.seq))
                rec = &candidate;
        }
    } else {
        return usage("show needs --hash or --seq");
    }
    if (rec == nullptr) {
        std::fprintf(stderr, "salam-query: no matching record\n");
        return 1;
    }
    std::printf(
        "{\"seq\":%llu,\"kind\":\"%s\",\"bench\":\"%s\","
        "\"kernel\":\"%s\",\"outcome\":\"%s\",\"config_hash\":\"%s\","
        "\"point\":%ld,\"timestamp_ns\":%llu,\"record\":%s}\n",
        static_cast<unsigned long long>(rec->seq),
        obs::jsonEscape(rec->kind).c_str(),
        obs::jsonEscape(rec->bench).c_str(),
        obs::jsonEscape(rec->kernel).c_str(),
        obs::jsonEscape(rec->outcome).c_str(),
        obs::formatConfigHash(rec->configHash).c_str(), rec->point,
        static_cast<unsigned long long>(rec->timestampNs),
        rec->rawJson.empty() ? "{}" : rec->rawJson.c_str());
    return 0;
}

int
cmdDiff(const Args &args)
{
    int rc = 0;
    obs::StoreReader reader_a = loadOrDie(args.positional[0], rc);
    if (rc != 0)
        return rc;
    obs::StoreReader reader_b = loadOrDie(args.positional[1], rc);
    if (rc != 0)
        return rc;
    obs::DiffReport report = obs::diffStores(reader_a, reader_b,
                                             args.filter, args.field);
    if (args.json) {
        std::printf("{\"paired\":%zu,\"changed\":%zu,"
                    "\"only_in_a\":%zu,\"only_in_b\":%zu,"
                    "\"rows\":[",
                    report.pairedRows, report.changedRows,
                    report.onlyInA, report.onlyInB);
        bool first_row = true;
        for (const obs::DiffRow &row : report.rows) {
            std::printf("%s{\"kernel\":\"%s\",\"point\":%ld,"
                        "\"changed\":%s,\"fields\":{",
                        first_row ? "" : ",",
                        obs::jsonEscape(row.kernel).c_str(),
                        row.point, row.changed ? "true" : "false");
            first_row = false;
            for (std::size_t i = 0; i < row.fields.size(); ++i) {
                const obs::DiffField &field = row.fields[i];
                std::printf(
                    "%s\"%s\":{\"a\":%s,\"b\":%s,\"delta\":%s,"
                    "\"pct\":%s}",
                    i ? "," : "",
                    obs::jsonEscape(field.key).c_str(),
                    obs::jsonNumber(field.a).c_str(),
                    obs::jsonNumber(field.b).c_str(),
                    obs::jsonNumber(field.delta).c_str(),
                    obs::jsonNumber(field.pct).c_str());
            }
            std::printf("}}");
        }
        std::printf("]}\n");
        return 0;
    }
    for (const obs::DiffRow &row : report.rows) {
        if (row.a == nullptr) {
            std::printf("%-10s point %-4ld only in B\n",
                        row.kernel.c_str(), row.point);
            continue;
        }
        if (row.b == nullptr) {
            std::printf("%-10s point %-4ld only in A\n",
                        row.kernel.c_str(), row.point);
            continue;
        }
        std::printf("%-10s point %-4ld %s\n", row.kernel.c_str(),
                    row.point, row.changed ? "CHANGED" : "same");
        for (const obs::DiffField &field : row.fields) {
            if (field.delta == 0.0)
                continue;
            std::printf("    %-24s %14.6g -> %-14.6g (%+.2f%%)\n",
                        field.key.c_str(), field.a, field.b,
                        field.pct);
        }
    }
    std::printf("%zu paired, %zu changed, %zu only in A, %zu only "
                "in B\n",
                report.pairedRows, report.changedRows,
                report.onlyInA, report.onlyInB);
    return 0;
}

int
cmdRegress(const Args &args)
{
    if (args.baseline.empty())
        return usage("regress needs --baseline <file>");
    int rc = 0;
    obs::StoreReader reader = loadOrDie(args.positional[0], rc);
    if (rc != 0)
        return rc;
    std::FILE *fp = std::fopen(args.baseline.c_str(), "rb");
    if (fp == nullptr) {
        std::fprintf(stderr, "salam-query: cannot read baseline "
                             "'%s'\n",
                     args.baseline.c_str());
        return 1;
    }
    std::string baseline_json;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), fp)) > 0)
        baseline_json.append(buf, got);
    std::fclose(fp);

    obs::RegressReport report = obs::regressAgainstBaseline(
        reader, baseline_json, args.maxDropPct, args.filter.kernel);
    if (!report.error.empty()) {
        std::fprintf(stderr, "salam-query: %s\n",
                     report.error.c_str());
        return 1;
    }
    for (const obs::RegressRow &row : report.rows) {
        std::printf("%-14s baseline %.3e ticks/s, now %.3e ticks/s "
                    "(%.2fx) %s\n",
                    row.kernel.c_str(), row.baselineTicksPerSec,
                    row.currentTicksPerSec, row.ratio,
                    row.pass ? "ok" : "REGRESSED");
    }
    for (const std::string &kernel : report.missingKernels)
        std::printf("%-14s no store record to compare; skipped\n",
                    kernel.c_str());
    if (!report.pass) {
        std::printf("regression beyond %.0f%% budget\n",
                    report.maxDropPct);
        return 2;
    }
    std::printf("all %zu kernel(s) within the %.0f%% budget\n",
                report.rows.size(), report.maxDropPct);
    return 0;
}

int
cmdTop(const Args &args)
{
    int rc = 0;
    obs::StoreReader reader = loadOrDie(args.positional[0], rc);
    if (rc != 0)
        return rc;
    std::vector<obs::TopEntry> entries =
        obs::topHotspots(reader, args.limit);
    if (args.json) {
        std::printf("[");
        for (std::size_t i = 0; i < entries.size(); ++i) {
            std::printf("%s{\"label\":\"%s\",\"cycles\":%llu,"
                        "\"instances\":%llu,\"runs\":%zu}",
                        i ? "," : "",
                        obs::jsonEscape(entries[i].label).c_str(),
                        static_cast<unsigned long long>(
                            entries[i].cycles),
                        static_cast<unsigned long long>(
                            entries[i].instances),
                        entries[i].runs);
        }
        std::printf("]\n");
        return 0;
    }
    if (entries.empty()) {
        std::printf("no profile records in store (run with "
                    "--profile-out and --store-out)\n");
        return 0;
    }
    std::printf("%12s %10s %5s  %s\n", "cycles", "instances", "runs",
                "instruction");
    for (const obs::TopEntry &entry : entries) {
        std::printf("%12llu %10llu %5zu  %s\n",
                    static_cast<unsigned long long>(entry.cycles),
                    static_cast<unsigned long long>(entry.instances),
                    entry.runs, entry.label.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    Args args;
    std::string error;
    if (!parseArgs(argc, argv, args, error))
        return usage(error.c_str());

    std::size_t want_stores = cmd == "diff" ? 2 : 1;
    if (args.positional.size() != want_stores)
        return usage(cmd == "diff"
                         ? "diff needs exactly two stores"
                         : "expected exactly one store path");

    if (cmd == "list")
        return cmdList(args);
    if (cmd == "show")
        return cmdShow(args);
    if (cmd == "diff")
        return cmdDiff(args);
    if (cmd == "regress")
        return cmdRegress(args);
    if (cmd == "top")
        return cmdTop(args);
    if (cmd == "attempts")
        return cmdAttempts(args);
    return usage(("unknown command '" + cmd + "'").c_str());
}
