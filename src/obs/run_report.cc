#include "run_report.hh"

#include <filesystem>
#include <sstream>

#include "json.hh"
#include "result_store.hh"

namespace salam::obs
{

const char *
simulatorVersionString()
{
    return "salam-0.2";
}

const char *
gitShaString()
{
#ifdef SALAM_GIT_SHA
    return SALAM_GIT_SHA;
#else
    return "unknown";
#endif
}

const char *
buildTypeString()
{
#ifdef SALAM_BUILD_TYPE
    return SALAM_BUILD_TYPE;
#else
    return "unknown";
#endif
}

const char *
sanitizersString()
{
#ifdef SALAM_SANITIZERS
    return SALAM_SANITIZERS;
#else
    return "";
#endif
}

std::string
buildInfoJson()
{
    std::string out = "{\"git_sha\":\"";
    out += jsonEscape(gitShaString());
    out += "\",\"build_type\":\"";
    out += jsonEscape(buildTypeString());
    out += "\",\"sanitizers\":\"";
    out += jsonEscape(sanitizersString());
    out += "\"}";
    return out;
}

std::uint64_t
fnv1aHash(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

bool
ensureParentDir(const std::string &path)
{
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        return true;
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    return !ec || std::filesystem::is_directory(parent);
}

void
RunReport::writeJson(std::ostream &os) const
{
    os << "{\"schema_version\":" << schemaVersion
       << ",\"simulator_version\":\""
       << jsonEscape(simulatorVersion.empty()
                         ? simulatorVersionString()
                         : simulatorVersion)
       << "\""
       // Hex string, not a number: 64-bit hashes do not survive the
       // double-precision round trip most JSON readers apply.
       << ",\"config_hash\":\"" << formatConfigHash(configHash)
       << "\""
       << ",\"command_line\":\"" << jsonEscape(commandLine) << "\""
       << ",\"build\":" << buildInfoJson()
       << ",\"outcome\":\""
       << jsonEscape(outcome.empty() ? "ok" : outcome) << "\""
       << ",\"run\":\"" << jsonEscape(run) << "\""
       << ",\"cycles\":" << cycles
       << ",\"sim_seconds\":" << jsonNumber(simSeconds)
       << ",\"compile_seconds\":" << jsonNumber(compileSeconds);
    for (const auto &[key, value] : extra)
        os << ",\"" << jsonEscape(key) << "\":" << jsonNumber(value);
    if (!statsJson.empty())
        os << ",\"stats\":" << statsJson;
    if (!hostJson.empty())
        os << ",\"host\":" << hostJson;
    os << "}";
}

std::string
RunReport::jsonString() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

} // namespace salam::obs
