/**
 * @file
 * Minimal JSON emission helpers shared by the machine-readable dumps
 * (stats JSON, Chrome traces, run reports). Emission only — parsing
 * lives in the tests that validate these formats.
 */

#ifndef SALAM_OBS_JSON_HH
#define SALAM_OBS_JSON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace salam::obs
{

/** Escape @p s for use inside a double-quoted JSON string. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Render a double as a JSON number (never NaN/Inf, never locale). */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    // Integral values print without a fraction so counters stay
    // exact and diffable.
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::abs(v) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

/**
 * Streaming JSON writer for nested structures (the state dumps the
 * watchdog emits). Handles comma placement and nesting; the caller is
 * responsible for balanced begin/end calls, which str() asserts.
 */
class JsonBuilder
{
  public:
    JsonBuilder &
    beginObject()
    {
        comma();
        out += '{';
        stack.push_back(false);
        return *this;
    }

    JsonBuilder &
    beginObject(const std::string &key)
    {
        writeKey(key);
        out += '{';
        stack.push_back(false);
        return *this;
    }

    JsonBuilder &
    endObject()
    {
        out += '}';
        pop();
        return *this;
    }

    JsonBuilder &
    beginArray()
    {
        comma();
        out += '[';
        stack.push_back(false);
        return *this;
    }

    JsonBuilder &
    beginArray(const std::string &key)
    {
        writeKey(key);
        out += '[';
        stack.push_back(false);
        return *this;
    }

    JsonBuilder &
    endArray()
    {
        out += ']';
        pop();
        return *this;
    }

    JsonBuilder &
    field(const std::string &key, const std::string &value)
    {
        writeKey(key);
        out += '"';
        out += jsonEscape(value);
        out += '"';
        return *this;
    }

    JsonBuilder &
    field(const std::string &key, const char *value)
    {
        return field(key, std::string(value));
    }

    JsonBuilder &
    field(const std::string &key, double value)
    {
        writeKey(key);
        out += jsonNumber(value);
        return *this;
    }

    JsonBuilder &
    field(const std::string &key, std::uint64_t value)
    {
        writeKey(key);
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
        out += buf;
        return *this;
    }

    JsonBuilder &
    field(const std::string &key, unsigned value)
    {
        return field(key, static_cast<std::uint64_t>(value));
    }

    JsonBuilder &
    field(const std::string &key, bool value)
    {
        writeKey(key);
        out += value ? "true" : "false";
        return *this;
    }

    /** Array-element string value. */
    JsonBuilder &
    value(const std::string &v)
    {
        comma();
        out += '"';
        out += jsonEscape(v);
        out += '"';
        return *this;
    }

    JsonBuilder &
    value(std::uint64_t v)
    {
        comma();
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        out += buf;
        return *this;
    }

    bool balanced() const { return stack.empty(); }

    const std::string &str() const { return out; }

  private:
    void
    comma()
    {
        if (!stack.empty()) {
            if (stack.back())
                out += ',';
            stack.back() = true;
        }
    }

    void
    writeKey(const std::string &key)
    {
        comma();
        out += '"';
        out += jsonEscape(key);
        out += "\":";
    }

    void
    pop()
    {
        if (!stack.empty())
            stack.pop_back();
    }

    std::string out;
    std::vector<bool> stack;
};

} // namespace salam::obs

#endif // SALAM_OBS_JSON_HH
