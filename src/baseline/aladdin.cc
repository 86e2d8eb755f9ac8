#include "aladdin.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"

namespace salam::baseline
{

using namespace salam::hw;

namespace
{

/** Functional set-associative cache for trace retiming. */
class TraceCache
{
  public:
    explicit TraceCache(const AladdinMemoryConfig &cfg) : cfg(cfg)
    {
        std::uint64_t blocks =
            cfg.cacheSizeBytes / cfg.cacheBlockBytes;
        numSets = std::max<std::uint64_t>(
            1, blocks / cfg.cacheAssociativity);
        sets.resize(numSets);
    }

    /** @return access latency; updates hit/miss counters. */
    unsigned
    access(std::uint64_t addr)
    {
        std::uint64_t block = addr / cfg.cacheBlockBytes;
        std::uint64_t set = block % numSets;
        std::uint64_t tag = block / numSets;
        auto &ways = sets[set];
        for (std::size_t i = 0; i < ways.size(); ++i) {
            if (ways[i] == tag) {
                // LRU: move to front.
                ways.erase(ways.begin() +
                           static_cast<std::ptrdiff_t>(i));
                ways.insert(ways.begin(), tag);
                ++hits;
                return cfg.cacheHitLatency;
            }
        }
        ways.insert(ways.begin(), tag);
        if (ways.size() > cfg.cacheAssociativity)
            ways.pop_back();
        ++misses;
        return cfg.cacheMissLatency;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    AladdinMemoryConfig cfg;
    std::uint64_t numSets;
    std::vector<std::vector<std::uint64_t>> sets;
};

} // namespace

AladdinResult
AladdinSimulator::schedule(const std::vector<TraceEntry> &trace) const
{
    AladdinResult result;
    result.dynamicNodes = trace.size();

    // --- DDDG construction -------------------------------------
    // Register dependences: last writer of each register name.
    // Memory dependences: last store to each byte address.
    std::unordered_map<std::string, std::uint64_t> last_writer;
    std::unordered_map<std::uint64_t, std::uint64_t> last_store;
    std::vector<std::vector<std::uint64_t>> preds(trace.size());

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceEntry &entry = trace[i];
        for (const std::string &operand : entry.operands) {
            auto it = last_writer.find(operand);
            if (it != last_writer.end())
                preds[i].push_back(it->second);
        }
        if (entry.isLoad() || entry.isStore()) {
            for (std::uint32_t byte = 0; byte < entry.memSize;
                 ++byte) {
                auto it = last_store.find(entry.memAddr + byte);
                if (it != last_store.end())
                    preds[i].push_back(it->second);
            }
        }
        if (entry.isStore()) {
            for (std::uint32_t byte = 0; byte < entry.memSize;
                 ++byte) {
                last_store[entry.memAddr + byte] = i;
            }
        }
        if (!entry.result.empty())
            last_writer[entry.result] = i;
    }

    // --- Scheduling ---------------------------------------------
    // Dependence-constrained ASAP with a memory-port/latency model.
    // Compute resources are unconstrained: the datapath is derived
    // from the schedule afterwards (reverse engineering).
    TraceCache cache(cfg.memory);
    bool use_cache =
        cfg.memory.kind == AladdinMemoryConfig::Kind::Cache;

    std::vector<std::uint64_t> start(trace.size(), 0);
    std::vector<std::uint64_t> finish(trace.size(), 0);
    std::map<std::uint64_t, unsigned> read_port_use;
    std::map<std::uint64_t, unsigned> write_port_use;
    unsigned read_ports = use_cache ? cfg.memory.cachePorts
                                    : cfg.memory.spmReadPorts;
    unsigned write_ports = use_cache ? cfg.memory.cachePorts
                                     : cfg.memory.spmWritePorts;

    std::uint64_t total = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceEntry &entry = trace[i];
        std::uint64_t ready = 0;
        for (std::uint64_t p : preds[i])
            ready = std::max(ready, finish[p]);

        unsigned latency;
        if (entry.isLoad() || entry.isStore()) {
            // Port contention delays issue to a free slot.
            auto &use =
                entry.isLoad() ? read_port_use : write_port_use;
            unsigned ports =
                entry.isLoad() ? read_ports : write_ports;
            while (use[ready] >= ports)
                ++ready;
            ++use[ready];
            latency = use_cache ? cache.access(entry.memAddr)
                                : cfg.memory.spmLatency;
        } else if (entry.fu != FuType::None) {
            latency = cfg.profile.fu(entry.fu).latencyCycles;
        } else {
            latency = 0;
        }

        start[i] = ready;
        finish[i] = ready + std::max<unsigned>(latency, 1);
        total = std::max(total, finish[i]);
    }
    result.cycles = total;
    result.cacheHits = cache.hits;
    result.cacheMisses = cache.misses;

    // --- Datapath reverse-engineering ---------------------------
    // A unit of type T is needed for each op of type T active in a
    // cycle; the instantiated count is the peak over the schedule.
    std::map<std::uint64_t, std::array<unsigned, numFuTypes>>
        active;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceEntry &entry = trace[i];
        if (entry.fu == FuType::None || entry.isLoad() ||
            entry.isStore()) {
            continue;
        }
        // Pipelined units: occupied for the initiation interval.
        unsigned ii =
            cfg.profile.fu(entry.fu).initiationInterval;
        for (unsigned c = 0; c < ii; ++c) {
            ++active[start[i] + c]
                    [static_cast<std::size_t>(entry.fu)];
        }
    }
    for (auto &[cycle, counts] : active) {
        for (std::size_t t = 0; t < numFuTypes; ++t) {
            result.fuCounts[t] =
                std::max(result.fuCounts[t], counts[t]);
        }
    }
    return result;
}

AladdinResult
AladdinSimulator::run(const ir::Function &fn,
                      const std::vector<ir::RuntimeValue> &args,
                      ir::MemoryAccessor &memory,
                      const std::string &trace_path) const
{
    using clock = std::chrono::steady_clock;

    auto t0 = clock::now();
    TraceFile::generate(fn, args, memory, trace_path);
    auto t1 = clock::now();

    auto trace = TraceFile::parse(trace_path);
    AladdinResult result = schedule(trace);
    auto t2 = clock::now();

    result.traceBytes = TraceFile::fileBytes(trace_path);
    result.traceGenSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    result.simulateSeconds =
        std::chrono::duration<double>(t2 - t1).count();
    return result;
}

AladdinResult
AladdinSimulator::run(const ir::Function &fn,
                      const std::vector<ir::RuntimeValue> &args,
                      ir::MemoryAccessor &memory) const
{
    std::string path = (std::filesystem::temp_directory_path() /
                        "salam_aladdin_trace_XXXXXX")
                           .string();
    int fd = ::mkstemp(path.data());
    if (fd < 0)
        fatal("cannot create trace file '%s'", path.c_str());
    ::close(fd);
    AladdinResult result = run(fn, args, memory, path);
    std::remove(path.c_str());
    return result;
}

} // namespace salam::baseline
