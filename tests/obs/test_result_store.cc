/**
 * @file
 * ResultStore / StoreReader coverage: ingest-query round trips,
 * schema forward compatibility (unknown fields preserved),
 * concurrent multi-worker appends (exercised under TSan in CI), and
 * corrupt/truncated record recovery.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "obs/result_store.hh"
#include "obs/run_report.hh"
#include "sim/sim_context.hh"

using namespace salam;
using namespace salam::obs;

namespace fs = std::filesystem;

namespace
{

/** Fresh scratch directory under the system temp dir. */
class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (fs::temp_directory_path() /
               ("salam_store_test_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name())))
                  .string();
        fs::remove_all(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

StoreRecord
makeRecord(const std::string &kernel, long point, double cycles)
{
    StoreRecord rec;
    rec.kind = "run";
    rec.bench = "unit";
    rec.kernel = kernel;
    rec.configHash = 0x1000 + static_cast<std::uint64_t>(point);
    rec.point = point;
    rec.json = "{\"run\":\"" + kernel +
               "\",\"cycles\":" + std::to_string(cycles) + "}";
    return rec;
}

} // namespace

TEST_F(StoreTest, RoundTrip)
{
    {
        std::string error;
        auto store = ResultStore::open(dir, &error);
        ASSERT_NE(store, nullptr) << error;
        EXPECT_TRUE(fs::exists(fs::path(dir) /
                               ResultStore::manifestName()));
        store->append(makeRecord("gemm", 0, 100));
        store->append(makeRecord("gemm", 1, 200));
        store->append(makeRecord("fft", 0, 300));
        EXPECT_EQ(store->pendingRecords(), 3u);
        ASSERT_TRUE(store->flush());
        EXPECT_EQ(store->pendingRecords(), 0u);
    }

    StoreReader reader = StoreReader::load(dir);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_TRUE(reader.warnings().empty());
    ASSERT_EQ(reader.records().size(), 3u);

    RecordFilter filter;
    filter.kernel = "gemm";
    auto gemm = reader.select(filter);
    ASSERT_EQ(gemm.size(), 2u);
    EXPECT_EQ(gemm[0]->point, 0);
    EXPECT_EQ(gemm[1]->point, 1);
    EXPECT_DOUBLE_EQ(gemm[1]->number("cycles"), 200.0);
    EXPECT_EQ(gemm[0]->bench, "unit");
    EXPECT_EQ(gemm[0]->outcome, "ok");
    EXPECT_GT(gemm[0]->timestampNs, 0u);
}

TEST_F(StoreTest, FindByConfigHash)
{
    {
        auto store = ResultStore::open(dir);
        ASSERT_NE(store, nullptr);
        store->append(makeRecord("gemm", 0, 100));
        store->append(makeRecord("gemm", 1, 200));
        // Re-run of point 1's configuration: same hash, new data.
        StoreRecord rerun = makeRecord("gemm", 1, 222);
        store->append(std::move(rerun));
    }

    StoreReader reader = StoreReader::load(dir);
    ASSERT_TRUE(reader.ok());
    const LoadedRecord *hit = reader.findByConfigHash(0x1001);
    ASSERT_NE(hit, nullptr);
    // The memoization lookup returns the latest record.
    EXPECT_DOUBLE_EQ(hit->number("cycles"), 222.0);
    EXPECT_EQ(reader.findAllByConfigHash(0x1001).size(), 2u);
    EXPECT_EQ(reader.findByConfigHash(0xdead), nullptr);
    EXPECT_EQ(reader.findByConfigHash(0), nullptr);
}

TEST_F(StoreTest, UnknownFieldsSurviveRoundTrip)
{
    // A record written by a hypothetical newer schema: extra
    // envelope-payload fields this build knows nothing about.
    {
        auto store = ResultStore::open(dir);
        ASSERT_NE(store, nullptr);
        StoreRecord rec;
        rec.kernel = "gemm";
        rec.json = "{\"cycles\":7,\"future_field\":{\"nested\":"
                   "[1,2,3]},\"another\":\"text\"}";
        store->append(std::move(rec));
    }

    StoreReader reader = StoreReader::load(dir);
    ASSERT_TRUE(reader.ok());
    ASSERT_EQ(reader.records().size(), 1u);
    const LoadedRecord &rec = reader.records()[0];
    // Parsed view sees the known field...
    EXPECT_DOUBLE_EQ(rec.number("cycles"), 7.0);
    // ...and the raw payload preserves the unknown ones verbatim.
    EXPECT_NE(rec.rawJson.find("future_field"), std::string::npos);
    EXPECT_NE(rec.rawJson.find("[1,2,3]"), std::string::npos);
    EXPECT_NE(rec.rawJson.find("\"another\":\"text\""),
              std::string::npos);
    EXPECT_TRUE(rec.record.has("future_field"));
}

TEST_F(StoreTest, RunReportMapsOntoARunRecord)
{
    // appendRunReport is how every run lands in a store: the envelope
    // takes its query keys from the report, and the payload is the
    // report itself.
    RunReport report;
    report.run = "spmv";
    report.cycles = 4242;
    report.configHash = 0xabc;
    report.outcome = "fault";
    {
        auto store = ResultStore::open(dir);
        ASSERT_NE(store, nullptr);
        store->appendRunReport(report, "unit_bench");
    }
    // A line without the store envelope (the bare report payload) is
    // not a record: the reader skips it with a warning.
    {
        std::ofstream os(fs::path(dir) / "records-9999-0.jsonl");
        os << report.jsonString() << "\n";
    }

    StoreReader reader = StoreReader::load(dir);
    ASSERT_TRUE(reader.ok()) << reader.error();
    ASSERT_EQ(reader.records().size(), 1u);
    const LoadedRecord &rec = reader.records()[0];
    EXPECT_EQ(rec.kind, "run");
    EXPECT_EQ(rec.bench, "unit_bench");
    EXPECT_EQ(rec.kernel, "spmv");
    EXPECT_EQ(rec.outcome, "fault");
    EXPECT_EQ(rec.configHash, 0xabcu);
    EXPECT_EQ(rec.record.stringOr("config_hash", ""),
              formatConfigHash(0xabc));
    EXPECT_DOUBLE_EQ(rec.number("cycles"), 4242.0);
    EXPECT_EQ(rec.rawJson, report.jsonString());
    // v5 reports always carry build attribution.
    ASSERT_TRUE(rec.record.has("build"));
    EXPECT_TRUE(rec.record.at("build").has("git_sha"));
    EXPECT_TRUE(rec.record.at("build").has("build_type"));

    std::size_t skipped = 0;
    for (const std::string &warning : reader.warnings()) {
        if (warning.find("records-9999-0.jsonl:1: skipped (no store "
                         "envelope") != std::string::npos)
            ++skipped;
    }
    EXPECT_EQ(skipped, 1u);
}

TEST_F(StoreTest, ConcurrentAppendsFromManyThreads)
{
    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 50;
    {
        auto store = ResultStore::open(dir);
        ASSERT_NE(store, nullptr);
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < kThreads; ++t) {
            pool.emplace_back([&store, t] {
                SimContext ctx;
                ScopedSimContext bind(ctx);
                for (unsigned i = 0; i < kPerThread; ++i) {
                    store->append(makeRecord(
                        "k" + std::to_string(t),
                        static_cast<long>(i), i * 1.0));
                    if (i % 16 == 0)
                        store->flush();
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
        ASSERT_TRUE(store->flush());
    }

    StoreReader reader = StoreReader::load(dir);
    ASSERT_TRUE(reader.ok());
    EXPECT_TRUE(reader.warnings().empty());
    EXPECT_EQ(reader.records().size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    for (unsigned t = 0; t < kThreads; ++t) {
        RecordFilter filter;
        filter.kernel = "k" + std::to_string(t);
        EXPECT_EQ(reader.select(filter).size(), kPerThread);
    }
}

TEST_F(StoreTest, TwoWritersSameDirectory)
{
    // Two stores opened on the same directory write distinct record
    // files; the reader merges them.
    {
        auto store_a = ResultStore::open(dir);
        auto store_b = ResultStore::open(dir);
        ASSERT_NE(store_a, nullptr);
        ASSERT_NE(store_b, nullptr);
        store_a->append(makeRecord("gemm", 0, 1));
        store_b->append(makeRecord("gemm", 1, 2));
    }

    std::size_t jsonl_files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".jsonl")
            ++jsonl_files;
    }
    EXPECT_EQ(jsonl_files, 2u);

    StoreReader reader = StoreReader::load(dir);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.records().size(), 2u);
}

TEST_F(StoreTest, CorruptAndTruncatedLinesAreSkipped)
{
    {
        auto store = ResultStore::open(dir);
        ASSERT_NE(store, nullptr);
        store->append(makeRecord("gemm", 0, 100));
        store->append(makeRecord("gemm", 1, 200));
    }
    // Simulate a killed writer: a second record file with one good
    // line, one truncated line, and one line of garbage.
    {
        std::ofstream os(fs::path(dir) / "records-9999-0.jsonl");
        os << "{\"store_schema\":1,\"kind\":\"run\",\"kernel\":"
              "\"x\",\"record\":{\"cycles\":5}}\n";
        os << "{\"store_schema\":1,\"kind\":\"run\",\"record\":{"
              "\"cyc\n";
        os << "!!not json!!\n";
    }

    StoreReader reader = StoreReader::load(dir);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.records().size(), 3u);
    std::size_t skipped = 0;
    std::size_t unmanifested = 0;
    for (const std::string &warning : reader.warnings()) {
        if (warning.find("skipped (") != std::string::npos)
            ++skipped;
        if (warning.find("not registered") != std::string::npos)
            ++unmanifested;
    }
    // The truncated line and the garbage line are skipped; the good
    // line on the same file still loads.
    EXPECT_EQ(skipped, 2u);
    // The handmade record file was never registered by a writer —
    // the reader flags it as a partial flush but loads it anyway.
    EXPECT_EQ(unmanifested, 1u);
}

TEST_F(StoreTest, ManifestRegistersRecordFiles)
{
    {
        auto store = ResultStore::open(dir);
        ASSERT_NE(store, nullptr);
        store->append(makeRecord("gemm", 0, 100));
        ASSERT_TRUE(store->flush());
    }
    std::ifstream is(fs::path(dir) / ResultStore::manifestName());
    ASSERT_TRUE(is.good());
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"store_schema\""), std::string::npos);
    EXPECT_NE(text.find("\"record_file\""), std::string::npos);
    EXPECT_NE(text.find("records-"), std::string::npos);

    StoreReader reader = StoreReader::load(dir);
    ASSERT_TRUE(reader.ok());
    EXPECT_TRUE(reader.warnings().empty());
    EXPECT_EQ(reader.records().size(), 1u);
}

TEST_F(StoreTest, TruncatedManifestLineIsRecovered)
{
    {
        auto store = ResultStore::open(dir);
        ASSERT_NE(store, nullptr);
        store->append(makeRecord("gemm", 0, 100));
        ASSERT_TRUE(store->flush());
    }
    // A writer killed mid-registration leaves a truncated manifest
    // line; the reader must warn and keep every readable record.
    {
        std::ofstream os(fs::path(dir) / ResultStore::manifestName(),
                         std::ios::app);
        os << "{\"record_file\":\"records-truncat";
    }
    StoreReader reader = StoreReader::load(dir);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.records().size(), 1u);
    bool manifest_warning = false;
    for (const std::string &warning : reader.warnings())
        if (warning.find("manifest line") != std::string::npos)
            manifest_warning = true;
    EXPECT_TRUE(manifest_warning);
}

TEST_F(StoreTest, MissingManifestWarnsButLoads)
{
    {
        auto store = ResultStore::open(dir);
        ASSERT_NE(store, nullptr);
        store->append(makeRecord("gemm", 0, 100));
        ASSERT_TRUE(store->flush());
    }
    fs::remove(fs::path(dir) / ResultStore::manifestName());

    StoreReader reader = StoreReader::load(dir);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.records().size(), 1u);
    bool missing_warning = false;
    for (const std::string &warning : reader.warnings())
        if (warning.find("missing or unreadable") !=
            std::string::npos)
            missing_warning = true;
    EXPECT_TRUE(missing_warning);
}

TEST_F(StoreTest, ManifestListingMissingFileWarns)
{
    {
        auto store = ResultStore::open(dir);
        ASSERT_NE(store, nullptr);
        store->append(makeRecord("gemm", 0, 100));
        ASSERT_TRUE(store->flush());
    }
    // A registered record file that is gone from disk: data was lost
    // (partial flush, hand-pruned store) — the reader says so
    // instead of silently shrinking the result set.
    {
        std::ofstream os(fs::path(dir) / ResultStore::manifestName(),
                         std::ios::app);
        os << "{\"record_file\":\"records-31337-0.jsonl\"}\n";
    }
    StoreReader reader = StoreReader::load(dir);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.records().size(), 1u);
    bool missing_file_warning = false;
    for (const std::string &warning : reader.warnings())
        if (warning.find("records-31337-0.jsonl") !=
                std::string::npos &&
            warning.find("missing") != std::string::npos)
            missing_file_warning = true;
    EXPECT_TRUE(missing_file_warning);
}

TEST(StoreReaderTest, MissingStoreFailsGracefully)
{
    StoreReader reader =
        StoreReader::load("/nonexistent/salam/store/path");
    EXPECT_FALSE(reader.ok());
    EXPECT_FALSE(reader.error().empty());
    EXPECT_TRUE(reader.records().empty());
}

TEST(ParseConfigHashTest, Formats)
{
    EXPECT_EQ(parseConfigHash("0x10"), 0x10u);
    EXPECT_EQ(parseConfigHash("16"), 16u);
    EXPECT_EQ(parseConfigHash("0xef37eb005e1fb7e8"),
              0xef37eb005e1fb7e8ull);
    EXPECT_EQ(parseConfigHash(""), 0u);
    EXPECT_EQ(parseConfigHash("junk"), 0u);
    EXPECT_EQ(parseConfigHash("0x10zz"), 0u);
    // The formatter writes what the parser reads back.
    EXPECT_EQ(formatConfigHash(0x10), "0x0000000000000010");
    EXPECT_EQ(parseConfigHash(formatConfigHash(0xef37eb005e1fb7e8ull)),
              0xef37eb005e1fb7e8ull);
}
