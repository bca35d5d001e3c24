// Stream goldens: what a streamed run loads and what it leaves on disk,
// pinned bit for bit. The equivalence suites compare the streamed result
// with the one-shot run as a multiset; these goldens pin the exact
// order of every target's rows, rows_out, and the bytes of every
// ETLSTRM1 checkpoint file, so a change to how the stream computes its
// output that moves one row, one count or one checkpoint byte shows up
// as a golden diff.
//
// Per case, three kinds of line:
//  * "result": one FNV-64 digest of the completed run's targets (name
//    and rows, record_io encoding, in emitted order) and rows_out;
//  * "crash <b>": the digest of the ETLSTRM1 file left after a crash at
//    hit b of stream.source_next (batches 0..b-1 committed, a
//    checkpoint after every batch), for every batch boundary b;
//  * "final": the digest of the ETLSTRM1 file a completed run leaves.
//
// On a mismatch the failure message prints the actual line, in the
// format of the table at the bottom of this file.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "activity/templates.h"
#include "common/string_util.h"
#include "contract/contract.h"
#include "engine/executor.h"
#include "fault/fault_injector.h"
#include "stream/stream_executor.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

namespace fs = std::filesystem;

extern const char kGoldens[];

struct Case {
  std::string name;
  Workflow workflow;
  ExecutionInput input;
  StreamOptions options;
};

// "<digest> <bytes>" of the one checkpoint file in `dir`, or "none".
std::string CheckpointDigest(const std::string& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    files.push_back(e.path());
  }
  if (files.empty()) return "none";
  EXPECT_EQ(files.size(), 1u) << dir;
  std::ifstream in(files[0], std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 " %zu", Fnv1a64(bytes),
                bytes.size());
  return buf;
}

// The golden lines of one case, computed.
std::vector<std::string> Lines(const Case& c) {
  std::vector<std::string> lines;
  StreamOptions options = c.options;
  options.checkpoint_every_batches = 1;
  options.remove_checkpoints_on_success = false;

  // The completed run: its result and the file it leaves.
  const std::string dir = ScratchDir("strgold_" + c.name);
  options.checkpoint_dir = dir;
  StreamStats stats;
  auto run = StreamExecutor(options).Run(c.workflow, c.input, &stats);
  EXPECT_TRUE(run.ok()) << c.name << ": " << run.status().ToString();
  if (!run.ok()) return lines;
  size_t rows_out = 0;
  for (const auto& [node, count] : run->rows_out) rows_out += count;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s result %016" PRIx64 " %zu",
                c.name.c_str(), RunDigest(*run), rows_out);
  lines.push_back(buf);
  const std::string final_digest = CheckpointDigest(dir);
  fs::remove_all(dir);

  // A crash at every batch boundary.
  for (size_t b = 1; b < stats.batches_run; ++b) {
    FaultSchedule schedule;
    FaultSpec spec;
    spec.site = FaultSite::kStreamSourceNext;
    spec.hit = b;
    spec.kind = FaultKind::kCrash;
    schedule.faults.push_back(spec);
    {
      ScopedFaultInjection arm(schedule);
      auto crashed = StreamExecutor(options).Run(c.workflow, c.input);
      EXPECT_TRUE(!crashed.ok() && IsInjectedCrash(crashed.status()))
          << c.name << " crash " << b << ": " << crashed.status().ToString();
    }
    lines.push_back(c.name + " crash " + std::to_string(b) + " " +
                    CheckpointDigest(dir));
    fs::remove_all(dir);
  }
  lines.push_back(c.name + " final " + final_digest);
  return lines;
}

// The golden lines starting with "<name> ".
std::vector<std::string> Expected(const std::string& name) {
  std::vector<std::string> out;
  std::istringstream in(kGoldens);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(name + " ", 0) == 0) out.push_back(line);
  }
  return out;
}

void CheckCase(const Case& c) {
  const std::vector<std::string> got = Lines(c);
  const std::vector<std::string> expected = Expected(c.name);
  EXPECT_EQ(got.size(), expected.size()) << c.name;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], i < expected.size() ? expected[i] : "(missing)");
  }
}

// The medium workflow and event-time replay of the durable_feed
// benchmark workload (shape seed 4242, 125 ms windows), at 150 rows per
// source.
TEST(StreamGoldenTest, DurableFeedShape) {
  GeneratorOptions generator;
  generator.category = WorkloadCategory::kMedium;
  generator.seed = 4242;
  generator.with_event_time = true;
  auto g = GenerateWorkflow(generator);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  Case c;
  c.name = "durable_feed";
  c.workflow = std::move(g->workflow);
  InputGenOptions igen;
  igen.rows_per_source = 150;
  igen.key_domain = 5000;
  c.input = GenerateInputFor(c.workflow, 1, igen);
  c.options.event_time_column = kEventTimeAttr;
  c.options.window_millis = 125;
  CheckCase(c);
}

// Generated medium workflows as the equivalence property suite builds
// them (input seed = seed * 31 + 4, 200 rows per source): both end in an
// aggregation followed by row-wise filters.
TEST(StreamGoldenTest, GeneratedMedium) {
  for (uint64_t seed : {17u, 19u}) {
    GeneratorOptions generator;
    generator.category = WorkloadCategory::kMedium;
    generator.seed = seed;
    auto g = GenerateWorkflow(generator);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    Case c;
    c.name = "medium_" + std::to_string(seed);
    c.workflow = std::move(g->workflow);
    c.input = GenerateInputFor(c.workflow, seed * 31 + 4, 200);
    c.options.num_batches = 7;
    CheckCase(c);
  }
}

// The workflow of StreamExecutorTest.AggregationRefreshMatchesBatch: one
// aggregation with every aggregate function straight into the target.
TEST(StreamGoldenTest, AggregationRefresh) {
  Workflow w;
  Schema schema = Schema::MakeOrDie(
      {{"G", DataType::kInt64}, {"V", DataType::kDouble}});
  NodeId src = w.AddRecordSet({"S", schema, 40.0});
  auto agg = MakeAggregation("agg", {"G"},
                             {{AggFn::kSum, "V", "SUM_V"},
                              {AggFn::kCount, "V", "CNT_V"},
                              {AggFn::kAvg, "V", "AVG_V"},
                              {AggFn::kMin, "V", "MIN_V"},
                              {AggFn::kMax, "V", "MAX_V"}},
                             0.2);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  auto act = w.AddActivity(*agg, {src});
  ASSERT_TRUE(act.ok());
  Schema out = Schema::MakeOrDie({{"G", DataType::kInt64},
                                  {"SUM_V", DataType::kDouble},
                                  {"CNT_V", DataType::kInt64},
                                  {"AVG_V", DataType::kDouble},
                                  {"MIN_V", DataType::kDouble},
                                  {"MAX_V", DataType::kDouble}});
  NodeId t = w.AddRecordSet({"T", out, 8.0});
  ASSERT_TRUE(w.Connect(*act, t).ok());
  ASSERT_TRUE(w.Finalize().ok());

  ExecutionInput input;
  for (int64_t i = 0; i < 40; ++i) {
    Record r;
    r.Append(Value::Int(i % 8));
    r.Append(i % 11 == 0 ? Value::Null() : Value::Double(0.1 * i - 1.5));
    input.source_data["S"].push_back(std::move(r));
  }
  for (int64_t n : {3, 40}) {
    Case c;
    c.name = "agg_refresh_" + std::to_string(n);
    c.workflow = w;
    c.input = input;
    c.options.num_batches = n;
    CheckCase(c);
  }
}

// <case> result <digest> <sum of rows_out>
// <case> crash <batch> <checkpoint digest> <bytes> | none
// <case> final <checkpoint digest> <bytes>
const char kGoldens[] = R"(
durable_feed result c691113c6d48c437 2368
durable_feed crash 1 a8d0713b4d365547 1612
durable_feed crash 2 4ee9081ca9078dbc 2033
durable_feed crash 3 1c17d86bb5bf7cd2 2788
durable_feed crash 4 44fee43e7c24dc3a 3751
durable_feed crash 5 b23067f60793b291 4714
durable_feed crash 6 037574ce32831652 5406
durable_feed crash 7 90a953ec9ecc4646 5948
durable_feed crash 8 bf62879f99f9056f 7003
durable_feed crash 9 b81c0ef7ea8f73d3 7712
durable_feed crash 10 fddbe3d2a0527701 8375
durable_feed crash 11 b27f45d3e3da88b8 9188
durable_feed crash 12 09eef5a1e5a7b7ec 9413
durable_feed final 83173a7f2c923389 9655
medium_17 result c7c638f151a2ea15 2468
medium_17 crash 1 104c28eab3b5d37c 1048
medium_17 crash 2 65debffac263ab21 1510
medium_17 crash 3 900aa7b833d9ea73 1642
medium_17 crash 4 6e12e35334e99704 1972
medium_17 crash 5 4608e2c8ef71415f 2236
medium_17 crash 6 12c88b85fb9ca5a4 2698
medium_17 final 04ce6837bb390129 2896
medium_19 result 5c131205e19b420d 5102
medium_19 crash 1 99bfa96cbd269982 2970
medium_19 crash 2 3ec7dcb548724a10 5874
medium_19 crash 3 8495567589c95c4d 8778
medium_19 crash 4 bb9aa3765be4353c 10956
medium_19 crash 5 5da1f13fd5d359d4 13255
medium_19 crash 6 77641fcddf7ca7a4 15796
medium_19 final b96ea4544108b05e 17853
agg_refresh_3 result bd48e4dc2a8f94f0 8
agg_refresh_3 crash 1 03f28a5f55288bca 2076
agg_refresh_3 crash 2 bbca4d6408eb74e9 2076
agg_refresh_3 final 8fa4b1ca66be05b9 2076
agg_refresh_40 result bd48e4dc2a8f94f0 8
agg_refresh_40 crash 1 62f59067e7e57aa7 249
agg_refresh_40 crash 2 a48fce0bb61300ee 494
agg_refresh_40 crash 3 59f17d61fc38520c 739
agg_refresh_40 crash 4 a08b44bab09a95a0 984
agg_refresh_40 crash 5 227bf3d2712ae9bc 1229
agg_refresh_40 crash 6 ccf8146935cbd2f6 1474
agg_refresh_40 crash 7 9e7277f66ae99bd0 1719
agg_refresh_40 crash 8 4d1a7ed9f989d506 1964
agg_refresh_40 crash 9 57381ea11c2d2470 2076
agg_refresh_40 crash 10 79c01e38dd4f87bc 2076
agg_refresh_40 crash 11 61692670a46585ae 2076
agg_refresh_40 crash 12 f1b2e29eb1a28be8 2076
agg_refresh_40 crash 13 53020b724d4bb6c2 2076
agg_refresh_40 crash 14 7c00c7a80d1fd578 2076
agg_refresh_40 crash 15 c5efb2a7ac42f31c 2076
agg_refresh_40 crash 16 fa7454702f6627af 2076
agg_refresh_40 crash 17 e128072b0d5b64e0 2076
agg_refresh_40 crash 18 082db0f8326fc238 2076
agg_refresh_40 crash 19 677a482afc55a018 2076
agg_refresh_40 crash 20 fbefefaf58dfcd9c 2076
agg_refresh_40 crash 21 e737a9920623d2b5 2076
agg_refresh_40 crash 22 62284f70c19d0f92 2076
agg_refresh_40 crash 23 fbbca831dc96bb33 2076
agg_refresh_40 crash 24 9e5f171ecec416e2 2076
agg_refresh_40 crash 25 e800422286968c10 2076
agg_refresh_40 crash 26 b27b0f7a9ae46883 2076
agg_refresh_40 crash 27 b592cfd91624e534 2076
agg_refresh_40 crash 28 7e423a0a30a6eefd 2076
agg_refresh_40 crash 29 d51b1c41c13fb772 2076
agg_refresh_40 crash 30 de7a677edb359cfe 2076
agg_refresh_40 crash 31 397c1b8b3de60e42 2076
agg_refresh_40 crash 32 14ae7e25f4b6757e 2076
agg_refresh_40 crash 33 3aef308b3f74f17d 2076
agg_refresh_40 crash 34 7d2a7e1185ebc33b 2076
agg_refresh_40 crash 35 eb8df1d0e59fae09 2076
agg_refresh_40 crash 36 c8dbd1ae08304b39 2076
agg_refresh_40 crash 37 3b04d2d669905b20 2076
agg_refresh_40 crash 38 65edf4900bd34a80 2076
agg_refresh_40 crash 39 02238db4863260dc 2076
agg_refresh_40 final 8308521a1edd04f9 2076
)";

}  // namespace
}  // namespace etlopt
