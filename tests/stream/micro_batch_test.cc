// MicroBatchSource: row slicing, event-time windows, the capture
// fingerprint, cursor/seek semantics, pacing, and the stream.source_next
// fault site (ISSUE 6 tentpole).

#include "stream/micro_batch.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "activity/templates.h"
#include "fault/fault_injector.h"
#include "graph/workflow.h"
#include "records/recordset.h"

namespace etlopt {
namespace {

// S(K, ETS) -> NotNull(K) -> T: the smallest streamable workflow.
Workflow MakeTinyWorkflow() {
  Workflow w;
  Schema schema = Schema::MakeOrDie(
      {{"K", DataType::kInt64}, {"ETS", DataType::kInt64}});
  NodeId src = w.AddRecordSet({"S", schema, 10.0});
  auto not_null = MakeNotNull("nn", "K", 1.0);
  EXPECT_TRUE(not_null.ok());
  auto act = w.AddActivity(*not_null, {src});
  EXPECT_TRUE(act.ok());
  NodeId dst = w.AddRecordSet({"T", schema, 10.0});
  EXPECT_TRUE(w.Connect(*act, dst).ok());
  EXPECT_TRUE(w.Finalize().ok());
  return w;
}

Record Row(int64_t k, int64_t ts) {
  Record r;
  r.Append(Value::Int(k));
  r.Append(Value::Int(ts));
  return r;
}

ExecutionInput MakeCapture(size_t rows) {
  ExecutionInput input;
  std::vector<Record>& data = input.source_data["S"];
  for (size_t i = 0; i < rows; ++i) {
    data.push_back(Row(static_cast<int64_t>(i), static_cast<int64_t>(i) * 7));
  }
  return input;
}

std::vector<Record> Drain(MicroBatchSource& source) {
  std::vector<Record> all;
  while (!source.Exhausted()) {
    auto batch = source.Next();
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    const auto& rows = batch->source_rows.at("S");
    all.insert(all.end(), rows.begin(), rows.end());
  }
  return all;
}

TEST(MicroBatchTest, RowSlicesConcatenateToCapture) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput input = MakeCapture(10);
  StreamOptions options;
  options.num_batches = 4;
  auto source = MicroBatchSource::Make(w, input, options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source->batch_count(), 4u);
  std::vector<Record> all = Drain(*source);
  EXPECT_EQ(all, input.source_data.at("S"));
}

TEST(MicroBatchTest, MoreBatchesThanRowsYieldsEmptySlices) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput input = MakeCapture(3);
  StreamOptions options;
  options.num_batches = 8;
  auto source = MicroBatchSource::Make(w, input, options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source->batch_count(), 8u);
  std::vector<Record> all = Drain(*source);
  EXPECT_EQ(all, input.source_data.at("S"));
}

TEST(MicroBatchTest, BatchRowsOverridesNumBatches) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput input = MakeCapture(10);
  StreamOptions options;
  options.num_batches = 2;
  options.batch_rows = 3;
  auto source = MicroBatchSource::Make(w, input, options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source->batch_count(), 4u);  // ceil(10 / 3)
  while (!source->Exhausted()) {
    auto batch = source->Next();
    ASSERT_TRUE(batch.ok());
    EXPECT_LE(batch->source_rows.at("S").size(), 3u);
  }
}

TEST(MicroBatchTest, MissingSourceDataRejected) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput empty;
  auto source = MicroBatchSource::Make(w, empty, StreamOptions{});
  EXPECT_TRUE(source.status().IsNotFound()) << source.status().ToString();
}

TEST(MicroBatchTest, ArityMismatchRejected) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput input;
  Record bad;
  bad.Append(Value::Int(1));  // schema arity is 2
  input.source_data["S"].push_back(bad);
  auto source = MicroBatchSource::Make(w, input, StreamOptions{});
  EXPECT_TRUE(source.status().IsInvalidArgument())
      << source.status().ToString();
}

TEST(MicroBatchTest, EventWindowsPartitionByTimestamp) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput input;
  auto& data = input.source_data["S"];
  data.push_back(Row(0, 0));
  data.push_back(Row(1, 5));
  data.push_back(Row(2, 12));
  data.push_back(Row(3, 27));
  data.push_back(Row(4, 3));
  StreamOptions options;
  options.event_time_column = "ETS";
  options.window_millis = 10;
  auto source = MicroBatchSource::Make(w, input, options);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_EQ(source->batch_count(), 3u);  // span 0..27, 10ms windows

  auto b0 = source->Next();
  ASSERT_TRUE(b0.ok());
  // Window [0, 10): rows 0, 5, 3 — capture order (stable partition).
  ASSERT_EQ(b0->source_rows.at("S").size(), 3u);
  EXPECT_EQ(b0->source_rows.at("S")[0], data[0]);
  EXPECT_EQ(b0->source_rows.at("S")[1], data[1]);
  EXPECT_EQ(b0->source_rows.at("S")[2], data[4]);
  EXPECT_EQ(b0->min_event_time, 0);
  EXPECT_EQ(b0->max_event_time, 5);

  auto b1 = source->Next();
  ASSERT_TRUE(b1.ok());
  ASSERT_EQ(b1->source_rows.at("S").size(), 1u);
  EXPECT_EQ(b1->source_rows.at("S")[0], data[2]);

  auto b2 = source->Next();
  ASSERT_TRUE(b2.ok());
  ASSERT_EQ(b2->source_rows.at("S").size(), 1u);
  EXPECT_EQ(b2->source_rows.at("S")[0], data[3]);
  EXPECT_EQ(b2->min_event_time, 27);
  EXPECT_EQ(b2->max_event_time, 27);
}

TEST(MicroBatchTest, EventModeValidatesTimestampColumn) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput input = MakeCapture(4);
  StreamOptions options;
  options.event_time_column = "NO_SUCH";
  auto missing = MicroBatchSource::Make(w, input, options);
  EXPECT_TRUE(missing.status().IsInvalidArgument())
      << missing.status().ToString();

  options.event_time_column = "ETS";
  ExecutionInput with_null = MakeCapture(4);
  Record null_ts;
  null_ts.Append(Value::Int(9));
  null_ts.Append(Value::Null());
  with_null.source_data["S"].push_back(null_ts);
  auto nulled = MicroBatchSource::Make(w, with_null, options);
  EXPECT_TRUE(nulled.status().IsInvalidArgument())
      << nulled.status().ToString();
}

TEST(MicroBatchTest, FingerprintDistinguishesBatchingAndData) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput input = MakeCapture(12);
  StreamOptions options;
  options.num_batches = 4;
  auto a = MicroBatchSource::Make(w, input, options);
  auto b = MicroBatchSource::Make(w, input, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->CaptureFingerprint(), b->CaptureFingerprint());

  StreamOptions other_batching = options;
  other_batching.num_batches = 7;
  auto c = MicroBatchSource::Make(w, input, other_batching);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->CaptureFingerprint(), c->CaptureFingerprint());

  ExecutionInput other_data = MakeCapture(12);
  other_data.source_data["S"][0] = Row(999, 0);
  auto d = MicroBatchSource::Make(w, other_data, options);
  ASSERT_TRUE(d.ok());
  EXPECT_NE(a->CaptureFingerprint(), d->CaptureFingerprint());
}

TEST(MicroBatchTest, FingerprintOfMatchesMakeWithoutSlicing) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput input = MakeCapture(12);
  StreamOptions by_count;
  by_count.num_batches = 4;
  StreamOptions by_rows;
  by_rows.batch_rows = 5;
  StreamOptions by_time;
  by_time.event_time_column = "ETS";
  by_time.window_millis = 10;
  for (const StreamOptions& options : {by_count, by_rows, by_time}) {
    auto source = MicroBatchSource::Make(w, input, options);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    auto fingerprint = MicroBatchSource::FingerprintOf(w, input, options);
    ASSERT_TRUE(fingerprint.ok()) << fingerprint.status().ToString();
    EXPECT_EQ(*fingerprint, source->CaptureFingerprint());
  }

  // Every invalid capture fails with Make's exact Status.
  ExecutionInput unbound;
  ExecutionInput narrow = MakeCapture(3);
  narrow.source_data["S"][1] = Record({Value::Int(1)});
  ExecutionInput null_ts = MakeCapture(3);
  null_ts.source_data["S"][2] = Record({Value::Int(2), Value::Null()});
  StreamOptions no_column = by_time;
  no_column.event_time_column = "NO_SUCH";
  StreamOptions no_batches;
  no_batches.num_batches = 0;
  const struct {
    const ExecutionInput& capture;
    const StreamOptions& options;
  } invalid[] = {{unbound, by_count},  {narrow, by_count},
                 {null_ts, by_time},   {input, no_column},
                 {input, no_batches}};
  for (const auto& c : invalid) {
    auto source = MicroBatchSource::Make(w, c.capture, c.options);
    auto fingerprint = MicroBatchSource::FingerprintOf(w, c.capture, c.options);
    ASSERT_FALSE(source.ok());
    EXPECT_EQ(fingerprint.status(), source.status())
        << fingerprint.status().ToString();
  }
}

TEST(MicroBatchTest, NextExhaustsAndSeekRewinds) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput input = MakeCapture(6);
  StreamOptions options;
  options.num_batches = 3;
  auto source = MicroBatchSource::Make(w, input, options);
  ASSERT_TRUE(source.ok());
  auto first = source->Next();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->index, 0u);
  Drain(*source);
  EXPECT_TRUE(source->Exhausted());
  EXPECT_TRUE(source->Next().status().IsOutOfRange());

  ASSERT_TRUE(source->Seek(1).ok());
  auto again = source->Next();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->index, 1u);
  EXPECT_TRUE(source->Seek(99).IsInvalidArgument());
}

TEST(MicroBatchTest, SourceNextCrossesItsFaultSite) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput input = MakeCapture(6);
  StreamOptions options;
  options.num_batches = 3;
  auto source = MicroBatchSource::Make(w, input, options);
  ASSERT_TRUE(source.ok());
  {
    FaultSchedule schedule;
    FaultSpec spec;
    spec.site = FaultSite::kStreamSourceNext;
    spec.hit = 1;
    spec.kind = FaultKind::kError;
    schedule.faults.push_back(spec);
    ScopedFaultInjection arm(schedule);
    EXPECT_TRUE(source->Next().ok());  // hit 0
    auto failed = source->Next();      // hit 1 fires
    EXPECT_TRUE(failed.status().IsUnavailable())
        << failed.status().ToString();
  }
  // Disarmed: the failed batch can be re-fetched.
  ASSERT_TRUE(source->Seek(1).ok());
  EXPECT_TRUE(source->Next().ok());
}

TEST(MicroBatchTest, PacedReplayHonorsRateMultiplier) {
  Workflow w = MakeTinyWorkflow();
  ExecutionInput input;
  input.source_data["S"].push_back(Row(0, 0));
  input.source_data["S"].push_back(Row(1, 40));
  StreamOptions options;
  options.event_time_column = "ETS";
  options.window_millis = 10;
  options.paced = true;
  options.rate_multiplier = 4.0;  // 40ms of event time in ~10ms wall
  auto source = MicroBatchSource::Make(w, input, options);
  ASSERT_TRUE(source.ok());
  ASSERT_EQ(source->batch_count(), 5u);
  ASSERT_TRUE(source->Seek(0).ok());  // re-anchor the replay clock
  const auto start = std::chrono::steady_clock::now();
  Drain(*source);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // The last batch's event time is 40ms past the anchor; at 4x replay it
  // is due no earlier than 10ms in. (Lower bound only: sleeps can always
  // overshoot.)
  EXPECT_GE(elapsed.count(), 9);
}

TEST(MicroBatchTest, CaptureFromRecordSetsBindsScansByName) {
  Schema schema = Schema::MakeOrDie(
      {{"K", DataType::kInt64}, {"ETS", DataType::kInt64}});
  MemoryTable table("S", schema);
  ASSERT_TRUE(table.Append(Row(1, 10)).ok());
  ASSERT_TRUE(table.Append(Row(2, 20)).ok());
  auto capture = CaptureFromRecordSets({&table});
  ASSERT_TRUE(capture.ok()) << capture.status().ToString();
  ASSERT_EQ(capture->source_data.at("S").size(), 2u);
  EXPECT_EQ(capture->source_data.at("S")[0], Row(1, 10));

  MemoryTable dup("S", schema);
  EXPECT_TRUE(CaptureFromRecordSets({&table, &dup})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      CaptureFromRecordSets({nullptr}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace etlopt
