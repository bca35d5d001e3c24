#include "stream/micro_batch.h"

#include <algorithm>
#include <thread>

#include "common/macros.h"
#include "common/string_util.h"
#include "engine/node_driver.h"
#include "engine/recovery.h"
#include "fault/fault_injector.h"
#include "records/record_io.h"

namespace etlopt {

namespace {

// Contiguous near-equal row slices: slice i of R rows is
// [floor(i*R/B), floor((i+1)*R/B)), so the slices concatenate back to
// the original rows exactly and differ in size by at most one row.
std::vector<std::vector<Record>> SliceRows(const std::vector<Record>& rows,
                                           size_t num_batches) {
  std::vector<std::vector<Record>> slices(num_batches);
  const size_t n = rows.size();
  for (size_t i = 0; i < num_batches; ++i) {
    const size_t lo = i * n / num_batches;
    const size_t hi = (i + 1) * n / num_batches;
    slices[i].assign(rows.begin() + static_cast<ptrdiff_t>(lo),
                     rows.begin() + static_cast<ptrdiff_t>(hi));
  }
  return slices;
}

// One source recordset's capture, bound and validated.
struct BoundSource {
  std::string name;
  const std::vector<Record>* rows = nullptr;
  size_t ts_index = 0;  // event mode only
};

// The capture checked against the workflow and cut into batches on
// paper: the bound sources, the batch count and (event mode) the
// stream's first timestamp. No row is copied.
struct CaptureLayout {
  std::vector<BoundSource> sources;
  size_t batch_count = 0;
  int64_t min_ts = 0;
};

// Validates options, binds and validates every source recordset's
// capture exactly as ExecuteWorkflow would, and derives the batch count.
StatusOr<CaptureLayout> LayOut(const Workflow& workflow,
                               const ExecutionInput& capture,
                               const StreamOptions& options) {
  ETLOPT_RETURN_NOT_OK(ValidateStreamOptions(options));
  ETLOPT_RETURN_NOT_OK(RequireFresh(workflow));
  const bool event_mode = !options.event_time_column.empty();
  CaptureLayout layout;
  size_t max_rows = 0;
  for (NodeId id : workflow.SourceRecordSets()) {
    const RecordSetDef& def = workflow.recordset(id);
    auto it = capture.source_data.find(def.name);
    if (it == capture.source_data.end()) {
      return Status::NotFound("no data bound for source recordset '" +
                              def.name + "'");
    }
    for (const auto& r : it->second) {
      if (r.size() != def.schema.size()) {
        return Status::InvalidArgument(
            StrFormat("source '%s': record arity %zu != schema arity %zu",
                      def.name.c_str(), r.size(), def.schema.size()));
      }
    }
    BoundSource b;
    b.name = def.name;
    b.rows = &it->second;
    if (event_mode) {
      auto idx = def.schema.IndexOf(options.event_time_column);
      if (!idx.has_value()) {
        return Status::InvalidArgument(StrFormat(
            "source '%s' lacks event-time attribute '%s'", def.name.c_str(),
            options.event_time_column.c_str()));
      }
      if (def.schema.attribute(*idx).type != DataType::kInt64) {
        return Status::InvalidArgument(StrFormat(
            "source '%s': event-time attribute '%s' must be int64",
            def.name.c_str(), options.event_time_column.c_str()));
      }
      b.ts_index = *idx;
      for (const auto& r : it->second) {
        if (r.value(b.ts_index).is_null()) {
          return Status::InvalidArgument(StrFormat(
              "source '%s': null event timestamp", def.name.c_str()));
        }
      }
    }
    max_rows = std::max(max_rows, it->second.size());
    layout.sources.push_back(std::move(b));
  }

  if (event_mode) {
    // Global time span across all sources.
    int64_t min_ts = 0, max_ts = 0;
    bool any = false;
    for (const BoundSource& b : layout.sources) {
      for (const auto& r : *b.rows) {
        int64_t ts = r.value(b.ts_index).int_value();
        if (!any || ts < min_ts) min_ts = ts;
        if (!any || ts > max_ts) max_ts = ts;
        any = true;
      }
    }
    layout.min_ts = min_ts;
    const uint64_t span = any ? static_cast<uint64_t>(max_ts - min_ts) : 0;
    layout.batch_count = static_cast<size_t>(
        any ? span / static_cast<uint64_t>(options.window_millis) + 1 : 1);
  } else {
    layout.batch_count = static_cast<size_t>(options.num_batches);
    if (options.batch_rows > 0) {
      layout.batch_count = std::max<size_t>(
          1, (max_rows + static_cast<size_t>(options.batch_rows) - 1) /
                 static_cast<size_t>(options.batch_rows));
    }
  }
  return layout;
}

// Capture contents x batching knobs. A different slicing of the same
// capture must not resume from the other's checkpoint.
uint64_t Fingerprint(const ExecutionInput& capture, size_t batch_count,
                     const StreamOptions& options) {
  uint64_t h = ExecutionInputFingerprint(capture);
  std::string buf;
  PutU64(buf, static_cast<uint64_t>(batch_count));
  PutU32(buf, static_cast<uint32_t>(options.event_time_column.size()));
  buf += options.event_time_column;
  PutU64(buf, static_cast<uint64_t>(options.window_millis));
  PutU64(buf, static_cast<uint64_t>(options.num_batches));
  PutU64(buf, static_cast<uint64_t>(options.batch_rows));
  return Fnv1a64(buf, h);
}

}  // namespace

StatusOr<MicroBatchSource> MicroBatchSource::Make(
    const Workflow& workflow, const ExecutionInput& capture,
    const StreamOptions& options) {
  ETLOPT_ASSIGN_OR_RETURN(CaptureLayout layout,
                          LayOut(workflow, capture, options));
  MicroBatchSource source;
  source.options_ = options;
  source.context_ = capture.context;
  source.event_mode_ = !options.event_time_column.empty();
  source.batch_count_ = layout.batch_count;

  if (source.event_mode_) {
    source.stream_min_ts_ = layout.min_ts;
    source.batch_min_ts_.assign(source.batch_count_, 0);
    source.batch_max_ts_.assign(source.batch_count_, 0);
    std::vector<bool> seen(source.batch_count_, false);
    // Stable partition: window order across batches, capture order within.
    for (const BoundSource& b : layout.sources) {
      auto& slices = source.slices_[b.name];
      slices.assign(source.batch_count_, {});
      for (const auto& r : *b.rows) {
        int64_t ts = r.value(b.ts_index).int_value();
        size_t w = static_cast<size_t>(
            static_cast<uint64_t>(ts - layout.min_ts) /
            static_cast<uint64_t>(options.window_millis));
        slices[w].push_back(r);
        if (!seen[w] || ts < source.batch_min_ts_[w]) {
          source.batch_min_ts_[w] = ts;
        }
        if (!seen[w] || ts > source.batch_max_ts_[w]) {
          source.batch_max_ts_[w] = ts;
        }
        seen[w] = true;
      }
    }
  } else {
    for (const BoundSource& b : layout.sources) {
      source.slices_[b.name] = SliceRows(*b.rows, source.batch_count_);
    }
  }

  source.fingerprint_ = Fingerprint(capture, source.batch_count_, options);
  source.clock_anchor_ = std::chrono::steady_clock::now();
  source.anchor_batch_ = 0;
  return source;
}

StatusOr<uint64_t> MicroBatchSource::FingerprintOf(
    const Workflow& workflow, const ExecutionInput& capture,
    const StreamOptions& options) {
  ETLOPT_ASSIGN_OR_RETURN(CaptureLayout layout,
                          LayOut(workflow, capture, options));
  return Fingerprint(capture, layout.batch_count, options);
}

std::chrono::microseconds MicroBatchSource::DueOffset(size_t b) const {
  if (!event_mode_ || b >= batch_count_) return std::chrono::microseconds(0);
  // A batch is due when the replay clock reaches its last event.
  const double event_millis =
      static_cast<double>(batch_max_ts_[b] - stream_min_ts_);
  return std::chrono::microseconds(static_cast<int64_t>(
      event_millis * 1000.0 / options_.rate_multiplier));
}

Status MicroBatchSource::Seek(size_t batch) {
  if (batch > batch_count_) {
    return Status::InvalidArgument(
        StrFormat("stream: Seek(%zu) past batch count %zu", batch,
                  batch_count_));
  }
  cursor_ = batch;
  clock_anchor_ = std::chrono::steady_clock::now();
  anchor_batch_ = batch;
  return Status::OK();
}

StatusOr<MicroBatch> MicroBatchSource::Next() {
  if (Exhausted()) {
    return Status::OutOfRange(
        StrFormat("stream: source exhausted after %zu batches",
                  batch_count_));
  }
  ETLOPT_FAULT_HIT(FaultSite::kStreamSourceNext);
  const size_t b = cursor_;
  if (options_.paced && event_mode_) {
    // Sleep until this batch's due time relative to the anchor batch
    // (the cursor position of the last Seek, due immediately).
    const auto due = clock_anchor_ + (DueOffset(b) - DueOffset(anchor_batch_));
    std::this_thread::sleep_until(due);
  }
  MicroBatch batch;
  batch.index = b;
  for (const auto& [name, slices] : slices_) {
    batch.source_rows.emplace(name, slices[b]);
  }
  if (event_mode_) {
    batch.min_event_time = batch_min_ts_[b];
    batch.max_event_time = batch_max_ts_[b];
  }
  ++cursor_;
  return batch;
}

StatusOr<ExecutionInput> CaptureFromRecordSets(
    const std::vector<const RecordSet*>& recordsets,
    const ExecutionContext& lookups) {
  ExecutionInput capture;
  capture.context = lookups;
  for (const RecordSet* rs : recordsets) {
    if (rs == nullptr) {
      return Status::InvalidArgument("capture: null recordset");
    }
    ETLOPT_ASSIGN_OR_RETURN(std::vector<Record> rows, rs->ScanAll());
    if (!capture.source_data.emplace(rs->name(), std::move(rows)).second) {
      return Status::InvalidArgument("capture: duplicate recordset name '" +
                                     rs->name() + "'");
    }
  }
  return capture;
}

}  // namespace etlopt
