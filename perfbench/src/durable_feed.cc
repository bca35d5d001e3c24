// durable_feed: incremental and recoverable execution with checkpoint
// I/O. Round-robin, one thread: a StreamExecutor replays an event-time
// capture of a medium workflow as micro-batches with ETLSTRM1
// checkpoints at the plan's Young cadence; a RecoverableExecutor runs a
// large workflow under the placement a reliability-aware HS chose in
// setup, once fault-free and once with a single crash near mid-run
// followed by the resume. Same engine code as nightly_load, plus the
// per-batch and checkpoint costs.
//
// Workflow shapes are fixed (generator seeds below); the workload seed
// drives the source data, the event-time clocks and the crash position.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "cost/reliability_model.h"
#include "cost/state_cost.h"
#include "engine/executor.h"
#include "engine/recovery.h"
#include "fault/fault_injector.h"
#include "harness.h"
#include "optimizer/search.h"
#include "stream/stream_executor.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using namespace etlopt;
namespace fs = std::filesystem;

constexpr uint64_t kStreamShapeSeed = 4242;
constexpr uint64_t kLoadShapeSeed = 7;
constexpr size_t kRowsPerSource = 5000;
constexpr int64_t kKeyDomain = 5000;
constexpr int64_t kWindowMillis = 125;
constexpr size_t kSearchStates = 300;

struct Feed {
  Workflow stream_workflow;
  ExecutionInput capture;
  RecoveryPointPlan stream_plan;
  Workflow load_workflow;  // HS-optimized, reliability-aware
  ExecutionInput load_input;
  RecoveryPointPlan load_plan;
};

// Failure and checkpoint prices relative to the workflow's own model
// cost: about two failures per run, a checkpoint file at 2% of a run.
// On the fixed shapes the search places four sparse cuts (not
// checkpoint-everywhere) and the stream checkpoints every ~7 batches.
StatusOr<ReliabilityParams> ParamsFor(const Workflow& workflow,
                                      const CostModel& model) {
  StatusOr<CostBreakdown> bd = [&] {
    Span span("cost.breakdown");
    return ComputeCostBreakdown(workflow, model);
  }();
  if (!bd.ok()) return bd.status();
  ReliabilityParams params;
  params.failure_rate_per_cost = 2.0 / bd->total;
  params.checkpoint_setup_cost = 0.02 * bd->total;
  params.restore_setup_cost = 0.01 * bd->total;
  return params;
}

bool Setup(const Args& args, const std::string& dir, Raw& raw, Feed& feed) {
  LinearLogCostModel model;
  Clock::time_point t0 = Clock::now();
  GeneratorOptions stream_gen;
  stream_gen.category = WorkloadCategory::kMedium;
  stream_gen.seed = kStreamShapeSeed;
  stream_gen.with_event_time = true;
  GeneratorOptions load_gen;
  load_gen.category = WorkloadCategory::kLarge;
  load_gen.seed = kLoadShapeSeed;
  StatusOr<GeneratedWorkflow> stream_g = Status::Internal("not generated");
  StatusOr<GeneratedWorkflow> load_g = Status::Internal("not generated");
  {
    Span span("workload.gen");
    stream_g = GenerateWorkflow(stream_gen);
    load_g = GenerateWorkflow(load_gen);
    if (stream_g.ok() && load_g.ok()) {
      InputGenOptions igen;
      igen.rows_per_source = kRowsPerSource;
      igen.key_domain = kKeyDomain;
      feed.capture =
          GenerateInputFor(stream_g->workflow, Mix(args.seed, 1), igen);
      feed.load_input =
          GenerateInputFor(load_g->workflow, Mix(args.seed, 2), igen);
    }
  }
  raw.Sample("workload.gen_ms", MsSince(t0));
  if (!stream_g.ok() || !load_g.ok()) {
    raw.Fail("GenerateWorkflow failed");
    return false;
  }
  feed.stream_workflow = std::move(stream_g->workflow);

  StatusOr<ReliabilityParams> load_params = ParamsFor(load_g->workflow, model);
  StatusOr<ReliabilityParams> stream_params =
      ParamsFor(feed.stream_workflow, model);
  if (!load_params.ok() || !stream_params.ok()) {
    raw.Fail("cost breakdown failed");
    return false;
  }
  SearchOptions options;
  options.max_states = kSearchStates;
  options.max_millis = 600000;  // never binds: the state budget does
  options.reliability = &*load_params;
  t0 = Clock::now();
  StatusOr<SearchResult> searched = [&] {
    Span span("optimizer.search");
    return HeuristicSearch(load_g->workflow, model, options);
  }();
  raw.Sample("optimizer.search_ms", MsSince(t0));
  if (!searched.ok()) {
    raw.Fail("HeuristicSearch: " + searched.status().ToString());
    return false;
  }
  feed.load_workflow = std::move(searched->best.workflow);
  feed.load_plan = searched->recovery;

  StatusOr<CostBreakdown> bd = [&] {
    Span span("cost.breakdown");
    return ComputeCostBreakdown(feed.stream_workflow, model);
  }();
  if (!bd.ok()) {
    raw.Fail("ComputeCostBreakdown: " + bd.status().ToString());
    return false;
  }
  t0 = Clock::now();
  {
    Span span("cost.placement");
    feed.stream_plan =
        PlaceRecoveryPoints(feed.stream_workflow, *bd, *stream_params);
  }
  raw.Sample("cost.placement_ms", MsSince(t0));

  std::error_code ec;
  fs::remove_all(dir, ec);
  for (const char* sub : {"stream", "load", "probe"}) {
    fs::create_directories(fs::path(dir) / sub, ec);
    if (ec) {
      raw.Fail("cannot create checkpoint directory " + dir);
      return false;
    }
  }
  return true;
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t n = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec)) n += it->file_size(ec);
  }
  return n;
}

}  // namespace

int RunDurableFeed(const Args& args, Raw& raw) {
  const fs::path dir = fs::path(args.work_dir) / "durable_feed";
  Feed feed;
  // Setup repeats rebuild the feed in place, identically; the executors
  // hold copies of its plans and the references are kept apart.
  MeasuredLoop loop(args, raw, [&] {
    feed = Feed{};
    return Setup(args, dir.string(), raw, feed);
  });
  if (!loop.SetUp()) return 1;
  if (!feed.load_plan.enabled || feed.load_plan.labels.empty()) {
    raw.Fail("reliability-aware search placed no recovery points");
    return 1;
  }

  StreamOptions stream_options;
  stream_options.event_time_column = kEventTimeAttr;
  stream_options.window_millis = kWindowMillis;
  stream_options.checkpoint_dir = (dir / "stream").string();
  stream_options.recovery_plan = feed.stream_plan;
  stream_options.remove_checkpoints_on_success = false;
  StreamExecutor streamer(stream_options);

  RecoveryOptions load_options;
  load_options.checkpoint_dir = (dir / "load").string();
  load_options.checkpoint_policy = CheckpointPolicy::kRecoveryPlan;
  load_options.recovery_plan = feed.load_plan;
  RecoverableExecutor loader(load_options);

  // References: the one-shot batch run of the stream workflow, and the
  // plain serial run of the load workflow (fault-free result).
  StatusOr<ExecutionResult> batch_ref =
      ExecuteWorkflow(feed.stream_workflow, feed.capture);
  StatusOr<ExecutionResult> load_ref =
      ExecuteWorkflow(feed.load_workflow, feed.load_input);
  if (!batch_ref.ok() || !load_ref.ok()) {
    raw.Fail("reference run failed");
    return 1;
  }
  const SortedTargets batch_sorted = Sorted(*batch_ref);

  // Activity executions per fault-free run place the crash near mid-run;
  // the largest placed checkpoint feeds the codec probes.
  uint64_t activity_hits = 0;
  std::string largest_checkpoint;
  {
    RecoveryOptions probe_options = load_options;
    probe_options.checkpoint_dir = (dir / "probe").string();
    probe_options.remove_checkpoints_on_success = false;
    RecoverableExecutor probe(probe_options);
    FaultInjector::Global().Arm(FaultSchedule{});
    StatusOr<ExecutionResult> counted =
        probe.Execute(feed.load_workflow, feed.load_input);
    activity_hits = FaultInjector::Global()
                        .Stats()
                        .hits[static_cast<int>(FaultSite::kActivityExecute)];
    FaultInjector::Global().Disarm();
    if (!counted.ok() || !SameResult(*counted, *load_ref) ||
        activity_hits < 4) {
      raw.Fail("fault-free probe run failed");
      return 1;
    }
    std::error_code ec;
    uintmax_t best = 0;
    for (auto it = fs::recursive_directory_iterator(dir / "probe", ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec) || it->file_size(ec) <= best) continue;
      best = it->file_size(ec);
      std::ifstream in(it->path(), std::ios::binary);
      largest_checkpoint.assign(std::istreambuf_iterator<char>(in), {});
    }
    fs::remove_all(dir / "probe", ec);
  }
  const uint64_t crash_hit = activity_hits / 2 + Mix(args.seed, 3) % 3;
  FaultSchedule crash;
  crash.faults.push_back(
      FaultSpec{FaultSite::kActivityExecute, crash_hit, FaultKind::kCrash, 0});

  HostSampler host(raw);
  Tracer& tracer = Tracer::Global();
  size_t round = 0;
  const int kinds = args.trace ? 4 : 3;
  loop.Start();
  while (loop.Running()) {
    const bool traced = args.trace && round % 2 == 1;
    tracer.Enable(traced);
    const std::string suffix = traced ? "|traced" : "";
    for (int k = 0; k < kinds && loop.Running(); ++k) {
      const int kind = static_cast<int>((k + round) % kinds);
      host.Maybe();
      const uint64_t op = traced ? tracer.NewOp() : 0;
      Span::SetThreadOp(op);
      raw.Attempt();
      if (kind == 0) {
        (void)streamer.ClearCheckpoints(feed.stream_workflow, feed.capture);
        StreamStats stats;
        const Clock::time_point t0 = Clock::now();
        StatusOr<ExecutionResult> out = [&] {
          Span span("stream.run");
          return streamer.Run(feed.stream_workflow, feed.capture, &stats);
        }();
        const double ms = MsSince(t0);
        Span check("bench.check");
        if (!out.ok()) {
          raw.Fail("stream: " + out.status().ToString());
          continue;
        }
        if (Sorted(*out) != batch_sorted ||
            out->rows_out != batch_ref->rows_out) {
          raw.Fail("stream output differs from the one-shot batch run");
          continue;
        }
        raw.Sample("replay_ms" + suffix, ms);
        for (int64_t us : stats.batch_micros) {
          raw.Sample("batch_ms" + suffix, static_cast<double>(us) / 1000.0);
        }
        raw.Set("stream.checkpoints_written",
                static_cast<double>(stats.checkpoints_written));
        raw.Set("stream.checkpoint_bytes",
                static_cast<double>(DirBytes(dir / "stream")));
        raw.Set("stream.delta_nodes", static_cast<double>(stats.delta_nodes));
        raw.Set("stream.refresh_nodes",
                static_cast<double>(stats.refresh_nodes));
        raw.Set("stream.batches", static_cast<double>(stats.batches_run));
      } else if (kind == 1) {
        (void)loader.ClearCheckpoints(feed.load_workflow, feed.load_input);
        RecoveryStats stats;
        const Clock::time_point t0 = Clock::now();
        StatusOr<ExecutionResult> out = [&] {
          Span span("engine.recovery.run");
          return loader.Execute(feed.load_workflow, feed.load_input, &stats);
        }();
        const double ms = MsSince(t0);
        Span check("bench.check");
        if (!out.ok() || !SameResult(*out, *load_ref)) {
          raw.Fail("durable load: wrong result or error");
          continue;
        }
        raw.Sample("durable_load_ms" + suffix, ms);
        raw.Set("engine.recovery.checkpoint_rows_written",
                static_cast<double>(stats.checkpoint_rows_written));
        raw.Set("engine.recovery.nodes_executed",
                static_cast<double>(stats.nodes_executed));
      } else if (kind == 2) {
        (void)loader.ClearCheckpoints(feed.load_workflow, feed.load_input);
        StatusOr<ExecutionResult> crashed = [&] {
          ScopedFaultInjection arm(crash);
          Span span("engine.recovery.crashed");
          return loader.Execute(feed.load_workflow, feed.load_input);
        }();
        if (crashed.ok() || !IsInjectedCrash(crashed.status())) {
          raw.Fail("scheduled crash did not fire as a crash");
          continue;
        }
        RecoveryStats stats;
        const Clock::time_point t0 = Clock::now();
        StatusOr<ExecutionResult> out = [&] {
          Span span("engine.recovery.resume");
          return loader.Execute(feed.load_workflow, feed.load_input, &stats);
        }();
        const double ms = MsSince(t0);
        Span check("bench.check");
        if (!out.ok() || !SameResult(*out, *load_ref)) {
          raw.Fail("resume: result differs from the fault-free run");
          continue;
        }
        // A resume that skipped nothing recomputed the whole run: the
        // placed checkpoints were not used.
        if (stats.nodes_skipped == 0) {
          raw.Fail("resume skipped no node: checkpoints were not used");
          continue;
        }
        raw.Sample("resume_ms" + suffix, ms);
        raw.Set("engine.recovery.nodes_skipped",
                static_cast<double>(stats.nodes_skipped));
        raw.Set("engine.recovery.resume_nodes_executed",
                static_cast<double>(stats.nodes_executed));
      } else {
        // Traced runs only: the plain serial engine on the same plan, the
        // base of engine.recovery.overhead.
        const Clock::time_point t0 = Clock::now();
        StatusOr<ExecutionResult> out = [&] {
          Span span("engine.serial");
          return ExecuteWorkflow(feed.load_workflow, feed.load_input);
        }();
        const double ms = MsSince(t0);
        if (!out.ok() || !SameResult(*out, *load_ref)) {
          raw.Fail("plain serial run: wrong result or error");
          continue;
        }
        raw.Sample("plain_ms" + suffix, ms);
      }
    }
    ++round;
  }
  tracer.Enable(false);
  if (!loop.ok()) return 1;
  raw.Set("engine.recovery.crash_hit", static_cast<double>(crash_hit));
  raw.Set("engine.recovery.activity_hits", static_cast<double>(activity_hits));
  raw.Set("recovery.points", static_cast<double>(feed.load_plan.labels.size()));

  // Codec probes on the largest placed checkpoint.
  if (args.trace && !largest_checkpoint.empty()) {
    tracer.Enable(true);
    for (int i = 0; i < 20; ++i) {
      Span::SetThreadOp(tracer.NewOp());
      StatusOr<Checkpoint> parsed = [&] {
        Span span("io.checkpoint_decode");
        return ParseCheckpoint(largest_checkpoint);
      }();
      if (!parsed.ok()) {
        raw.Fail("ParseCheckpoint: " + parsed.status().ToString());
        break;
      }
      std::string bytes;
      {
        Span span("io.checkpoint_encode");
        bytes = SerializeCheckpoint(*parsed);
      }
      if (bytes != largest_checkpoint) {
        raw.Fail("checkpoint re-encode differs from the file bytes");
      }
    }
    tracer.Enable(false);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::fprintf(stderr, "durable_feed: %zu rounds, %zu recovery points\n",
               round, feed.load_plan.labels.size());
  return 0;
}

}  // namespace perfbench
