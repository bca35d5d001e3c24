#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_op = 0;

void AppendJsonString(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double MsSince(Clock::time_point t0) { return Ms(t0, Clock::now()); }

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

uint64_t Tracer::NewOp() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_op_++;
}

uint64_t Tracer::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::End(uint64_t id, uint64_t parent, uint64_t op, const char* name,
                 int64_t start_ns) {
  SpanRecord span;
  span.id = id;
  span.parent = parent;
  span.op = op;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

Span::Span(const char* name, uint64_t op)
    : name_(name), on_(Tracer::Global().enabled()) {
  if (!on_) return;
  if (op != 0) t_current_op = op;
  op_ = t_current_op;
  id_ = Tracer::Global().Begin();
  parent_ = t_current_span;
  t_current_span = id_;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!on_) return;
  Tracer::Global().End(id_, parent_, op_, name_, start_ns_);
  t_current_span = parent_;
}

void Span::SetThreadOp(uint64_t op) { t_current_op = op; }

void Raw::Sample(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(value);
}

void Raw::Row(const std::string& name, std::vector<double> row) {
  std::lock_guard<std::mutex> lock(mu_);
  rows_[name].push_back(std::move(row));
}

void Raw::Count(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] += value;
}

void Raw::Set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = value;
}

void Raw::Attempt(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Raw::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

void Raw::SetupSeconds(double s) {
  std::lock_guard<std::mutex> lock(mu_);
  setup_s_.push_back(s);
}

size_t Raw::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

bool Raw::Write(const std::string& path, const Args& args) {
  std::vector<SpanRecord> spans = Tracer::Global().Take();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"workload\":";
  AppendJsonString(out, args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"trace\":";
  out += args.trace ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i) out.push_back(',');
    AppendJsonString(out, failures_[i]);
  }
  out += "],\"peak_rss_mb\":";
  AppendNumber(out, PeakRssMb());
  out += ",\"setup_s\":[";
  for (size_t i = 0; i < setup_s_.size(); ++i) {
    if (i) out.push_back(',');
    AppendNumber(out, setup_s_[i]);
  }
  out += "],\"values\":{";
  bool first = true;
  for (const auto& [name, v] : values_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(out, name);
    out.push_back(':');
    AppendNumber(out, v);
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [name, vs] : samples_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(out, name);
    out += ":[";
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i) out.push_back(',');
      AppendNumber(out, vs[i]);
    }
    out.push_back(']');
  }
  out += "},\"rows\":{";
  first = true;
  for (const auto& [name, table] : rows_) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(out, name);
    out += ":[";
    for (size_t i = 0; i < table.size(); ++i) {
      if (i) out.push_back(',');
      out.push_back('[');
      for (size_t j = 0; j < table[i].size(); ++j) {
        if (j) out.push_back(',');
        AppendNumber(out, table[i][j]);
      }
      out.push_back(']');
    }
    out.push_back(']');
  }
  out += "},\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i) out.push_back(',');
    out.push_back('[');
    for (uint64_t v : {s.id, s.parent, s.op}) {
      out.append(std::to_string(v));
      out.push_back(',');
    }
    AppendJsonString(out, s.name);
    for (int64_t v : {s.start_ns, s.end_ns}) {
      out.push_back(',');
      out.append(std::to_string(v));
    }
    out.push_back(']');
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

uint32_t g_table[16384];
const bool g_table_init = [] {
  for (uint32_t i = 0; i < 16384; ++i) g_table[i] = i * 2654435761u;
  return true;
}();

// An LCG-indexed walk over a 64 KiB table: integer ALU plus L1/L2
// loads, no allocation, no syscalls.
uint64_t IntegerWork(int steps) {
  uint32_t x = 12345;
  uint64_t acc = 0;
  for (int i = 0; i < steps; ++i) {
    x = x * 1664525u + 1013904223u;
    acc += g_table[x >> 18] ^ x;
  }
  return acc;
}

std::atomic<uint64_t> g_sink{0};

double HostRefKernelMs() {
  const Clock::time_point t0 = Clock::now();
  g_sink.fetch_add(IntegerWork(1500000), std::memory_order_relaxed);
  return MsSince(t0);
}

}  // namespace

void HostSampler::Maybe() {
  const Clock::time_point now = Clock::now();
  if (started_ && Ms(last_, now) < interval_ms_) return;
  started_ = true;
  last_ = now;
  Now();
}

void HostSampler::Now() {
  Span span("host.ref");
  raw_.Sample("host.ref_ms", HostRefKernelMs());
}

bool MeasuredLoop::TimedSetup() {
  // A repeat inside a traced sweep is not part of its operations.
  Tracer& tracer = Tracer::Global();
  const bool traced = tracer.enabled();
  tracer.Enable(false);
  const Clock::time_point t0 = Clock::now();
  ok_ = setup_();
  const Clock::duration took = Clock::now() - t0;
  tracer.Enable(traced);
  ++runs_;
  if (ok_) raw_.SetupSeconds(std::chrono::duration<double>(took).count());
  paused_ += took;
  deadline_ += took;
  return ok_;
}

bool MeasuredLoop::SetUp() { return TimedSetup(); }

void MeasuredLoop::Start() {
  start_ = Clock::now();
  paused_ = Clock::duration::zero();
  deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args_.seconds));
}

bool MeasuredLoop::Running() {
  if (!ok_) return false;
  const Clock::time_point now = Clock::now();
  if (now >= deadline_) return false;
  if (runs_ < args_.setup_reps) {
    const double loop_s =
        std::chrono::duration<double>(now - start_ - paused_).count();
    if (loop_s >= args_.seconds * runs_ / args_.setup_reps &&
        !TimedSetup()) {
      return false;
    }
  }
  return Clock::now() < deadline_;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

size_t SourceRows(const etlopt::ExecutionInput& input) {
  size_t n = 0;
  for (const auto& [name, rows] : input.source_data) n += rows.size();
  return n;
}

SortedTargets Sorted(const etlopt::ExecutionResult& result) {
  SortedTargets out = result.target_data;
  for (auto& [name, rows] : out) std::sort(rows.begin(), rows.end());
  return out;
}

bool SameResult(const etlopt::ExecutionResult& a,
                const etlopt::ExecutionResult& b) {
  return a.target_data == b.target_data && a.rows_out == b.rows_out;
}

}  // namespace perfbench
