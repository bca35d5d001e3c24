// plan_service: the optimizer as a network service. An in-process
// OptimizerServer (2 service workers) on loopback is driven over 2
// connections. Slices alternate between an open loop at a fixed rate
// (1.5 s) and a closed loop that measures capacity (1 s), so both see
// the same host phases. Requests follow a Zipf mix over a warmed catalog of
// generated small/medium workflows plus examples/workflows/*.etl; a
// fixed share (one in ten, at a seeded position) are first-seen
// requests that force a cold HS search under a small state budget.
// The engine does no work here.
//
// The hot catalog's shapes are fixed: the Zipf head carries most hits,
// so drawing it from the workload seed moved p50 and capacity by ~30%
// across seeds. The seed drives the request order, the miss positions
// and the cold workflows.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "cost/cost_model.h"
#include "harness.h"
#include "io/plan_format.h"
#include "io/text_format.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "service/optimizer_service.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using namespace etlopt;
namespace fs = std::filesystem;

constexpr size_t kHotGenerated = 48;   // + the example workflows
constexpr uint64_t kHotShapeSeed = 500;
constexpr size_t kColdPool = 256;      // cold workflows, reused
constexpr size_t kSearchStates = 100;  // per request, hot and cold
constexpr int64_t kMaxMillis = 600000;  // never binds: the state budget does
// Open-loop requests per second: about half the slowest run's
// closed-loop capacity measured on the seed code (583/s; median 807-907/s
// over 10 seeds on a 4-vCPU host). Each connection blocks behind its own
// cold searches, so at 400/s a slow host phase queued hits behind them
// and moved p50 and p99 by 26% and 39% between runs.
constexpr double kOpenRate = 250;
constexpr int kConnections = 2;  // one client thread each
constexpr int kWorkers = 2;      // the server's service workers
// Open slices are longer: the p99 needs many open-loop samples so that
// one host stall does not move it. Closed slices of 0.5 s gave 2.5x
// swings in capacity between neighbouring slices and a 32% spread of
// their median across runs, so each closed slice runs for a second.
constexpr double kOpenSliceSeconds = 1.5;
constexpr double kClosedSliceSeconds = 1.0;
constexpr size_t kMissEvery = 10;      // one first-seen request per 10
constexpr double kZipfS = 1.0;
// The server's plan-cache budget: the hot catalog stays resident while
// cold entries cycle through. The budget fills early in every run, even
// in a slow host phase, so peak memory does not follow throughput (at
// 16 MiB a 20 s run at 250 requests/s did not fill it, and peak RSS
// moved 7% with the number of cold requests served).
constexpr size_t kPlanCacheBytes = size_t{8} << 20;
constexpr int kCheckThreads = 3;

SearchOptions Budget() {
  SearchOptions options;
  options.max_states = kSearchStates;
  options.max_millis = kMaxMillis;
  return options;
}

StatusOr<Workflow> Generated(uint64_t seed, size_t i) {
  GeneratorOptions gen;
  gen.category = i % 2 == 0 ? WorkloadCategory::kSmall
                            : WorkloadCategory::kMedium;
  gen.seed = seed;
  ETLOPT_ASSIGN_OR_RETURN(GeneratedWorkflow g, GenerateWorkflow(gen));
  return std::move(g.workflow);
}

struct Catalog {
  std::vector<NetOptimizeRequest> hot;
  std::vector<NetOptimizeRequest> cold;
};

StatusOr<NetOptimizeRequest> RequestFor(const Workflow& workflow) {
  Span span("io.text_print");
  return MakeNetRequest(workflow, SearchAlgorithm::kHeuristic, Budget());
}

Status BuildCatalog(uint64_t seed, Catalog& catalog) {
  Span span("workload.gen");
  catalog.hot.clear();
  catalog.cold.clear();
  for (size_t i = 0; i < kHotGenerated; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(Workflow w, Generated(kHotShapeSeed + i, i));
    ETLOPT_ASSIGN_OR_RETURN(NetOptimizeRequest r, RequestFor(w));
    catalog.hot.push_back(std::move(r));
  }
  std::vector<fs::path> examples;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("examples/workflows", ec)) {
    if (entry.path().extension() == ".etl") examples.push_back(entry.path());
  }
  if (examples.empty()) {
    return Status::NotFound("no examples/workflows/*.etl in the checkout");
  }
  std::sort(examples.begin(), examples.end());
  for (const fs::path& path : examples) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    StatusOr<Workflow> w = [&] {
      Span parse("io.text_parse");
      return ParseWorkflowText(text.str());
    }();
    ETLOPT_RETURN_NOT_OK(w.status());
    ETLOPT_ASSIGN_OR_RETURN(NetOptimizeRequest r, RequestFor(*w));
    catalog.hot.push_back(std::move(r));
  }
  for (size_t i = 0; i < kColdPool; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(Workflow w,
                            Generated(Mix(seed, 1000000 + i), i));
    ETLOPT_ASSIGN_OR_RETURN(NetOptimizeRequest r, RequestFor(w));
    catalog.cold.push_back(std::move(r));
  }
  return Status::OK();
}

// The in-process answer for the same canonical text a client sends.
StatusOr<std::string> InProcessPlanBytes(OptimizerService& service,
                                         const NetOptimizeRequest& request) {
  ETLOPT_ASSIGN_OR_RETURN(Workflow workflow,
                          ParseWorkflowText(request.workflow_text));
  OptimizeRequest in;
  in.workflow = std::move(workflow);
  in.algorithm = request.algorithm;
  in.options = request.options;
  ETLOPT_ASSIGN_OR_RETURN(OptimizeResponse response,
                          service.Optimize(std::move(in)));
  return SerializePlanBinary(response.plan->plan);
}

// The j-th first-seen request: a cold-pool workflow under a wall-clock
// budget no earlier request used. max_millis is part of the plan-cache
// key but never binds, so the request misses the cache and runs the same
// state-budgeted search as the pool workflow would.
NetOptimizeRequest ColdRequest(const Catalog& catalog, size_t j) {
  NetOptimizeRequest request = catalog.cold[j % catalog.cold.size()];
  request.options.max_millis = kMaxMillis + 1 + static_cast<int64_t>(j);
  return request;
}

// Request i of the run: a hot catalog index, or kCold for a first-seen
// request. One miss per block of kMissEvery, at a seeded position; hot
// picks are Zipf over the catalog. A pure function of (seed, i), so the
// sequence has no length limit.
constexpr size_t kCold = static_cast<size_t>(-1);

class RequestSequence {
 public:
  RequestSequence(uint64_t seed, size_t catalog) : seed_(seed) {
    double total = 0;
    for (size_t k = 0; k < catalog; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
      cdf_.push_back(total);
    }
  }
  size_t operator[](size_t i) const {
    const size_t block = i / kMissEvery;
    if (i % kMissEvery == Mix(seed_, 2 * block) % kMissEvery) return kCold;
    const double u = static_cast<double>(Mix(seed_, 2 * i + 1) >> 11) *
                     0x1.0p-53 * cdf_.back();
    const size_t k = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(k, cdf_.size() - 1);
  }

 private:
  uint64_t seed_;
  std::vector<double> cdf_;
};

StatusOr<std::unique_ptr<OptimizerServer>> StartServer(
    const CostModel& model) {
  ServerOptions options;
  options.ephemeral_port = true;
  options.service.num_threads = kWorkers;
  options.service.cache.byte_budget = kPlanCacheBytes;
  auto server = std::make_unique<OptimizerServer>(model, options);
  ETLOPT_RETURN_NOT_OK(server->Start());
  return server;
}

}  // namespace

int RunPlanService(const Args& args, Raw& raw) {
  LinearLogCostModel model;
  Catalog catalog;
  std::unique_ptr<OptimizerServer> server;

  // Setup: catalog generation, server start, and the warm-up searches
  // that fill the server's plan cache with the hot catalog. The first
  // setup builds the catalog and server the run uses; the repeats, at
  // slice boundaries with the clients parked, build their own and stop
  // them, so the serving server is left as it was.
  auto setup = [&](Catalog& into, std::unique_ptr<OptimizerServer>& srv) {
    const Clock::time_point t0 = Clock::now();
    Status built = BuildCatalog(args.seed, into);
    raw.Sample("workload.gen_ms", MsSince(t0));
    if (!built.ok()) {
      raw.Fail("catalog: " + built.ToString());
      return false;
    }
    StatusOr<std::unique_ptr<OptimizerServer>> started = StartServer(model);
    if (!started.ok()) {
      raw.Fail("server start: " + started.status().ToString());
      return false;
    }
    srv = std::move(started).value();
    StatusOr<OptimizerClient> client =
        OptimizerClient::Connect("127.0.0.1", srv->port());
    if (!client.ok()) {
      raw.Fail("connect: " + client.status().ToString());
      return false;
    }
    double states = 0;
    for (const NetOptimizeRequest& request : into.hot) {
      StatusOr<NetOptimizeResponse> response = client->Optimize(request);
      if (!response.ok()) {
        raw.Fail("warm-up: " + response.status().ToString());
        return false;
      }
      states += static_cast<double>(response->plan.visited_states);
    }
    client->Close();
    raw.Sample("optimizer.search_ms", srv->service().Stats().search_millis);
    raw.Set("optimizer.states_visited", states);
    return true;
  };
  MeasuredLoop loop(args, raw, [&] {
    if (server == nullptr) return setup(catalog, server);
    Catalog again;
    std::unique_ptr<OptimizerServer> other;
    const bool ok = setup(again, other);
    if (other != nullptr) (void)other->Stop();
    return ok;
  });
  if (!loop.SetUp()) {
    if (server != nullptr) (void)server->Stop();
    return 1;
  }

  // References: in-process plan bytes for every hot request (this also
  // warms the in-process service that the hit-path probes use).
  OptimizerService reference(model);
  std::vector<std::string> expected;
  std::vector<Workflow> hot_workflows;
  for (const NetOptimizeRequest& request : catalog.hot) {
    StatusOr<std::string> bytes = InProcessPlanBytes(reference, request);
    StatusOr<Workflow> parsed = ParseWorkflowText(request.workflow_text);
    if (!bytes.ok() || !parsed.ok()) {
      raw.Fail("reference plan failed");
      return 1;
    }
    expected.push_back(std::move(bytes).value());
    hot_workflows.push_back(std::move(parsed).value());
  }

  const RequestSequence sequence(args.seed, catalog.hot.size());
  std::atomic<size_t> next_request{0};
  std::atomic<size_t> next_cold{0};
  std::atomic<size_t> open_next{0};
  std::vector<std::vector<std::string>> cold_replies(kConnections);
  std::vector<std::vector<size_t>> cold_ids(kConnections);

  const size_t slices =
      2 * std::max<size_t>(1, static_cast<size_t>(std::llround(
                                  args.seconds /
                                  (kOpenSliceSeconds + kClosedSliceSeconds))));
  const size_t per_open_slice =
      static_cast<size_t>(kOpenRate * kOpenSliceSeconds);
  auto slice_length = [](size_t k) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(k % 2 == 0 ? kOpenSliceSeconds
                                                 : kClosedSliceSeconds));
  };
  // Every slice starts with two barriers: between them the clients are
  // parked and the main thread samples the host reference kernel; after
  // the second, slice k runs from begins[k].
  std::barrier sync(kConnections + 1);
  std::vector<Clock::time_point> begins(slices);
  Tracer& tracer = Tracer::Global();
  const Clock::time_point start = Clock::now();
  // Slices go open, closed, open, closed...; traced runs trace the
  // second pair of every four slices.
  auto traced_slice = [&](size_t k) { return args.trace && (k / 2) % 2 == 1; };

  auto client_loop = [&](int t) {
    StatusOr<OptimizerClient> client =
        OptimizerClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) {
      raw.Fail("connect: " + client.status().ToString());
      for (size_t k = 0; k < 2 * slices; ++k) sync.arrive_and_wait();
      return;
    }
    // One request: sent, timed, and its reply checked. Returns whether
    // it was answered.
    auto one = [&](bool open, Clock::time_point due, bool traced) {
      const size_t pick = sequence[next_request.fetch_add(1)];
      size_t cold = 0;
      NetOptimizeRequest cold_request;
      const NetOptimizeRequest* request = &cold_request;
      if (pick == kCold) {
        cold = next_cold.fetch_add(1);
        cold_request = ColdRequest(catalog, cold);
      } else {
        request = &catalog.hot[pick];
      }
      const std::string suffix = traced ? "|traced" : "";
      const uint64_t op = traced ? tracer.NewOp() : 0;
      raw.Attempt();
      const Clock::time_point sent = Clock::now();
      StatusOr<NetOptimizeResponse> response = [&] {
        Span span("net.round_trip", op);
        return client->Optimize(*request);
      }();
      const Clock::time_point done = Clock::now();
      if (!response.ok()) {
        if (response.status().code() == StatusCode::kResourceExhausted) {
          raw.Count("service.shed", 1);
        }
        raw.Fail("optimize: " + response.status().ToString());
        return false;
      }
      raw.Count("requests", 1);
      raw.Count(response->cache_hit ? "hits" : "misses", 1);
      if (open) {
        raw.Row("open" + suffix,
                {Ms(start, due), Ms(start, sent), Ms(start, done),
                 pick == kCold ? 1.0 : 0.0});
      } else if (pick != kCold) {
        raw.Sample("rtt_hit_us" + suffix, Ms(sent, done) * 1000.0);
      }
      Span check("bench.check", op);
      std::string bytes = SerializePlanBinary(response->plan);
      if (pick == kCold) {
        cold_ids[t].push_back(cold);
        cold_replies[t].push_back(std::move(bytes));
      } else if (bytes != expected[pick]) {
        raw.Fail("hot reply differs from in-process plan bytes");
      }
      return true;
    };
    for (size_t k = 0; k < slices; ++k) {
      sync.arrive_and_wait();
      sync.arrive_and_wait();
      const Clock::time_point s0 = begins[k];
      const Clock::time_point s1 = s0 + slice_length(k);
      const bool traced = traced_slice(k);
      if (k % 2 == 0) {
        for (;;) {
          const size_t m = open_next.fetch_add(1);
          if (m >= per_open_slice * (k / 2 + 1)) break;
          const size_t local = m - per_open_slice * (k / 2);
          const Clock::time_point due =
              s0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(local / kOpenRate));
          // Sleep to just short of the due time, then spin, so timer
          // wake-up delay is not charged to the service.
          std::this_thread::sleep_until(due - std::chrono::microseconds(300));
          while (Clock::now() < due) {
          }
          one(true, due, traced);
        }
      } else {
        // Capacity: this connection's answered requests over the time
        // from the slice start to its last completion, so a request that
        // overruns the slice counts with the time it took.
        size_t answered = 0;
        Clock::time_point last = s0;
        while (Clock::now() < s1) {
          if (one(false, Clock::now(), traced)) ++answered;
          last = Clock::now();
        }
        raw.Row(traced ? "closed|traced" : "closed",
                {static_cast<double>(k), static_cast<double>(answered),
                 Ms(s0, last) / 1000.0});
      }
    }
    client->Close();
  };

  std::vector<std::thread> clients;
  for (int t = 0; t < kConnections; ++t) clients.emplace_back(client_loop, t);
  HostSampler host(raw);
  loop.Start();
  for (size_t k = 0; k < slices; ++k) {
    sync.arrive_and_wait();
    (void)loop.Running();  // a setup repeat, when one is due
    host.Now();
    tracer.Enable(traced_slice(k));
    begins[k] = Clock::now();
    sync.arrive_and_wait();
    std::this_thread::sleep_until(begins[k] + slice_length(k));
  }
  for (std::thread& t : clients) t.join();
  tracer.Enable(false);
  if (!loop.ok()) {
    (void)server->Stop();
    return 1;
  }

  NetServerStats net = server->NetStats();
  raw.Set("server.requests_served", static_cast<double>(net.requests_served));
  raw.Set("server.requests_shed", static_cast<double>(net.requests_shed));

  // Traced runs also time the layers of one hit's path in isolation,
  // on every hot request: text parse/print, plan encode/decode, the
  // workflow signature, and the in-process cached Optimize.
  if (args.trace) {
    tracer.Enable(true);
    for (int round = 0; round < 20; ++round) {
      for (size_t h = 0; h < catalog.hot.size(); ++h) {
        Span::SetThreadOp(tracer.NewOp());
        const NetOptimizeRequest& request = catalog.hot[h];
        {
          Span span("io.text_parse");
          (void)ParseWorkflowText(request.workflow_text);
        }
        {
          Span span("io.text_print");
          (void)PrintWorkflowText(hot_workflows[h]);
        }
        StatusOr<OptimizedPlan> plan = [&] {
          Span span("io.plan_decode");
          return ParsePlanBinary(expected[h]);
        }();
        if (plan.ok()) {
          Span span("io.plan_encode");
          (void)SerializePlanBinary(*plan);
        }
        {
          Span span("graph.signature");
          (void)hot_workflows[h].SignatureHash();
        }
        {
          OptimizeRequest in;
          in.workflow = hot_workflows[h];
          in.options = Budget();
          Span span("service.optimize");
          StatusOr<OptimizeResponse> r = reference.Optimize(std::move(in));
          if (!r.ok() || !r->cache_hit) raw.Fail("in-process hit probe");
        }
        if (plan.ok()) {
          NetOptimizeResponse response;
          response.plan = std::move(plan).value();
          response.cache_hit = true;
          raw.Sample("bytes_per_request",
                     static_cast<double>(
                         EncodeOptimizeRequest(request).size() +
                         EncodeOptimizeResponse(response).size() +
                         2 * (kFrameHeaderBytes + kFrameChecksumBytes)));
        }
      }
    }
    tracer.Enable(false);
  }
  (void)server->Stop();

  // Cold replies, checked against in-process plans after the window, on
  // kCheckThreads threads. The checking services cache nothing, so the
  // check adds no memory per request.
  std::vector<std::pair<size_t, const std::string*>> cold_checks;
  for (int t = 0; t < kConnections; ++t) {
    for (size_t j = 0; j < cold_ids[t].size(); ++j) {
      cold_checks.emplace_back(cold_ids[t][j], &cold_replies[t][j]);
    }
  }
  std::atomic<size_t> next_check{0};
  auto check_loop = [&] {
    ServiceOptions uncached;
    uncached.num_threads = 1;
    uncached.cache.byte_budget = 1;
    OptimizerService checker(model, uncached);
    for (size_t i = next_check.fetch_add(1); i < cold_checks.size();
         i = next_check.fetch_add(1)) {
      StatusOr<std::string> bytes = InProcessPlanBytes(
          checker, ColdRequest(catalog, cold_checks[i].first));
      if (!bytes.ok() || *bytes != *cold_checks[i].second) {
        raw.Fail("cold reply differs from in-process plan bytes");
      }
    }
  };
  std::vector<std::thread> checkers;
  for (int t = 0; t < kCheckThreads; ++t) checkers.emplace_back(check_loop);
  for (std::thread& t : checkers) t.join();
  std::fprintf(stderr, "plan_service: %zu hot, %zu cold used, %zu slices\n",
               catalog.hot.size(), next_cold.load(), slices);
  return 0;
}

}  // namespace perfbench
