// Shared driver for the paper-table benches: generates the 40-workflow
// evaluation suite (15 small / 15 medium / 10 large, §4.2), runs ES, HS
// and HS-Greedy on every workflow, and aggregates the per-category
// metrics both Table 1 and Table 2 report.

#ifndef ETLOPT_BENCH_SUITE_RUNNER_H_
#define ETLOPT_BENCH_SUITE_RUNNER_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "optimizer/search.h"
#include "workload/generator.h"

namespace etlopt {
namespace bench {

struct AlgorithmStats {
  double sum_quality_pct = 0;
  double sum_improvement_pct = 0;
  double sum_visited = 0;
  double sum_millis = 0;
  int exhausted = 0;
  int runs = 0;

  void Add(const SearchResult& r, double best_known_cost) {
    sum_quality_pct += 100.0 * best_known_cost / r.best.cost;
    sum_improvement_pct += r.improvement_pct();
    sum_visited += static_cast<double>(r.visited_states);
    sum_millis += static_cast<double>(r.elapsed_millis);
    exhausted += r.exhausted ? 1 : 0;
    ++runs;
  }

  double avg_quality() const { return runs ? sum_quality_pct / runs : 0; }
  double avg_improvement() const {
    return runs ? sum_improvement_pct / runs : 0;
  }
  double avg_visited() const { return runs ? sum_visited / runs : 0; }
  double avg_millis() const { return runs ? sum_millis / runs : 0; }
};

struct CategoryResult {
  WorkloadCategory category;
  size_t workflows = 0;
  double avg_activities = 0;
  AlgorithmStats es;
  AlgorithmStats hs;
  AlgorithmStats hsg;
};

struct SuiteSettings {
  size_t small_count = 15;
  size_t medium_count = 15;
  size_t large_count = 10;
  uint64_t base_seed = 1000;
  /// ES budgets per category (the stand-in for the paper's 40-hour cap).
  SearchOptions es_small{.max_states = 15000, .max_millis = 5000};
  SearchOptions es_medium{.max_states = 10000, .max_millis = 5000};
  SearchOptions es_large{.max_states = 8000, .max_millis = 5000};
  SearchOptions heuristic{.max_states = 200000, .max_millis = 15000};
};

inline StatusOr<CategoryResult> RunCategory(WorkloadCategory category,
                                            size_t count, uint64_t base_seed,
                                            const SearchOptions& es_options,
                                            const SearchOptions& hs_options,
                                            const CostModel& model) {
  CategoryResult out;
  out.category = category;
  out.workflows = count;
  ETLOPT_ASSIGN_OR_RETURN(auto suite,
                          GenerateSuite(category, count, base_seed));
  for (size_t i = 0; i < suite.size(); ++i) {
    const Workflow& w = suite[i].workflow;
    out.avg_activities += static_cast<double>(suite[i].activity_count);
    ETLOPT_ASSIGN_OR_RETURN(SearchResult es,
                            ExhaustiveSearch(w, model, es_options));
    ETLOPT_ASSIGN_OR_RETURN(SearchResult hs,
                            HeuristicSearch(w, model, hs_options));
    ETLOPT_ASSIGN_OR_RETURN(SearchResult hsg,
                            HeuristicSearchGreedy(w, model, hs_options));
    // The reference cost: the true optimum when ES exhausted the space,
    // otherwise the best any algorithm found (the paper compares against
    // "the best solution that ES has produced when it stopped"; ours is
    // the tighter of the two references).
    double best_known =
        std::min({es.best.cost, hs.best.cost, hsg.best.cost});
    out.es.Add(es, best_known);
    out.hs.Add(hs, best_known);
    out.hsg.Add(hsg, best_known);
    std::fprintf(stderr, "  [%s %zu/%zu] es=%.0f%s hs=%.0f hsg=%.0f\n",
                 std::string(WorkloadCategoryToString(category)).c_str(),
                 i + 1, count, es.best.cost, es.exhausted ? "" : "*",
                 hs.best.cost, hsg.best.cost);
  }
  out.avg_activities /= static_cast<double>(count);
  return out;
}

inline StatusOr<std::vector<CategoryResult>> RunSuite(
    const SuiteSettings& settings, const CostModel& model) {
  std::vector<CategoryResult> out;
  struct Spec {
    WorkloadCategory category;
    size_t count;
    const SearchOptions* es;
  };
  const Spec specs[] = {
      {WorkloadCategory::kSmall, settings.small_count, &settings.es_small},
      {WorkloadCategory::kMedium, settings.medium_count, &settings.es_medium},
      {WorkloadCategory::kLarge, settings.large_count, &settings.es_large},
  };
  uint64_t seed = settings.base_seed;
  for (const Spec& spec : specs) {
    ETLOPT_ASSIGN_OR_RETURN(
        CategoryResult r,
        RunCategory(spec.category, spec.count, seed, *spec.es,
                    settings.heuristic, model));
    out.push_back(std::move(r));
    seed += 1000;
  }
  return out;
}

/// The current git revision, for stamping bench reports. Falls back to
/// $ETLOPT_GIT_REV, then "unknown", so benches work from tarballs too.
inline std::string GitRevision() {
  if (const char* env = std::getenv("ETLOPT_GIT_REV")) return env;
  std::FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {0};
  std::string rev;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) rev = buf;
  ::pclose(pipe);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

/// Wall times for an A/B gate on a shared host, by perfbench's rule
/// (perfbench/README.md): every round runs each of the `legs` once,
/// interleaved round-robin with the starting leg rotating, and each leg
/// reports its median over the rounds. Host drift then lands on every
/// leg alike instead of on whichever leg ran while it lasted. `verify`
/// runs untimed after each timed `run`.
inline std::vector<double> InterleavedMedianMillis(
    size_t legs, int rounds, const std::function<void(size_t leg)>& run,
    const std::function<void(size_t leg)>& verify) {
  std::vector<std::vector<double>> samples(legs);
  for (int r = 0; r < rounds; ++r) {
    for (size_t k = 0; k < legs; ++k) {
      const size_t leg = (static_cast<size_t>(r) + k) % legs;
      auto t0 = std::chrono::steady_clock::now();
      run(leg);
      auto t1 = std::chrono::steady_clock::now();
      samples[leg].push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      verify(leg);
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    const size_t n = s.size();
    medians.push_back(n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2);
  }
  return medians;
}

/// Machine-readable bench output: collects (metric, value, units) triples
/// and writes them as BENCH_<name>.json next to the binary's working
/// directory, stamped with the git revision. CI and regression tooling
/// parse these instead of scraping stdout tables.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : name_(std::move(bench_name)) {}

  void Add(const std::string& metric, double value,
           const std::string& units) {
    metrics_.push_back({metric, value, units});
  }

  /// Writes BENCH_<name>.json; returns false (and warns) on I/O failure.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"git_rev\": \"%s\",\n",
                 name_.c_str(), GitRevision().c_str());
    std::fprintf(f, "  \"metrics\": [\n");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"value\": %.6g, "
                   "\"units\": \"%s\"}%s\n",
                   m.name.c_str(), m.value, m.units.c_str(),
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string units;
  };
  std::string name_;
  std::vector<Metric> metrics_;
};

/// Adds the per-algorithm aggregates of a category to a JsonReport under
/// "<category>.<algo>.<metric>" keys.
inline void ReportCategory(JsonReport& report, const CategoryResult& r) {
  const std::string prefix(WorkloadCategoryToString(r.category));
  report.Add(prefix + ".avg_activities", r.avg_activities, "activities");
  struct Named {
    const char* algo;
    const AlgorithmStats* stats;
  };
  const Named algos[] = {{"es", &r.es}, {"hs", &r.hs}, {"hsg", &r.hsg}};
  for (const Named& a : algos) {
    const std::string p = prefix + "." + a.algo;
    report.Add(p + ".avg_quality", a.stats->avg_quality(), "percent");
    report.Add(p + ".avg_improvement", a.stats->avg_improvement(), "percent");
    report.Add(p + ".avg_visited", a.stats->avg_visited(), "states");
    report.Add(p + ".avg_millis", a.stats->avg_millis(), "ms");
  }
}

/// Reads a "quick mode" flag from the environment so the full suite can be
/// shrunk during development (ETLOPT_BENCH_QUICK=1).
inline SuiteSettings SettingsFromEnv() {
  SuiteSettings s;
  const char* quick = std::getenv("ETLOPT_BENCH_QUICK");
  if (quick != nullptr && quick[0] == '1') {
    s.small_count = 3;
    s.medium_count = 3;
    s.large_count = 2;
    s.es_small = {.max_states = 4000, .max_millis = 3000};
    s.es_medium = {.max_states = 3000, .max_millis = 3000};
    s.es_large = {.max_states = 2000, .max_millis = 3000};
    s.heuristic = {.max_states = 50000, .max_millis = 10000};
  }
  return s;
}

}  // namespace bench
}  // namespace etlopt

#endif  // ETLOPT_BENCH_SUITE_RUNNER_H_
