// Serial-engine goldens: what the reference engine loads on the paper's
// workflow suite (GenerateSuite: 15 small from seed 1000, 15 medium from
// 2000, 10 large from 3000), pinned bit for bit. Every workflow runs on
// 5,000 rows per source generated from its own suite seed, once as
// generated and once as the plan HS picks under a 300-state budget. Each
// run is folded into one FNV-64 digest of every target's name and rows
// (record_io encoding, in emitted order) and of rows_out, so a kernel
// change that alters one cell, one row's order or one node's count
// anywhere in the suite shows up as a golden diff.
//
// Every other engine is checked against the serial engine; these goldens
// check the serial engine against itself across changes.
//
// On a mismatch the failure message prints the actual line, in the
// format of the table at the bottom of this file.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "contract/contract.h"
#include "engine/executor.h"
#include "optimizer/search.h"
#include "workload/generator.h"

namespace etlopt {
namespace {

extern const char kGoldens[];

struct Suite {
  WorkloadCategory category;
  size_t count;
  uint64_t base_seed;
};

constexpr Suite kSmall{WorkloadCategory::kSmall, 15, 1000};
constexpr Suite kMedium{WorkloadCategory::kMedium, 15, 2000};
constexpr Suite kLarge{WorkloadCategory::kLarge, 10, 3000};

SearchOptions HsBudget() {
  SearchOptions o;
  o.max_states = 300;
  o.max_millis = 3600 * 1000;
  o.num_threads = 1;
  return o;
}

// One golden line: "<category> <seed> <plan> <digest> <sum of rows_out>".
std::string GoldenLine(WorkloadCategory category, uint64_t seed,
                       const char* plan, const ExecutionResult& r) {
  size_t rows_out = 0;
  for (const auto& [node, count] : r.rows_out) rows_out += count;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %" PRIu64 " %s %016" PRIx64 " %zu",
                std::string(WorkloadCategoryToString(category)).c_str(), seed,
                plan, RunDigest(r), rows_out);
  return buf;
}

// The golden lines starting with `prefix`.
std::vector<std::string> Expected(const std::string& prefix) {
  std::vector<std::string> out;
  std::istringstream in(kGoldens);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

void CheckSuite(const Suite& suite) {
  auto workflows = GenerateSuite(suite.category, suite.count, suite.base_seed);
  ASSERT_TRUE(workflows.ok()) << workflows.status().ToString();
  const std::string category(WorkloadCategoryToString(suite.category));
  const std::vector<std::string> expected = Expected(category + " ");
  EXPECT_EQ(expected.size(), 2 * suite.count);
  InputGenOptions igen;
  igen.rows_per_source = 5000;
  igen.key_domain = 5000;
  LinearLogCostModel model;
  std::vector<std::string> got;
  for (size_t i = 0; i < suite.count; ++i) {
    const uint64_t seed = suite.base_seed + i;
    const Workflow& initial = (*workflows)[i].workflow;
    const ExecutionInput input = GenerateInputFor(initial, seed, igen);
    auto search = HeuristicSearch(initial, model, HsBudget());
    ASSERT_TRUE(search.ok()) << search.status().ToString();
    const struct {
      const char* name;
      const Workflow& workflow;
    } plans[] = {{"initial", initial}, {"hs", search->best.workflow}};
    for (const auto& plan : plans) {
      auto run = ExecuteWorkflow(plan.workflow, input);
      ASSERT_TRUE(run.ok()) << category << " " << seed << " " << plan.name
                            << ": " << run.status().ToString();
      got.push_back(GoldenLine(suite.category, seed, plan.name, *run));
    }
  }
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], i < expected.size() ? expected[i] : "(missing)");
  }
}

TEST(SerialGoldenTest, Small) { CheckSuite(kSmall); }
TEST(SerialGoldenTest, Medium) { CheckSuite(kMedium); }
TEST(SerialGoldenTest, Large) { CheckSuite(kLarge); }

// <category> <seed> <initial|hs> <digest> <sum of rows_out>
const char kGoldens[] = R"(
small 1000 initial 210c42146082b68b 38636
small 1000 hs f376805d4d3a507f 31316
small 1001 initial 5385dfa1d4070c65 72966
small 1001 hs cdc61ab9f21588ce 49075
small 1002 initial 428dbe309291a34b 27468
small 1002 hs 867de5fe43f97139 12168
small 1003 initial aa811ce11410ffe9 32854
small 1003 hs 0f301a5cdd06fefc 13675
small 1004 initial 8c281ae77af47ecf 14172
small 1004 hs 557eb0b4db4891d6 11486
small 1005 initial a01b15b14c3be8c7 33129
small 1005 hs 667a725a13bc3295 11713
small 1006 initial a62caab0179f65ae 29046
small 1006 hs 608b6873da57f4ef 22042
small 1007 initial b487321dd04b032c 47240
small 1007 hs aa1a6da3e99601cb 27471
small 1008 initial 293b975de2270937 31155
small 1008 hs 7d363e376ef8a592 24466
small 1009 initial a483b1bb8e51006c 44133
small 1009 hs ec6853874a01ee20 26854
small 1010 initial 4a7fe5bd2707e678 41909
small 1010 hs a7e353400d3ceb26 21611
small 1011 initial bb6c6a06c53f2f10 37528
small 1011 hs 2460c7f1d8ae55e5 18225
small 1012 initial d56104bb5d774c02 56180
small 1012 hs 4b9736e708f8de7d 14658
small 1013 initial 339e3e4085f82846 32456
small 1013 hs 968a5354fe84e241 14935
small 1014 initial 2bb1411e6488a5f7 30096
small 1014 hs ec9e6c463cc83a76 17965
medium 2000 initial 67ec2883ecf5a5a7 84710
medium 2000 hs 390a58051c88d65e 76627
medium 2001 initial 85d5e30f1833b549 94251
medium 2001 hs 08bac4c498813e40 70377
medium 2002 initial c68ab37e5b510e58 130797
medium 2002 hs 20613ee37924d10a 108608
medium 2003 initial 7b0f511b4c2f246a 92843
medium 2003 hs e39221985de1f6bc 78499
medium 2004 initial f1658c0256e5179f 83034
medium 2004 hs 50629ada4c213af6 70998
medium 2005 initial 9c6f095520418788 79518
medium 2005 hs 4166589c78e732f4 61394
medium 2006 initial 99ed7b6fdb37242b 61505
medium 2006 hs 065da9d2834c4415 43426
medium 2007 initial 703f23ebe17cd45e 79933
medium 2007 hs df1712cf8e2c8d80 53795
medium 2008 initial dcedb523aaef0634 116804
medium 2008 hs cbe0733815fcaf0a 91369
medium 2009 initial bec42e2024a4aaed 69488
medium 2009 hs 277e838f91aa2024 47847
medium 2010 initial 550a3e4b7f199f08 63434
medium 2010 hs df8ff8357747d2a4 35401
medium 2011 initial 2584fa0a647603c8 113968
medium 2011 hs 4da62931fcbccf26 92759
medium 2012 initial 9ffa9cab8289df87 103529
medium 2012 hs f47bdb712a23cfa1 74740
medium 2013 initial 491c4493a54342b2 88738
medium 2013 hs f1992aebca58816f 62856
medium 2014 initial a93b0aab94588e99 88721
medium 2014 hs 65c1166820bf2248 72920
large 3000 initial 7d77f836d83afd88 146757
large 3000 hs f8ad7a46f44d60d6 139554
large 3001 initial 7d811f605705f729 111627
large 3001 hs 85d59100d3552e08 90741
large 3002 initial a06507a4753d4c9d 90862
large 3002 hs 8073fc78f925109d 77590
large 3003 initial bb77292645a80874 126571
large 3003 hs 0cae5aa076cf0ed0 126295
large 3004 initial f3c797f073d61c3d 119380
large 3004 hs d56e1f1f11ce89f6 110619
large 3005 initial 5621fc064a094ad1 145724
large 3005 hs 5f9d7ac76dc0b034 140851
large 3006 initial 47515753a4ce86e7 194351
large 3006 hs 8de5c8ea4e0c58ee 165210
large 3007 initial d751950aa022c8fa 87375
large 3007 hs d5a0730f63bae8b6 82248
large 3008 initial 3f4c5935431c59c2 195418
large 3008 hs 2881241234d58548 187066
large 3009 initial d2789ed2b310594b 124135
large 3009 hs c3ee0e05720ccdf8 105944
)";

}  // namespace
}  // namespace etlopt
