// Search goldens: the result of every search algorithm on the paper's
// workflow suite (GenerateSuite: 15 small from seed 1000, 15 medium from
// 2000, 10 large from 3000), pinned bit for bit. Each run records the
// best plan's signature hash, the best cost's bit pattern, the visited-
// state count and, for ES, the rewrite path — so any change to the search
// code that alters a decision anywhere shows up as a golden diff.
//
// Every budget is a state budget; max_millis is far out of reach, so
// visited counts never depend on timing. Runs are serial: thread-count
// independence is search_parallel_test's job, and it anchors its
// reference on the same serial run these goldens pin.
//
// On a mismatch the failure message prints the actual line, in the
// format of the table at the bottom of this file.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "optimizer/annealing.h"
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

SearchOptions StateBudget(size_t max_states) {
  SearchOptions o;
  o.max_states = max_states;
  o.max_millis = 3600 * 1000;
  o.num_threads = 1;
  return o;
}

// HS/HS-Greedy with per-phase caps tight enough that most runs get
// through all four phases inside the state budget.
SearchOptions HeuristicBudget() {
  SearchOptions o = StateBudget(1000);
  o.max_states_per_group = 16;
  o.max_phase3_states = 48;
  o.max_phase4_states = 4;
  return o;
}

// One golden line: "<algo> <category> <seed> <hash> <cost bits> <visited>",
// plus " |" and the rewrite path for ES.
std::string GoldenLine(const char* algo, WorkloadCategory category,
                       uint64_t seed, const SearchResult& r, bool with_path) {
  uint64_t cost_bits;
  std::memcpy(&cost_bits, &r.best.cost, sizeof(cost_bits));
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s %s %" PRIu64 " %016" PRIx64 " %016" PRIx64 " %zu", algo,
                std::string(WorkloadCategoryToString(category)).c_str(), seed,
                r.best.signature_hash, cost_bits, r.visited_states);
  std::string line = buf;
  if (with_path) {
    line += " |";
    for (const auto& t : r.best_path) line += " " + t.description;
  }
  return line;
}

// The golden lines whose "<algo> <category> " prefix matches.
std::vector<std::string> Expected(const std::string& prefix) {
  std::vector<std::string> out;
  std::istringstream in(kGoldens);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

using SearchFn =
    std::function<StatusOr<SearchResult>(const Workflow&, const CostModel&)>;

void CheckSuite(const char* algo, const Suite& suite, const SearchFn& search,
                bool with_path = false) {
  auto workflows = GenerateSuite(suite.category, suite.count, suite.base_seed);
  ASSERT_TRUE(workflows.ok()) << workflows.status().ToString();
  const std::vector<std::string> expected =
      Expected(std::string(algo) + " " +
               std::string(WorkloadCategoryToString(suite.category)) + " ");
  EXPECT_EQ(expected.size(), suite.count);
  LinearLogCostModel model;
  for (size_t i = 0; i < suite.count; ++i) {
    auto r = search((*workflows)[i].workflow, model);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(GoldenLine(algo, suite.category, suite.base_seed + i, *r,
                         with_path),
              i < expected.size() ? expected[i] : "(missing)");
  }
}

StatusOr<SearchResult> Hs(const Workflow& w, const CostModel& m) {
  return HeuristicSearch(w, m, HeuristicBudget());
}

StatusOr<SearchResult> Hsg(const Workflow& w, const CostModel& m) {
  return HeuristicSearchGreedy(w, m, HeuristicBudget());
}

StatusOr<SearchResult> Sa(const Workflow& w, const CostModel& m) {
  AnnealingOptions annealing;
  annealing.seed = 29;
  annealing.cooling = 0.5;
  annealing.steps_per_temperature = 8;
  annealing.min_temperature_fraction = 1e-2;
  return SimulatedAnnealingSearch(w, m, StateBudget(20), annealing);
}

StatusOr<SearchResult> Es(const Workflow& w, const CostModel& m) {
  return ExhaustiveSearch(w, m, StateBudget(300));
}

TEST(SearchGoldenTest, HeuristicSmall) { CheckSuite("hs", kSmall, Hs); }
TEST(SearchGoldenTest, HeuristicMedium) { CheckSuite("hs", kMedium, Hs); }
TEST(SearchGoldenTest, HeuristicLarge) { CheckSuite("hs", kLarge, Hs); }
TEST(SearchGoldenTest, GreedySmall) { CheckSuite("hsg", kSmall, Hsg); }
TEST(SearchGoldenTest, GreedyMedium) { CheckSuite("hsg", kMedium, Hsg); }
TEST(SearchGoldenTest, GreedyLarge) { CheckSuite("hsg", kLarge, Hsg); }
TEST(SearchGoldenTest, AnnealingSmall) { CheckSuite("sa", kSmall, Sa); }
TEST(SearchGoldenTest, AnnealingMedium) { CheckSuite("sa", kMedium, Sa); }
TEST(SearchGoldenTest, AnnealingLarge) { CheckSuite("sa", kLarge, Sa); }
TEST(SearchGoldenTest, ExhaustiveSmall) {
  CheckSuite("es", kSmall, Es, /*with_path=*/true);
}

// <algo> <category> <seed> <best signature hash> <best cost bits> <visited>
// [| ES rewrite path]
const char kGoldens[] = R"(
hs small 1000 8a3dba5fc09f13e0 411d00c6b7063c3c 133
hs small 1001 aa2b1d0809637723 41234bc4f1cd38e8 615
hs small 1002 37b0ae9c41768f2a 40f63e3a960029b4 274
hs small 1003 b682410ba9fd0c2f 40ef4040206b2187 174
hs small 1004 4e35ba0bbd9c4465 40f0b2d3552d7d28 466
hs small 1005 621dad583af7a5a5 40fd3064d519a47f 313
hs small 1006 ebd0c1ece432645a 40f65dede1ff0331 448
hs small 1007 a1251b3045dc2c90 40f622d134781110 392
hs small 1008 8c57412c2a65781f 411b1d5ccc0bee3e 197
hs small 1009 2570d37b25cf3fb0 41103b9a046ad2be 202
hs small 1010 ecd08f9329430dc4 4100546664f4c0cb 180
hs small 1011 ddea07ab12b033e1 41035d93ef99c1b9 969
hs small 1012 09672a9f32c2f24f 40ff7c22556d627c 470
hs small 1013 5e16729348983b29 40f3933a85409625 287
hs small 1014 8e23e7702a3ee269 410070fb097779fe 209
hs medium 2000 70fc33e44b35a3d5 4108388424f61b4e 1002
hs medium 2001 d8502e9d7952b99d 411095fa8b709aeb 1000
hs medium 2002 8e9cd48149d96077 410c1267c8efc750 1000
hs medium 2003 f233d3b7f52e1489 41228102e09f8625 1000
hs medium 2004 2fe0fb70ff8cfee2 41029d07a4456615 1005
hs medium 2005 8c481e75b60286b8 41057db1a67211ab 1004
hs medium 2006 ee09839a86468ff1 4105ba4da593dafa 1001
hs medium 2007 173df2359789f4ea 4109f1e13866831c 1003
hs medium 2008 7878d443062200bd 4112d193176f0f02 1006
hs medium 2009 fe647ee68cd2828d 4114482a8facfa06 1006
hs medium 2010 2a7aca24c6236bbc 4115cc428a4f10ba 1005
hs medium 2011 5a0137e8757fa2b5 4109438335a98ae3 1000
hs medium 2012 246b199b780bbdcb 41236b283639c8e7 1000
hs medium 2013 292eadcca52f9548 410b102251234330 1003
hs medium 2014 7413fa0c05a28c2e 4101a1e365c1b25d 1002
hs large 3000 c71ffd2051c0b8d7 4111ac7c37de354e 1000
hs large 3001 170eb2672d5b852b 41113ec931ef5dd8 1002
hs large 3002 132666f10d9382ad 411150d522042d9c 1000
hs large 3003 f562185dc5de93f6 413371d1cffa84f7 1001
hs large 3004 bff26672025e09dc 4110074d87bc43b8 1002
hs large 3005 da2a64b4c364c497 412c478ec1c75063 1007
hs large 3006 b8f1045c0557a9cc 4132ae9fc4d65c5a 1002
hs large 3007 647373986bf50e45 411918b720a61676 1002
hs large 3008 7780092982a279bd 4133043850c9c960 1006
hs large 3009 e8134f534f9040f8 4113357513bc948a 1002
hsg small 1000 8a3dba5fc09f13e0 411d00c6b7063c3c 71
hsg small 1001 aa2b1d0809637723 41234bc4f1cd38e8 450
hsg small 1002 37b0ae9c41768f2a 40f63e3a960029b4 122
hsg small 1003 c5cfaa905367b346 40ef6d0633b5e804 95
hsg small 1004 4e35ba0bbd9c4465 40f0b2d3552d7d28 317
hsg small 1005 621dad583af7a5a5 40fd3064d519a47f 148
hsg small 1006 ebd0c1ece432645a 40f65dede1ff0331 284
hsg small 1007 1935cf1ee55959ac 40f76592169e4862 233
hsg small 1008 8c57412c2a65781f 411b1d5ccc0bee3e 77
hsg small 1009 2570d37b25cf3fb0 41103b9a046ad2be 107
hsg small 1010 ecd08f9329430dc4 4100546664f4c0cb 84
hsg small 1011 ddea07ab12b033e1 41035d93ef99c1b9 607
hsg small 1012 09672a9f32c2f24f 40ff7c22556d627c 324
hsg small 1013 e39cf7087e4c5a10 40f5d8f75d96cb0a 135
hsg small 1014 0ee5af4cfbe7c9e8 41008753ba58f3c5 92
hsg medium 2000 5fe8e997c89c2262 410841d5ab172c10 1001
hsg medium 2001 66a1e9f30420be66 41125f648704684a 1000
hsg medium 2002 15429f365d9d8d5c 410bbda470ee29f7 1002
hsg medium 2003 1c79714a3608b0aa 41224c1029a1734d 1002
hsg medium 2004 48930332959183ee 41025112f1c3cfcf 1003
hsg medium 2005 2b83fa3d188a69e7 4106ae1702a7e12f 1000
hsg medium 2006 ee09839a86468ff1 4105ba4da593dafa 847
hsg medium 2007 8fb4c1b7271e6460 410a01f2e1a546d2 835
hsg medium 2008 3dd7c7c9a839f7b3 410c9f91929f92cd 1004
hsg medium 2009 99aa86708202b7f1 41137e9c7cf4d768 1007
hsg medium 2010 9a65af07c5755500 4119d78d89a39515 1004
hsg medium 2011 9b566814a9080798 410836d64577917a 1002
hsg medium 2012 246b199b780bbdcb 41236b283639c8e7 805
hsg medium 2013 146b0dc707002b72 4106702feea29c29 1002
hsg medium 2014 89bf4c7855927e41 4101b33a5cda05a5 1000
hsg large 3000 60a15a409563055d 411126df5873c84e 1000
hsg large 3001 1890881b70041816 4110f57e1ec25b15 1004
hsg large 3002 364a3d8a52e96653 41113982d7ab9906 1000
hsg large 3003 eb673f669ed8de23 4133092416788e1a 1005
hsg large 3004 bdbd8523723f132b 410f808e60153957 1000
hsg large 3005 1ec742e9b1e296c0 41285a02621b46ef 1007
hsg large 3006 b57780842a817bac 41315e422425c6bb 1008
hsg large 3007 aab14bb31f9a7249 4118fe3bbbd74a13 1000
hsg large 3008 6bfa2b7c92c80512 4132dcc6be23fa04 1001
hsg large 3009 74b88341080ec08b 41117589211d4c6f 1006
sa small 1000 87783d378bd4841e 41292a2e00faca77 16
sa small 1001 e5da8d17c7df7853 41323af0a84ca4de 19
sa small 1002 52ac07ad717e9676 40fa22759c124426 19
sa small 1003 aebeb4a402fd7d5d 40f37e2f1de3f582 13
sa small 1004 a15aebef62623736 4101de0bab8498d0 16
sa small 1005 a040b0e420cbebd5 410398c4da345df6 10
sa small 1006 b162d606a59bfa82 40facb3cf22d1320 19
sa small 1007 2bff55cc034704b0 410f04e4a8a655de 18
sa small 1008 5512553eb8c0d4ee 411f56b51ce0566c 13
sa small 1009 5431df2bde1ede8c 41321ebb71ea2ef4 15
sa small 1010 4d40b654ae831567 410426afa3f81daf 15
sa small 1011 9601ccb34ee2863c 412aaf7ebbf79dc6 19
sa small 1012 f896218be425c6de 410b235d53a3ceca 15
sa small 1013 671aa63930804cee 4104b0a8b506aff3 19
sa small 1014 928a48bb0429dce8 41010c5b41723656 20
sa medium 2000 2279ba9280139ad1 41190b47f40f1f21 18
sa medium 2001 d1c2a1aade8f4c5d 411ea13b89d7a07a 20
sa medium 2002 55a2e180c9dacc1d 412d55682b8186f6 17
sa medium 2003 2b2d21b3bc0c4ea2 414310d848364656 15
sa medium 2004 811e51c92a54c480 411611146975e20f 13
sa medium 2005 8abea1b439ecd78c 4117f1478ded3121 17
sa medium 2006 adcc48bb129272c5 41144e8142c9fdfc 20
sa medium 2007 46cbc3eb4a022b35 4132730ea4c04585 18
sa medium 2008 e45fc5fae25728e0 4121daae412cc86b 18
sa medium 2009 48ed17d3367ce953 41304c73980d7c7e 14
sa medium 2010 1040d22604879113 4121b81d863ef84a 17
sa medium 2011 59fb357242e033aa 413159450c777f91 18
sa medium 2012 0adff8453404e414 412c08a68c15d18a 17
sa medium 2013 1b94543c1fafe557 412cbf80a1e5742c 16
sa medium 2014 db81f7f10c7beb7d 411d0588248c9008 17
sa large 3000 49840fd176caf6f5 4118b6683f0457e2 20
sa large 3001 10952e745795dc5d 4120570e0c2522c8 20
sa large 3002 1a57cbca0e9b1c4c 411f55c82d515a15 20
sa large 3003 2f6a6101ebbbbead 4144f2bfbce09470 20
sa large 3004 815527c2e8c8d9f5 412122b042acede3 20
sa large 3005 7c2ac1fecef2e375 4138e69925367ebe 16
sa large 3006 37dfe2f82935aa98 414526bb9f8136ff 16
sa large 3007 da464fe7a3e9e602 4122287b09b826d3 20
sa large 3008 343c5bf393213208 414407c1b64b4da2 20
sa large 3009 279e594875e0a9af 41350ee0fc26e459 19
es small 1000 6cbcd281d88d3e89 41242ba30ed6844c 300 | SWA(3,4) SWA(3,5) SWA(10,11)
es small 1001 f0b47b28f961ac57 41323093a37b5986 300 | SWA(5,6) SWA(5,7) SWA(12,13)
es small 1002 9a338a89c0e76386 40f9279fa0be363d 300 | SWA(3,4) SWA(2,4) SWA(9,10)
es small 1003 d0625ebf85c2254f 40f33b309f4c9556 300 | SWA(3,4) SWA(3,5) SWA(8,9) DIS(11,12)
es small 1004 6ac39822915b3f32 40fabd896ec3f09a 300 | SWA(11,12) SWA(10,12) SWA(9,12)
es small 1005 c36d3cdfc2886807 410155c1ee27e2e2 300 | SWA(5,6) SWA(4,6) SWA(3,6)
es small 1006 749117e0db011324 40fb62f14300aa46 300 | SWA(2,3) SWA(9,10) SWA(11,12)
es small 1007 0f6fa1886289fd6c 4105ee1e0b0d6816 300 | SWA(4,5) SWA(4,6) SWA(4,7)
es small 1008 7b22d62094124ad3 411e5f84867c767c 300 | SWA(5,6) SWA(4,6) SWA(10,11)
es small 1009 f4123464bcf3bd8e 41208cf4cfbcd446 300 | SWA(3,4) SWA(3,5) SWA(3,6)
es small 1010 f2a648d4417c4599 41038902206a1b7b 300 | SWA(9,10) SWA(8,10) SWA(11,12)
es small 1011 e1d6446fd875ae96 4126cc18e65ecc12 300 | SWA(3,4) SWA(5,6) SWA(14,15)
es small 1012 884215169320948e 410c8cc6db21fe98 300 | SWA(4,5) SWA(15,16) DIS(14,16)
es small 1013 e5d81098787191f8 410c36ad92853f2d 300 | SWA(3,4) SWA(3,5) SWA(9,10)
es small 1014 4a20861fa9df4a85 41016207f7af5be2 300 | SWA(2,3) SWA(4,5) SWA(2,5) SWA(3,5) SWA(8,9)
)";

}  // namespace
}  // namespace etlopt
