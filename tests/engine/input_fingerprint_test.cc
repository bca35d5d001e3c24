// Input fingerprints: the content fingerprints the shared result cache
// reads (SourceTable::Fingerprint, LookupTable::Fingerprint), the
// ExecutionInputFingerprint the checkpoint keys read, and the signature
// walk that asks for them. Each source and lookup table caches its
// values beside its storage; these cells pin that every mutator drops
// them, that copies share them, that the walk asks once per name, and
// that no value moved when the caches went in.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "engine/recovery.h"
#include "graph/subgraph_signature.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace etlopt {
namespace {

Record Row(int64_t k, const std::string& s) {
  return Record({Value::Int(k), Value::String(s)});
}

std::vector<Record> Rows(int64_t n) {
  std::vector<Record> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Row(i, "r" + std::to_string(i)));
  }
  return rows;
}

void Fill(LookupTable& table, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    table.emplace(std::vector<Value>{Value::Int(i), Value::String("k")},
                  Value::Int(100 + i));
  }
}

LookupTable Lookup(int64_t n) {
  LookupTable table;
  Fill(table, n);
  return table;
}

ExecutionInput Input(std::vector<Record> rows, LookupTable lookup) {
  ExecutionInput input;
  input.source_data["S"] = std::move(rows);
  input.source_data["T"] = Rows(2);
  input.context.lookups["L"] = std::move(lookup);
  return input;
}

// The input every mutation starts from, equal to Input(Rows(5),
// Lookup(3)) but built in place, so each of its tables is held by it
// alone and a mutator takes the path that drops cached values in place
// (the copy-on-write path is the copies test's).
ExecutionInput Base() {
  ExecutionInput input;
  input.source_data["S"] = Rows(5);
  input.source_data["T"] = Rows(2);
  Fill(input.context.lookups["L"], 3);
  return input;
}

// Both keys of `input`, read through its caches.
struct Keys {
  uint64_t source = 0;  // SourceTable::Fingerprint of "S"
  uint64_t lookup = 0;  // LookupTable::Fingerprint of "L" (0 if absent)
  uint64_t input = 0;   // ExecutionInputFingerprint

  bool operator==(const Keys&) const = default;
};

Keys KeysOf(const ExecutionInput& input) {
  Keys keys;
  keys.source = input.source_data.at("S").Fingerprint();
  auto it = input.context.lookups.find("L");
  if (it != input.context.lookups.end()) {
    keys.lookup = it->second.Fingerprint();
  }
  keys.input = ExecutionInputFingerprint(input);
  return keys;
}

// Fingerprints `input` (filling its caches), applies `mutate`, and
// checks the keys now equal those of `fresh` — an input built with the
// mutated content that has never been fingerprinted — and that the input
// key differs from the one before, as does the `changed` content key
// when the mutation edits a table rather than the map of tables.
void ExpectMutationSeen(ExecutionInput&& input,
                        const std::function<void(ExecutionInput&)>& mutate,
                        const ExecutionInput& fresh,
                        uint64_t Keys::*changed = nullptr) {
  const Keys before = KeysOf(input);
  mutate(input);
  const Keys after = KeysOf(input);
  const Keys expected = KeysOf(fresh);
  EXPECT_EQ(after.source, expected.source);
  EXPECT_EQ(after.lookup, expected.lookup);
  EXPECT_EQ(after.input, expected.input);
  EXPECT_NE(after.input, before.input);
  if (changed != nullptr) {
    EXPECT_NE(after.*changed, before.*changed);
  }
}

TEST(InputFingerprintCacheTest, EverySourceMutatorIsSeen) {
  {
    SCOPED_TRACE("push_back");
    ExpectMutationSeen(
        Base(),
        [](ExecutionInput& in) { in.source_data["S"].push_back(Row(9, "x")); },
        [] {
          auto rows = Rows(5);
          rows.push_back(Row(9, "x"));
          return Input(rows, Lookup(3));
        }(),
        &Keys::source);
  }
  {
    SCOPED_TRACE("emplace_back");
    ExpectMutationSeen(
        Base(),
        [](ExecutionInput& in) {
          in.source_data["S"].emplace_back(
              std::vector<Value>{Value::Int(9), Value::String("x")});
        },
        [] {
          auto rows = Rows(5);
          rows.push_back(Row(9, "x"));
          return Input(rows, Lookup(3));
        }(),
        &Keys::source);
  }
  {
    SCOPED_TRACE("assign");
    ExpectMutationSeen(
        Base(),
        [](ExecutionInput& in) {
          const auto rows = Rows(3);
          in.source_data["S"].assign(rows.begin(), rows.end());
        },
        Input(Rows(3), Lookup(3)),
        &Keys::source);
  }
  {
    SCOPED_TRACE("whole-table assignment");
    ExpectMutationSeen(
        Base(), [](ExecutionInput& in) { in.source_data["S"] = Rows(4); },
        Input(Rows(4), Lookup(3)),
        &Keys::source);
  }
  {
    SCOPED_TRACE("element write");
    ExpectMutationSeen(
        Base(),
        [](ExecutionInput& in) { in.source_data["S"][2] = Row(2, "changed"); },
        [] {
          auto rows = Rows(5);
          rows[2] = Row(2, "changed");
          return Input(rows, Lookup(3));
        }(),
        &Keys::source);
  }
  {
    SCOPED_TRACE("cell write through an element");
    ExpectMutationSeen(
        Base(),
        [](ExecutionInput& in) {
          in.source_data["S"][0].value(0) = Value::Int(-1);
        },
        [] {
          auto rows = Rows(5);
          rows[0].value(0) = Value::Int(-1);
          return Input(rows, Lookup(3));
        }(),
        &Keys::source);
  }
  {
    SCOPED_TRACE("clear");
    ExpectMutationSeen(
        Base(), [](ExecutionInput& in) { in.source_data["S"].clear(); },
        Input({}, Lookup(3)),
        &Keys::source);
  }
}

TEST(InputFingerprintCacheTest, SourceMapInsertAndEraseAreSeen) {
  {
    SCOPED_TRACE("insert");
    ExecutionInput fresh = Input(Rows(5), Lookup(3));
    fresh.source_data.emplace("U", Rows(1));
    ExpectMutationSeen(
        Base(),
        [](ExecutionInput& in) { in.source_data.emplace("U", Rows(1)); },
        fresh);
  }
  {
    SCOPED_TRACE("erase");
    ExecutionInput fresh = Input(Rows(5), Lookup(3));
    fresh.source_data.erase("T");
    ExpectMutationSeen(
        Base(), [](ExecutionInput& in) { in.source_data.erase("T"); }, fresh);
  }
  {
    SCOPED_TRACE("lookup insert");
    ExecutionInput fresh = Input(Rows(5), Lookup(3));
    fresh.context.lookups["M"] = Lookup(1);
    ExpectMutationSeen(
        Base(),
        [](ExecutionInput& in) {
          in.context.lookups.emplace("M", Lookup(1));
        },
        fresh);
  }
  {
    SCOPED_TRACE("lookup erase");
    ExecutionInput fresh = Input(Rows(5), Lookup(3));
    fresh.context.lookups.erase("L");
    ExpectMutationSeen(
        Base(), [](ExecutionInput& in) { in.context.lookups.erase("L"); },
        fresh);
  }
}

TEST(InputFingerprintCacheTest, EveryLookupMutatorIsSeen) {
  {
    SCOPED_TRACE("emplace");
    ExpectMutationSeen(
        Base(),
        [](ExecutionInput& in) {
          in.context.lookups["L"].emplace(
              std::vector<Value>{Value::Int(3), Value::String("k")},
              Value::Int(103));
        },
        Input(Rows(5), Lookup(4)),
        &Keys::lookup);
  }
  {
    SCOPED_TRACE("operator[] write");
    ExpectMutationSeen(
        Base(),
        [](ExecutionInput& in) {
          in.context.lookups["L"][{Value::Int(0), Value::String("k")}] =
              Value::Int(7);
        },
        [] {
          LookupTable table = Lookup(3);
          table[{Value::Int(0), Value::String("k")}] = Value::Int(7);
          return Input(Rows(5), table);
        }(),
        &Keys::lookup);
  }
  {
    SCOPED_TRACE("clear");
    ExpectMutationSeen(
        Base(), [](ExecutionInput& in) { in.context.lookups["L"].clear(); },
        Input(Rows(5), LookupTable()),
        &Keys::lookup);
  }
}

TEST(InputFingerprintCacheTest, CopiesShareCachesAndDivergeAfterTheirOwnMutation) {
  ExecutionInput a = Input(Rows(5), Lookup(3));
  // A write through a reference a mutator returned, made after the
  // table was fingerprinted, is not seen by the cached values (the
  // documented caveat). It makes the cache observable: a copy that
  // answers with the stale value read the cache it shares.
  Record& stale_row = a.source_data["S"][0];
  Value& stale_id = a.context.lookups["L"][{Value::Int(0), Value::String("k")}];
  const Keys cached = KeysOf(a);
  stale_row = Row(0, "unseen");
  stale_id = Value::Int(-1);

  ExecutionInput b = a;
  EXPECT_EQ(&b.source_data.at("S").rows(), &a.source_data.at("S").rows());
  EXPECT_EQ(&b.context.lookups.at("L").entries(),
            &a.context.lookups.at("L").entries());
  EXPECT_EQ(KeysOf(b), cached);

  // b's own mutation copies b's storage; a keeps its storage and values.
  b.source_data["S"].push_back(Row(9, "x"));
  b.context.lookups["L"].emplace(
      std::vector<Value>{Value::Int(3), Value::String("k")}, Value::Int(103));
  EXPECT_NE(&b.source_data.at("S").rows(), &a.source_data.at("S").rows());
  EXPECT_NE(&b.context.lookups.at("L").entries(),
            &a.context.lookups.at("L").entries());
  EXPECT_EQ(KeysOf(a), cached);

  ExecutionInput fresh_b = Input(Rows(5), Lookup(3));
  fresh_b.source_data["S"][0] = Row(0, "unseen");
  fresh_b.source_data["S"].push_back(Row(9, "x"));
  fresh_b.context.lookups["L"][{Value::Int(0), Value::String("k")}] =
      Value::Int(-1);
  fresh_b.context.lookups["L"].emplace(
      std::vector<Value>{Value::Int(3), Value::String("k")}, Value::Int(103));
  EXPECT_EQ(KeysOf(b), KeysOf(fresh_b));
  EXPECT_NE(KeysOf(b), cached);
}

// One cached segment of ExecutionInputFingerprint answers only for the
// FNV state it continued from: the same table behind a different prefix
// is hashed again, and the value is that of a fresh input.
TEST(InputFingerprintCacheTest, SharedTableBehindAnotherPrefixIsRehashed) {
  ExecutionInput a = Input(Rows(5), Lookup(3));
  const uint64_t a_key = ExecutionInputFingerprint(a);
  ExecutionInput b;
  b.source_data["A"] = Rows(1);
  b.source_data["S"] = a.source_data.at("S");  // shares storage with a
  ExecutionInput fresh_b;
  fresh_b.source_data["A"] = Rows(1);
  fresh_b.source_data["S"] = Rows(5);
  EXPECT_EQ(ExecutionInputFingerprint(b), ExecutionInputFingerprint(fresh_b));
  EXPECT_EQ(ExecutionInputFingerprint(a), a_key);
}

struct CallCounts {
  std::map<std::string, int> sources;
  std::map<std::string, int> lookups;
};

SubgraphSignatureInputs CountingInputs(const ExecutionInput& input,
                                       CallCounts& counts) {
  SubgraphSignatureInputs in;
  in.source_fingerprint = [&input, &counts](const std::string& name) {
    ++counts.sources[name];
    return input.source_data.at(name).Fingerprint();
  };
  in.lookup_fingerprint = [&input, &counts](const std::string& name) {
    ++counts.lookups[name];
    return input.context.lookups.at(name).Fingerprint();
  };
  return in;
}

TEST(InputFingerprintCacheTest, SignatureWalkAsksEachNameOnce) {
  // Fig. 4: two flows, each with a surrogate key on the same table.
  StatusOr<Fig4Scenario> fig4 = BuildFig4Scenario();
  ASSERT_TRUE(fig4.ok());
  const ExecutionInput fig4_input = MakeFig4Input(5, 100);
  CallCounts counts;
  AllSubgraphResultSignatures(fig4->workflow,
                              CountingInputs(fig4_input, counts));
  EXPECT_EQ(counts.sources,
            (std::map<std::string, int>{{"R1", 1}, {"R2", 1}}));
  EXPECT_EQ(counts.lookups, (std::map<std::string, int>{{"parts_lut", 1}}));

  // A medium overlap workflow, whose four sources lie in 62 cones.
  GeneratorOptions gen;
  gen.category = WorkloadCategory::kMedium;
  gen.seed = 7000;
  gen.backbone_overlap = 0.5;
  StatusOr<GeneratedWorkflow> g = GenerateWorkflow(gen);
  ASSERT_TRUE(g.ok());
  const ExecutionInput input = GenerateInputFor(g->workflow, 11, 50);
  counts = {};
  AllSubgraphResultSignatures(g->workflow, CountingInputs(input, counts));
  ASSERT_EQ(counts.sources.size(), input.source_data.size());
  for (const auto& [name, calls] : counts.sources) EXPECT_EQ(calls, 1) << name;

  counts = {};
  const NodeId root = g->workflow.TargetRecordSets().front();
  SubgraphResultSignature(g->workflow, root, CountingInputs(input, counts));
  for (const auto& [name, calls] : counts.sources) EXPECT_EQ(calls, 1) << name;
}

SubgraphSignatureInputs CachedInputs(const ExecutionInput& input) {
  SubgraphSignatureInputs in;
  in.source_fingerprint = [&input](const std::string& name) {
    return input.source_data.at(name).Fingerprint();
  };
  in.lookup_fingerprint = [&input](const std::string& name) {
    return input.context.lookups.at(name).Fingerprint();
  };
  return in;
}

// Computed before the caches and the per-name walk went in, with the
// shared result cache's own fingerprint callbacks of that time.
TEST(InputFingerprintCacheTest, SignaturesAndKeysArePinned) {
  StatusOr<Fig4Scenario> fig4 = BuildFig4Scenario();
  ASSERT_TRUE(fig4.ok());
  const ExecutionInput fig4_input = MakeFig4Input(5, 100);
  EXPECT_EQ(fig4_input.source_data.at("R1").Fingerprint(),
            0xc10a3db0867d7a6full);
  EXPECT_EQ(fig4_input.source_data.at("R2").Fingerprint(),
            0x1a5a7c5d868940a6ull);
  EXPECT_EQ(fig4_input.context.lookups.at("parts_lut").Fingerprint(),
            0x4f1bdf542829c042ull);
  EXPECT_EQ(ExecutionInputFingerprint(fig4_input), 0x033a483a5b8d77eaull);
  EXPECT_EQ(AllSubgraphResultSignatures(fig4->workflow,
                                        CachedInputs(fig4_input)),
            (std::vector<uint64_t>{
                0x0000000000000000ull, 0xc337d08732941733ull,
                0x9f5ba08153ff4957ull, 0x3b15608ea023a1baull,
                0xd275e567217e2d4eull, 0xfbce2c9116e31837ull,
                0x807f11e89896344cull, 0x16b52db048a287ceull}));

  GeneratorOptions gen;
  gen.seed = 7000;
  gen.backbone_overlap = 0.5;
  StatusOr<GeneratedWorkflow> g = GenerateWorkflow(gen);
  ASSERT_TRUE(g.ok());
  InputGenOptions igen;
  igen.rows_per_source = 200;
  igen.key_domain = 50;
  const ExecutionInput input = GenerateInputFor(g->workflow, 11, igen);
  EXPECT_EQ(ExecutionInputFingerprint(input), 0x48cbce1cdf50b1a1ull);
  EXPECT_EQ(AllSubgraphResultSignatures(g->workflow, CachedInputs(input)),
            (std::vector<uint64_t>{
                0x0000000000000000ull, 0x546514c4e3fdc958ull,
                0x26833e34119d98efull, 0xbb1006ec27b54b81ull,
                0x9a593d19db399dafull, 0xd513be8d4195ba6bull,
                0x071b02b5be75a53full, 0x722fd2fca594ff18ull,
                0xd9bc255912f3dcc7ull, 0x92911148793cf1faull,
                0x71964c6488e92c7eull, 0x35eb51e084f5008aull,
                0x082555044157e934ull, 0x3a62ed96a73ad61aull,
                0x6ecd3cfd68d31224ull, 0x84bcbf6c2f6b3b57ull,
                0x76dc164fd1f0956bull, 0x5c4ed15f7e5f5acbull,
                0x49faaa35b79eb9f6ull, 0x865fa9652468fc38ull}));
}

// Four threads fingerprint one const, never-fingerprinted input at once:
// each value is computed under its storage's lock and every thread reads
// the same result. Run under TSan in CI.
TEST(InputFingerprintCacheTest, ConcurrentReadersOfOneConstInput) {
  const ExecutionInput reference = Input(Rows(2000), Lookup(500));
  const Keys expected = KeysOf(reference);
  const ExecutionInput input = Input(Rows(2000), Lookup(500));
  std::vector<Keys> seen(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&input, &seen, t] {
      for (int i = 0; i < 3; ++i) seen[t] = KeysOf(input);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Keys& keys : seen) EXPECT_EQ(keys, expected);
}

}  // namespace
}  // namespace etlopt
