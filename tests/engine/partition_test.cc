// How the parallel (vectorized) engine cuts and partitions rows: sources
// are cut into batches by MakeMorsels, and the blocking kernels route each
// row to the hash partition `KeyHashes[row] % num_partitions`
// (src/columnar/kernels.h). Partition ownership is observed through
// kernels::JoinBuildPartition, which returns exactly the rows a partition
// owns (NULL-free keys here), grouped by key in flow order.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "activity/binding.h"
#include "columnar/kernels.h"
#include "columnar/record_batch.h"
#include "engine/thread_pool.h"

namespace etlopt {
namespace {

Schema TestSchema() {
  return Schema::MakeOrDie({{"K", DataType::kInt64},
                            {"G", DataType::kString},
                            {"V", DataType::kDouble}});
}

std::vector<Record> TestRows(size_t n) {
  std::vector<Record> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Record({Value::Int(static_cast<int64_t>(i % 17)),
                           Value::String("g" + std::to_string(i % 5)),
                           Value::Double(static_cast<double>(i))}));
  }
  return rows;
}

// The partition owning each row, by global row index, as the kernels
// route it. Every row must be owned exactly once.
std::vector<size_t> Owners(const std::vector<RecordBatch>& batches,
                           const std::vector<size_t>& key_cols, size_t parts) {
  std::vector<size_t> first_row(batches.size(), 0);
  size_t total = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    first_row[b] = total;
    total += batches[b].num_rows();
  }
  std::vector<size_t> owner(total, parts);
  for (size_t p = 0; p < parts; ++p) {
    for (const auto& [key, refs] :
         kernels::JoinBuildPartition(batches, key_cols, p, parts)) {
      for (const kernels::BatchRef& ref : refs) {
        size_t row = first_row[ref.batch] + ref.row;
        EXPECT_EQ(owner[row], parts) << "row " << row << " in two partitions";
        owner[row] = p;
      }
    }
  }
  return owner;
}

TEST(PartitionTest, MakeMorselsCoversRange) {
  auto morsels = MakeMorsels(10, 3);
  ASSERT_EQ(morsels.size(), 4u);
  EXPECT_EQ(morsels[0].begin, 0u);
  EXPECT_EQ(morsels[3].end, 10u);
  size_t total = 0;
  for (const auto& m : morsels) total += m.size();
  EXPECT_EQ(total, 10u);
  EXPECT_TRUE(MakeMorsels(0, 3).empty());
  // Zero morsel size clamps rather than loops forever.
  EXPECT_EQ(MakeMorsels(2, 0).size(), 2u);
}

TEST(PartitionTest, HashPartitionCoversAllRowsDisjointly) {
  std::vector<Record> rows = TestRows(1000);
  std::vector<size_t> owner =
      Owners(BatchRows(TestSchema(), rows, 64), {0}, 8);
  ASSERT_EQ(owner.size(), rows.size());
  std::set<size_t> used;
  for (size_t p : owner) {
    ASSERT_LT(p, 8u) << "a row no partition owns";
    used.insert(p);
  }
  EXPECT_GT(used.size(), 1u) << "17 keys all routed to one partition";
}

TEST(PartitionTest, EqualKeysLandInSamePartition) {
  std::vector<Record> rows = TestRows(1000);
  std::vector<size_t> owner =
      Owners(BatchRows(TestSchema(), rows, 64), {0}, 8);
  // All rows with the same K value must share a partition, across batch
  // boundaries.
  std::map<int64_t, size_t> home;
  for (size_t i = 0; i < rows.size(); ++i) {
    int64_t k = rows[i].value(0).int_value();
    auto [it, inserted] = home.emplace(k, owner[i]);
    EXPECT_EQ(it->second, owner[i])
        << "key " << k << " split across partitions";
  }
}

TEST(PartitionTest, IndicesAscendWithinEachPartition) {
  // A partition scans batches in flow order, so each key's rows come out
  // in input order: keep-first, accumulation and join emit order rest on
  // it.
  std::vector<RecordBatch> batches =
      BatchRows(TestSchema(), TestRows(5000), 128);
  for (size_t p = 0; p < 7; ++p) {
    for (const auto& [key, refs] :
         kernels::JoinBuildPartition(batches, {1}, p, 7)) {
      for (size_t j = 1; j < refs.size(); ++j) {
        ASSERT_TRUE(refs[j - 1].batch < refs[j].batch ||
                    (refs[j - 1].batch == refs[j].batch &&
                     refs[j - 1].row < refs[j].row))
            << "partition order not ascending";
      }
    }
  }
}

TEST(PartitionTest, DeterministicAcrossThreadCountsAndRuns) {
  // The engine fills the key-hash caches with one pool task per batch;
  // the routing must not depend on the worker count or the run.
  std::vector<Record> rows = TestRows(2000);
  const std::vector<size_t> key_cols = {0, 1};
  std::vector<size_t> reference;
  for (size_t threads : {1u, 2u, 8u}) {
    for (int run = 0; run < 2; ++run) {
      std::vector<RecordBatch> batches = BatchRows(TestSchema(), rows, 97);
      ThreadPool pool(threads);
      ASSERT_TRUE(pool.ParallelFor(batches.size(), [&](size_t b, size_t) {
                        batches[b].KeyHashes(key_cols);
                        return Status::OK();
                      }).ok());
      std::vector<size_t> owner = Owners(batches, key_cols, 16);
      if (reference.empty()) {
        reference = owner;
      } else {
        EXPECT_EQ(reference, owner) << "threads=" << threads;
      }
    }
  }
}

TEST(PartitionTest, WholeRecordPartitioningGroupsDuplicates) {
  // A key over every column (a PK check on all attributes) colocates
  // duplicate records.
  std::vector<Record> rows;
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 50; ++i) {
      rows.push_back(Record({Value::Int(i), Value::String("x"),
                             Value::Double(1.0)}));
    }
  }
  std::vector<size_t> owner =
      Owners(BatchRows(TestSchema(), rows, 32), {0, 1, 2}, 4);
  // Duplicate records (i, i+50, i+100) must colocate.
  std::map<int64_t, size_t> home;
  for (size_t i = 0; i < rows.size(); ++i) {
    int64_t k = rows[i].value(0).int_value();
    auto [it, inserted] = home.emplace(k, owner[i]);
    EXPECT_EQ(it->second, owner[i]);
  }
}

TEST(PartitionTest, ProbeSideHashMatchesBuildSidePartitions) {
  // A probe batch laid out differently (the key in another column) must
  // route a key to the partition the build side chose — the join probe
  // looks the key up only in that shard.
  std::vector<Record> rows = TestRows(500);
  std::vector<RecordBatch> build = BatchRows(TestSchema(), rows, 64);
  std::vector<size_t> owner = Owners(build, {0}, 8);
  Schema probe_schema = Schema::MakeOrDie({{"V", DataType::kDouble},
                                           {"K", DataType::kInt64}});
  std::vector<Record> probe_rows;
  for (const Record& r : rows) {
    probe_rows.push_back(Record({r.value(2), r.value(0)}));
  }
  std::vector<RecordBatch> probe = BatchRows(probe_schema, probe_rows, 50);
  size_t i = 0;
  for (const RecordBatch& batch : probe) {
    const std::vector<uint64_t>& hashes = batch.KeyHashes({1});
    for (size_t r = 0; r < batch.num_rows(); ++r, ++i) {
      EXPECT_EQ(hashes[r] % 8, owner[i]) << "row " << i;
    }
  }
  EXPECT_EQ(i, rows.size());
}

TEST(PartitionTest, MissingKeyAttributeFails) {
  // Exchange keys are resolved by name before any row is routed.
  EXPECT_FALSE(AttrIndices(TestSchema(), {"NOPE"}).ok());
  EXPECT_FALSE(AttrIndices(TestSchema(), {"K", "NOPE"}).ok());
}

}  // namespace
}  // namespace etlopt
