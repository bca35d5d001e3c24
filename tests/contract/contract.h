// The one comparison of the correctness contract (DESIGN.md, "Correctness
// contract"): a run of any engine, at any tuning and under any fault
// schedule, either fails with a clean Status or loads the same bytes as
// the serial reference. Rows are compared in their record_io encoding,
// so -0.0, NaN and every cell type compare by bit pattern, not by
// Value's operator== (under which NaN never equals itself).

#ifndef ETLOPT_TESTS_CONTRACT_CONTRACT_H_
#define ETLOPT_TESTS_CONTRACT_CONTRACT_H_

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "engine/executor.h"
#include "records/record_io.h"

namespace etlopt {

/// How a run's target rows are held to the reference.
enum class Order {
  /// Same rows in the same order: the serial and vectorized engines, the
  /// recoverable executor and the result cache.
  kExact,
  /// Same rows per target as a multiset: the stream, whose micro-batch
  /// interleaving may reorder a union's rows. rows_out stays exact.
  kMultiset,
};

/// OK, the same targets, the same rows per target (under `order`) and
/// the same rows_out as `reference`. The failure message names the first
/// difference.
inline ::testing::AssertionResult SameRun(
    const ExecutionResult& reference, const StatusOr<ExecutionResult>& got,
    Order order = Order::kExact) {
  if (!got.ok()) {
    return ::testing::AssertionFailure()
           << "run failed: " << got.status().ToString();
  }
  std::set<std::string> names;
  for (const auto& [name, rows] : reference.target_data) names.insert(name);
  for (const auto& [name, rows] : got->target_data) names.insert(name);
  for (const std::string& name : names) {
    auto want = reference.target_data.find(name);
    auto have = got->target_data.find(name);
    if (want == reference.target_data.end() ||
        have == got->target_data.end()) {
      return ::testing::AssertionFailure()
             << "target " << name << " is "
             << (have == got->target_data.end() ? "missing" : "unexpected");
    }
    auto encode = [order](const std::vector<Record>& rows) {
      std::vector<std::string> out(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) PutRecord(out[i], rows[i]);
      if (order == Order::kMultiset) std::sort(out.begin(), out.end());
      return out;
    };
    const std::vector<std::string> a = encode(want->second);
    const std::vector<std::string> b = encode(have->second);
    if (a.size() != b.size()) {
      return ::testing::AssertionFailure()
             << "target " << name << ": " << b.size() << " rows, want "
             << a.size();
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] == b[i]) continue;
      if (order == Order::kMultiset) {
        return ::testing::AssertionFailure()
               << "target " << name << ": rows differ as a multiset";
      }
      return ::testing::AssertionFailure()
             << "target " << name << " row " << i << ": "
             << have->second[i].ToString() << ", want "
             << want->second[i].ToString();
    }
  }
  for (const auto& [node, count] : reference.rows_out) {
    auto it = got->rows_out.find(node);
    if (it == got->rows_out.end() || it->second != count) {
      return ::testing::AssertionFailure()
             << "rows_out of node " << node << ": "
             << (it == got->rows_out.end() ? std::string("missing")
                                           : std::to_string(it->second))
             << ", want " << count;
    }
  }
  if (got->rows_out.size() != reference.rows_out.size()) {
    return ::testing::AssertionFailure() << "rows_out names extra nodes";
  }
  return ::testing::AssertionSuccess();
}

/// FNV-64 over every target's name and rows (record_io encoding, in
/// emitted order) and over rows_out: one number per run for goldens.
inline uint64_t RunDigest(const ExecutionResult& r) {
  uint64_t h = kFnv1aBasis;
  std::string buf;
  for (const auto& [name, rows] : r.target_data) {
    PutString(buf, name);
    PutRecords(buf, rows);
    h = Fnv1a64(buf, h);
    buf.clear();
  }
  for (const auto& [node, count] : r.rows_out) {
    PutU32(buf, static_cast<uint32_t>(node));
    PutU64(buf, count);
  }
  return Fnv1a64(buf, h);
}

/// A fresh, empty path under the temp directory, unique per process and
/// call, for checkpoint directories.
inline std::string ScratchDir(const std::string& tag) {
  static int counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("etlopt_" + tag + "_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace etlopt

#endif  // ETLOPT_TESTS_CONTRACT_CONTRACT_H_
