#include "engine/executor.h"

#include "activity/binding.h"
#include "common/macros.h"
#include "engine/node_driver.h"
#include "engine/shared_cache_exec.h"

namespace etlopt {

StatusOr<std::vector<Record>> RealignRecords(std::vector<Record> rows,
                                             const Schema& from,
                                             const Schema& to) {
  if (from == to) return rows;
  ETLOPT_ASSIGN_OR_RETURN(std::vector<size_t> mapping,
                          ColumnMapping(from, to));
  for (auto& r : rows) r = Realign(std::move(r), mapping);
  return rows;
}

StatusOr<ExecutionResult> ExecuteWorkflow(const Workflow& workflow,
                                          const ExecutionInput& input) {
  return ExecuteWorkflow(workflow, input, CacheOptions{});
}

StatusOr<ExecutionResult> ExecuteWorkflow(const Workflow& workflow,
                                          const ExecutionInput& input,
                                          const CacheOptions& cache_options) {
  ETLOPT_RETURN_NOT_OK(RequireFresh(workflow));
  CachePlan plan(workflow, input, cache_options);
  SerialStrategy strategy(input.context);
  return DriveNodes(workflow, input, strategy, plan);
}

Status ExecuteWorkflowInto(const Workflow& workflow,
                           const ExecutionInput& input,
                           const std::map<std::string, RecordSet*>& targets) {
  ETLOPT_ASSIGN_OR_RETURN(ExecutionResult result,
                          ExecuteWorkflow(workflow, input));
  for (const auto& [name, rows] : result.target_data) {
    auto it = targets.find(name);
    if (it == targets.end()) continue;
    RecordSet* rs = it->second;
    ETLOPT_RETURN_NOT_OK(rs->Truncate());
    for (const auto& r : rows) {
      ETLOPT_RETURN_NOT_OK(rs->Append(r));
    }
  }
  return Status::OK();
}

StatusOr<bool> ProduceSameOutput(const Workflow& a, const Workflow& b,
                                 const ExecutionInput& input) {
  ETLOPT_ASSIGN_OR_RETURN(ExecutionResult ra, ExecuteWorkflow(a, input));
  ETLOPT_ASSIGN_OR_RETURN(ExecutionResult rb, ExecuteWorkflow(b, input));
  if (ra.target_data.size() != rb.target_data.size()) return false;
  for (const auto& [name, rows] : ra.target_data) {
    auto it = rb.target_data.find(name);
    if (it == rb.target_data.end()) return false;
    if (!SameRecordMultiset(rows, it->second)) return false;
  }
  return true;
}

}  // namespace etlopt
