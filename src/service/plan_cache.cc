#include "service/plan_cache.h"

#include "io/text_format.h"

namespace etlopt {

namespace {

void HashBytes(uint64_t& h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV-64 prime
  }
  // Field separator so "ab"+"c" and "a"+"bc" hash differently.
  h ^= 0x1f;
  h *= 1099511628211ull;
}

}  // namespace

uint64_t HashRequestContext(std::string_view algorithm,
                            std::string_view model_fingerprint,
                            std::string_view options_fingerprint,
                            std::string_view merges_canonical) {
  uint64_t h = 1469598103934665603ull;  // FNV-64 offset basis
  HashBytes(h, algorithm);
  HashBytes(h, model_fingerprint);
  HashBytes(h, options_fingerprint);
  HashBytes(h, merges_canonical);
  return h;
}

uint64_t HashWorkflowForCache(const Workflow& workflow) {
  // SignatureHash() covers only the plabel tree — the workflow's SHAPE.
  // Two workflows with identical shape but different content (schemas,
  // cardinalities, functions) must not share a cache slot: they have
  // different optimal plans. The canonical text includes every field
  // that feeds the cost model, so hash that. Workflows with no text
  // form (merged chains — optimizer output, never a cacheable request)
  // fall back to the structural hash, domain-separated so a fallback
  // key can never alias a content key.
  TextFormatOptions text_options;
  text_options.emit_plabels = true;
  StatusOr<std::string> text = PrintWorkflowText(workflow, text_options);
  uint64_t h = 1469598103934665603ull;  // FNV-64 offset basis
  if (text.ok()) {
    HashBytes(h, "wf-text");
    HashBytes(h, *text);
    return h;
  }
  uint64_t structural = 0;
  if (workflow.fresh()) {
    structural = workflow.SignatureHash();
  } else {
    Workflow copy = workflow;
    if (copy.Refresh().ok()) structural = copy.SignatureHash();
  }
  HashBytes(h, "wf-shape");
  HashBytes(h, std::string_view(reinterpret_cast<const char*>(&structural),
                                sizeof(structural)));
  return h;
}

StatusOr<PlanCacheKey> MakePlanCacheKey(
    const Workflow& workflow, SearchAlgorithm algorithm,
    const CostModel& model, const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints) {
  PlanCacheKey key;
  key.workflow_hash = HashWorkflowForCache(workflow);
  key.context_hash = HashRequestContext(
      SearchAlgorithmToString(algorithm), model.Fingerprint(),
      ResultFingerprint(options),
      CanonicalMergeConstraints(merge_constraints));
  return key;
}

StatusOr<std::shared_ptr<const CachedPlan>> PlanCache::GetOrCompute(
    const PlanCacheKey& key,
    const std::function<StatusOr<std::shared_ptr<const CachedPlan>>()>&
        compute,
    bool* cache_hit, bool* coalesced) {
  AcquireResult got = Acquire(key, /*may_wait=*/true);
  if (cache_hit != nullptr) {
    *cache_hit = got.kind == Outcome::kHit && !got.coalesced;
  }
  if (coalesced != nullptr) *coalesced = got.coalesced;
  if (got.kind == Outcome::kHit) return got.value;
  // A waiter is only woken empty-handed by a failed search: every abort
  // below carries the compute's error.
  if (got.kind == Outcome::kBusy) return got.status;
  StatusOr<std::shared_ptr<const CachedPlan>> result = compute();
  if (result.ok()) {
    Publish(key, result.value());
  } else {
    Abort(key, result.status());
  }
  return result;
}

}  // namespace etlopt
