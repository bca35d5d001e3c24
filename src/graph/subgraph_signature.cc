#include "graph/subgraph_signature.h"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>

#include "activity/activity.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

// Domain-separation salt: bump when the fold layout changes, so stale
// persisted/cross-version signatures can never alias fresh ones.
constexpr uint64_t kSubgraphSigSalt = 0x5347534947763101ull;  // "SGSIGv1" ~

inline uint64_t FoldU64(uint64_t h, uint64_t v) { return Fnv1a64U64(v, h); }

inline uint64_t FoldByte(uint64_t h, unsigned char b) {
  return (h ^ b) * 1099511628211ull;
}

inline uint64_t FoldString(uint64_t h, std::string_view s) {
  h = FoldU64(h, s.size());
  return Fnv1a64(s, h);
}

uint64_t FoldSchema(uint64_t h, const Schema& schema) {
  h = FoldU64(h, schema.size());
  for (const Attribute& a : schema.attributes()) {
    h = FoldString(h, a.name);
    h = FoldByte(h, static_cast<unsigned char>(a.type));
  }
  return h;
}

// Port-ordered provider index for the whole workflow, built in one edge
// pass (Providers() is an O(E) scan per call — too slow inside a DFS).
std::vector<std::vector<NodeId>> BuildProviderIndex(const Workflow& w) {
  size_t slots = 1;
  for (NodeId id : w.NodeIds()) {
    slots = std::max(slots, static_cast<size_t>(id) + 1);
  }
  std::vector<std::vector<std::pair<int, NodeId>>> by_port(slots);
  for (const WorkflowEdge& e : w.edges()) {
    by_port[e.to].push_back({e.port, e.from});
  }
  std::vector<std::vector<NodeId>> out(slots);
  for (size_t i = 0; i < slots; ++i) {
    std::sort(by_port[i].begin(), by_port[i].end());
    out[i].reserve(by_port[i].size());
    for (const auto& [port, from] : by_port[i]) out[i].push_back(from);
  }
  return out;
}

// The bound inputs' fingerprints by name, each asked of its callback at
// most once per signature call: a source or lookup table lies in the cone
// of every node below it, and a callback may hash every row it names.
class FingerprintMemo {
 public:
  explicit FingerprintMemo(const SubgraphSignatureInputs& inputs)
      : inputs_(inputs) {}

  uint64_t Source(const std::string& name) {
    return Get(sources_, inputs_.source_fingerprint, name);
  }
  uint64_t Lookup(const std::string& name) {
    return Get(lookups_, inputs_.lookup_fingerprint, name);
  }

 private:
  using Callback = std::function<uint64_t(const std::string&)>;

  // A null callback folds the name itself.
  static uint64_t Get(std::unordered_map<std::string, uint64_t>& memo,
                      const Callback& callback, const std::string& name) {
    auto [it, inserted] = memo.try_emplace(name, 0);
    if (inserted) it->second = callback ? callback(name) : Fnv1a64(name);
    return it->second;
  }

  const SubgraphSignatureInputs& inputs_;
  std::unordered_map<std::string, uint64_t> sources_;
  std::unordered_map<std::string, uint64_t> lookups_;
};

// One root's DFS: threads the running hash through a canonical pre-order
// walk, folding structure (first-visit indices, back-references, port
// order) and per-node content. `order`, when non-null, collects the
// first-visit enumeration.
struct SignatureWalker {
  const Workflow& w;
  const std::vector<std::vector<NodeId>>& providers;
  FingerprintMemo& fingerprints;
  std::vector<int> index;  // NodeId -> first-visit index, -1 = unvisited
  int next_index = 0;
  std::vector<NodeId>* order = nullptr;

  uint64_t Visit(uint64_t h, NodeId id) {
    if (index[id] >= 0) {  // shared upstream node: explicit back-reference
      h = FoldByte(h, 'R');
      return FoldU64(h, static_cast<uint64_t>(index[id]));
    }
    index[id] = next_index++;
    if (order != nullptr) order->push_back(id);
    h = FoldByte(h, 'N');
    const std::vector<NodeId>& provs = providers[id];
    h = FoldU64(h, provs.size());
    for (NodeId p : provs) h = Visit(h, p);
    if (w.IsRecordSet(id)) {
      const RecordSetDef& def = w.recordset(id);
      if (provs.empty()) {
        h = FoldByte(h, 'S');
        h = FoldSchema(h, def.schema);
        h = FoldU64(h, fingerprints.Source(def.name));
      } else {
        h = FoldByte(h, 'G');  // staging: realigns to the declared schema
        h = FoldSchema(h, def.schema);
      }
    } else {
      h = FoldByte(h, 'A');
      const ActivityChain& chain = w.chain(id);
      h = FoldU64(h, chain.size());
      for (const ActivityChain::Member& m : chain.members()) {
        h = FoldString(h, m.activity.SemanticsString());
        if (m.activity.kind() == ActivityKind::kSurrogateKey) {
          const auto& p = m.activity.params_as<SurrogateKeyParams>();
          h = FoldU64(h, fingerprints.Lookup(p.lookup_name));
        }
      }
      h = FoldSchema(h, w.OutputSchema(id));
    }
    return h;
  }
};

}  // namespace

uint64_t SubgraphResultSignature(const Workflow& workflow, NodeId root,
                                 const SubgraphSignatureInputs& inputs) {
  ETLOPT_CHECK(workflow.fresh());
  ETLOPT_CHECK(workflow.Exists(root));
  auto providers = BuildProviderIndex(workflow);
  FingerprintMemo fingerprints(inputs);
  SignatureWalker walker{workflow, providers, fingerprints};
  walker.index.assign(providers.size(), -1);
  return walker.Visit(kSubgraphSigSalt, root);
}

std::vector<uint64_t> AllSubgraphResultSignatures(
    const Workflow& workflow, const SubgraphSignatureInputs& inputs) {
  ETLOPT_CHECK(workflow.fresh());
  auto providers = BuildProviderIndex(workflow);
  FingerprintMemo fingerprints(inputs);
  std::vector<uint64_t> out(providers.size(), 0);
  for (NodeId id : workflow.NodeIds()) {
    SignatureWalker walker{workflow, providers, fingerprints};
    walker.index.assign(providers.size(), -1);
    out[id] = walker.Visit(kSubgraphSigSalt, id);
  }
  return out;
}

std::vector<NodeId> SubtreeNodes(const Workflow& workflow, NodeId root) {
  ETLOPT_CHECK(workflow.fresh());
  ETLOPT_CHECK(workflow.Exists(root));
  auto providers = BuildProviderIndex(workflow);
  SubgraphSignatureInputs no_inputs;
  FingerprintMemo fingerprints(no_inputs);
  SignatureWalker walker{workflow, providers, fingerprints};
  walker.index.assign(providers.size(), -1);
  std::vector<NodeId> order;
  walker.order = &order;
  (void)walker.Visit(kSubgraphSigSalt, root);
  return order;
}

}  // namespace etlopt
