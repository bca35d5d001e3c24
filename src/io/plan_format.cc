#include "io/plan_format.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"
#include "common/string_util.h"
#include "io/text_format.h"
#include "records/record_io.h"

namespace etlopt {

namespace {

const char kBinaryMagic[8] = {'E', 'T', 'L', 'P', 'L', 'A', 'N', '1'};
constexpr std::string_view kCacheFileMagic = "ETLPLNS1";

std::string_view KindToWord(TransitionRecord::Kind kind) {
  switch (kind) {
    case TransitionRecord::Kind::kSwap: return "SWA";
    case TransitionRecord::Kind::kFactorize: return "FAC";
    case TransitionRecord::Kind::kDistribute: return "DIS";
    case TransitionRecord::Kind::kMerge: return "MER";
    case TransitionRecord::Kind::kSplit: return "SPL";
  }
  return "SWA";
}

StatusOr<TransitionRecord::Kind> KindFromWord(std::string_view word) {
  if (word == "SWA") return TransitionRecord::Kind::kSwap;
  if (word == "FAC") return TransitionRecord::Kind::kFactorize;
  if (word == "DIS") return TransitionRecord::Kind::kDistribute;
  if (word == "MER") return TransitionRecord::Kind::kMerge;
  if (word == "SPL") return TransitionRecord::Kind::kSplit;
  return Status::InvalidArgument("plan: unknown transition kind '" +
                                 std::string(word) + "'");
}

size_t CountLines(const std::string& text) {
  size_t n = 0;
  for (char c : text) n += c == '\n' ? 1 : 0;
  return n;
}

StatusOr<double> ParseExactDouble(const std::string& s) {
  const char* p = s.c_str();
  char* end = nullptr;
  double v = std::strtod(p, &end);
  if (end == p || *end != '\0') {
    return Status::InvalidArgument("plan: bad double '" + s + "'");
  }
  return v;
}

StatusOr<uint64_t> ParseU64(const std::string& s, int base) {
  const char* p = s.c_str();
  char* end = nullptr;
  uint64_t v = std::strtoull(p, &end, base);
  if (end == p || *end != '\0') {
    return Status::InvalidArgument("plan: bad integer '" + s + "'");
  }
  return v;
}

// A cursor over the lines of one or more concatenated plan texts.
class LineCursor {
 public:
  explicit LineCursor(const std::string& text) : lines_(Split(text, '\n')) {
    // A trailing newline yields one empty final field; drop it so AtEnd()
    // means "no more content".
    if (!lines_.empty() && lines_.back().empty()) lines_.pop_back();
  }

  bool AtEnd() const { return pos_ >= lines_.size(); }
  void SkipBlank() {
    while (!AtEnd() && Trim(lines_[pos_]).empty()) ++pos_;
  }

  StatusOr<std::string> Next(const char* what) {
    if (AtEnd()) {
      return Status::InvalidArgument(StrFormat(
          "plan: unexpected end of input, expected %s", what));
    }
    return lines_[pos_++];
  }

  /// Next line split as "<key> <rest>"; the key must match.
  StatusOr<std::string> NextField(const char* key) {
    ETLOPT_ASSIGN_OR_RETURN(std::string line, Next(key));
    std::string prefix = std::string(key);
    if (line == prefix) return std::string();
    prefix += ' ';
    if (!StartsWith(line, prefix)) {
      return Status::InvalidArgument(StrFormat(
          "plan: expected '%s ...', got '%s'", key, line.c_str()));
    }
    return line.substr(prefix.size());
  }

  bool PeekStartsWith(const char* prefix) const {
    return !AtEnd() && StartsWith(lines_[pos_], prefix);
  }

 private:
  std::vector<std::string> lines_;
  size_t pos_ = 0;
};

StatusOr<OptimizedPlan> ParseOnePlan(LineCursor& cursor) {
  OptimizedPlan plan;
  ETLOPT_ASSIGN_OR_RETURN(std::string version, cursor.NextField("plan"));
  if (version != "v1") {
    return Status::InvalidArgument("plan: unsupported version '" + version +
                                   "'");
  }
  ETLOPT_ASSIGN_OR_RETURN(plan.algorithm, cursor.NextField("algorithm"));
  ETLOPT_RETURN_NOT_OK(SearchAlgorithmFromString(plan.algorithm).status());
  ETLOPT_ASSIGN_OR_RETURN(plan.cost_model, cursor.NextField("costmodel"));
  ETLOPT_ASSIGN_OR_RETURN(plan.options, cursor.NextField("options"));
  ETLOPT_ASSIGN_OR_RETURN(plan.merges, cursor.NextField("merges"));
  ETLOPT_ASSIGN_OR_RETURN(std::string field,
                          cursor.NextField("initial_cost"));
  ETLOPT_ASSIGN_OR_RETURN(plan.initial_cost, ParseExactDouble(field));
  ETLOPT_ASSIGN_OR_RETURN(field, cursor.NextField("best_cost"));
  ETLOPT_ASSIGN_OR_RETURN(plan.best_cost, ParseExactDouble(field));
  ETLOPT_ASSIGN_OR_RETURN(field, cursor.NextField("signature_hash"));
  if (!StartsWith(field, "0x")) {
    return Status::InvalidArgument("plan: signature_hash must be 0x-hex");
  }
  ETLOPT_ASSIGN_OR_RETURN(plan.signature_hash,
                          ParseU64(field.substr(2), 16));
  ETLOPT_ASSIGN_OR_RETURN(field, cursor.NextField("visited_states"));
  ETLOPT_ASSIGN_OR_RETURN(plan.visited_states, ParseU64(field, 10));
  ETLOPT_ASSIGN_OR_RETURN(field, cursor.NextField("exhausted"));
  if (field != "0" && field != "1") {
    return Status::InvalidArgument("plan: exhausted must be 0 or 1");
  }
  plan.exhausted = field == "1";
  while (cursor.PeekStartsWith("path ")) {
    ETLOPT_ASSIGN_OR_RETURN(std::string entry, cursor.NextField("path"));
    size_t space = entry.find(' ');
    std::string word = space == std::string::npos ? entry
                                                  : entry.substr(0, space);
    TransitionRecord record;
    ETLOPT_ASSIGN_OR_RETURN(record.kind, KindFromWord(word));
    if (space != std::string::npos) {
      record.description = entry.substr(space + 1);
    }
    plan.path.push_back(std::move(record));
  }
  // Optional tagged recovery section (reliability-aware runs only);
  // absent for — and never emitted by — legacy plans.
  if (cursor.PeekStartsWith("recovery points")) {
    plan.recovery.enabled = true;
    ETLOPT_ASSIGN_OR_RETURN(field, cursor.NextField("recovery points"));
    if (!field.empty()) {
      plan.recovery.labels = Split(field, ',');
      for (const std::string& label : plan.recovery.labels) {
        if (label.empty()) {
          return Status::InvalidArgument("plan: empty recovery point label");
        }
      }
    }
    ETLOPT_ASSIGN_OR_RETURN(field, cursor.NextField("recovery costs"));
    std::vector<std::string> costs = Split(field, ' ');
    if (costs.size() != 6) {
      return Status::InvalidArgument(
          "plan: recovery costs must have 6 fields");
    }
    struct {
      const char* key;
      double* value;
    } slots[] = {
        {"exec=", &plan.recovery.execution_cost},
        {"ckpt=", &plan.recovery.checkpoint_cost},
        {"rec=", &plan.recovery.expected_recovery_cost},
        {"total=", &plan.recovery.expected_total_cost},
        {"lambda=", &plan.recovery.failure_rate_per_cost},
        {"stream_unit=", &plan.recovery.stream_checkpoint_unit_cost},
    };
    for (size_t i = 0; i < 6; ++i) {
      if (!StartsWith(costs[i], slots[i].key)) {
        return Status::InvalidArgument(StrFormat(
            "plan: recovery costs: expected %s<value>, got '%s'",
            slots[i].key, costs[i].c_str()));
      }
      ETLOPT_ASSIGN_OR_RETURN(
          *slots[i].value,
          ParseExactDouble(costs[i].substr(std::strlen(slots[i].key))));
    }
    ETLOPT_ASSIGN_OR_RETURN(plan.recovery.rationale,
                            cursor.NextField("recovery rationale"));
  }
  for (const char* which : {"initial", "optimized"}) {
    ETLOPT_ASSIGN_OR_RETURN(field, cursor.NextField("begin workflow"));
    std::string expected = std::string(which) + " ";
    if (!StartsWith(field, expected)) {
      return Status::InvalidArgument(StrFormat(
          "plan: expected 'begin workflow %s <lines>', got '%s'", which,
          field.c_str()));
    }
    ETLOPT_ASSIGN_OR_RETURN(uint64_t count,
                            ParseU64(field.substr(expected.size()), 10));
    std::string text;
    for (uint64_t i = 0; i < count; ++i) {
      ETLOPT_ASSIGN_OR_RETURN(std::string line, cursor.Next("workflow line"));
      text += line;
      text += '\n';
    }
    ETLOPT_ASSIGN_OR_RETURN(field, cursor.NextField("end workflow"));
    if (!field.empty()) {
      return Status::InvalidArgument("plan: malformed 'end workflow'");
    }
    (std::strcmp(which, "initial") == 0 ? plan.initial_text
                                        : plan.optimized_text) =
        std::move(text);
  }
  ETLOPT_ASSIGN_OR_RETURN(field, cursor.NextField("end plan"));
  if (!field.empty()) {
    return Status::InvalidArgument("plan: malformed 'end plan'");
  }
  return plan;
}

// Binary encoding uses the shared little-endian codec
// (records/record_io.h); the helpers below are format-specific only.

}  // namespace

std::string CanonicalMergeConstraints(
    const std::vector<MergeConstraint>& merge_constraints) {
  std::string out;
  for (const MergeConstraint& constraint : merge_constraints) {
    if (!out.empty()) out += ';';
    out += constraint.first_label;
    out += '+';
    out += constraint.second_label;
  }
  return out;
}

StatusOr<OptimizedPlan> MakePlan(
    const Workflow& initial, const SearchResult& result,
    SearchAlgorithm algorithm, const CostModel& model,
    const SearchOptions& options,
    const std::vector<MergeConstraint>& merge_constraints) {
  OptimizedPlan plan;
  plan.algorithm = std::string(SearchAlgorithmToString(algorithm));
  plan.cost_model = model.Fingerprint();
  plan.options = ResultFingerprint(options);
  plan.merges = CanonicalMergeConstraints(merge_constraints);
  plan.initial_cost = result.initial_cost;
  plan.best_cost = result.best.cost;
  plan.signature_hash = result.best.signature_hash;
  plan.visited_states = result.visited_states;
  plan.exhausted = result.exhausted;
  plan.path = result.best_path;
  plan.recovery = result.recovery;
  if (plan.signature_hash == 0) {
    Workflow copy = result.best.workflow;
    if (!copy.fresh()) {
      ETLOPT_RETURN_NOT_OK(copy.Refresh());
    }
    plan.signature_hash = copy.SignatureHash();
  }
  TextFormatOptions text_options;
  text_options.emit_plabels = true;
  ETLOPT_ASSIGN_OR_RETURN(plan.initial_text,
                          PrintWorkflowText(initial, text_options));
  ETLOPT_ASSIGN_OR_RETURN(
      plan.optimized_text,
      PrintWorkflowText(result.best.workflow, text_options));
  return plan;
}

std::string PrintPlanText(const OptimizedPlan& plan) {
  std::string out = "plan v1\n";
  out += "algorithm " + plan.algorithm + "\n";
  out += "costmodel " + plan.cost_model + "\n";
  out += "options " + plan.options + "\n";
  out += plan.merges.empty() ? "merges\n" : "merges " + plan.merges + "\n";
  out += "initial_cost " + DoubleToString(plan.initial_cost) + "\n";
  out += "best_cost " + DoubleToString(plan.best_cost) + "\n";
  out += StrFormat("signature_hash 0x%llx\n",
                   static_cast<unsigned long long>(plan.signature_hash));
  out += StrFormat("visited_states %llu\n",
                   static_cast<unsigned long long>(plan.visited_states));
  out += StrFormat("exhausted %d\n", plan.exhausted ? 1 : 0);
  for (const TransitionRecord& record : plan.path) {
    out += "path " + std::string(KindToWord(record.kind));
    if (!record.description.empty()) out += " " + record.description;
    out += "\n";
  }
  if (plan.recovery.enabled) {
    out += plan.recovery.labels.empty()
               ? "recovery points\n"
               : "recovery points " + Join(plan.recovery.labels, ",") + "\n";
    out += "recovery costs exec=" + DoubleToString(plan.recovery.execution_cost) +
           " ckpt=" + DoubleToString(plan.recovery.checkpoint_cost) +
           " rec=" + DoubleToString(plan.recovery.expected_recovery_cost) +
           " total=" + DoubleToString(plan.recovery.expected_total_cost) +
           " lambda=" + DoubleToString(plan.recovery.failure_rate_per_cost) +
           " stream_unit=" +
           DoubleToString(plan.recovery.stream_checkpoint_unit_cost) + "\n";
    out += "recovery rationale " + plan.recovery.rationale + "\n";
  }
  out += StrFormat("begin workflow initial %zu\n",
                   CountLines(plan.initial_text));
  out += plan.initial_text;
  out += "end workflow\n";
  out += StrFormat("begin workflow optimized %zu\n",
                   CountLines(plan.optimized_text));
  out += plan.optimized_text;
  out += "end workflow\n";
  out += "end plan\n";
  return out;
}

StatusOr<OptimizedPlan> ParsePlanText(const std::string& text) {
  LineCursor cursor(text);
  cursor.SkipBlank();
  ETLOPT_ASSIGN_OR_RETURN(OptimizedPlan plan, ParseOnePlan(cursor));
  cursor.SkipBlank();
  if (!cursor.AtEnd()) {
    return Status::InvalidArgument("plan: trailing content after 'end plan'");
  }
  return plan;
}

StatusOr<std::vector<OptimizedPlan>> ParsePlansText(const std::string& text) {
  std::vector<OptimizedPlan> plans;
  LineCursor cursor(text);
  cursor.SkipBlank();
  while (!cursor.AtEnd()) {
    ETLOPT_ASSIGN_OR_RETURN(OptimizedPlan plan, ParseOnePlan(cursor));
    plans.push_back(std::move(plan));
    cursor.SkipBlank();
  }
  return plans;
}

std::string SerializePlanBinary(const OptimizedPlan& plan) {
  std::string out(kBinaryMagic, sizeof(kBinaryMagic));
  PutString(out, plan.algorithm);
  PutString(out, plan.cost_model);
  PutString(out, plan.options);
  PutString(out, plan.merges);
  PutDouble(out, plan.initial_cost);
  PutDouble(out, plan.best_cost);
  PutU64(out, plan.signature_hash);
  PutU64(out, plan.visited_states);
  out.push_back(plan.exhausted ? 1 : 0);
  PutU32(out, static_cast<uint32_t>(plan.path.size()));
  for (const TransitionRecord& record : plan.path) {
    out.push_back(static_cast<char>(record.kind));
    PutString(out, record.description);
  }
  PutString(out, plan.initial_text);
  PutString(out, plan.optimized_text);
  // Tagged trailer, present only for reliability-aware plans — a
  // reliability-off plan's bytes end exactly where they always did.
  if (plan.recovery.enabled) {
    out.push_back(1);
    PutU32(out, static_cast<uint32_t>(plan.recovery.labels.size()));
    for (const std::string& label : plan.recovery.labels) {
      PutString(out, label);
    }
    PutDouble(out, plan.recovery.execution_cost);
    PutDouble(out, plan.recovery.checkpoint_cost);
    PutDouble(out, plan.recovery.expected_recovery_cost);
    PutDouble(out, plan.recovery.expected_total_cost);
    PutDouble(out, plan.recovery.failure_rate_per_cost);
    PutDouble(out, plan.recovery.stream_checkpoint_unit_cost);
    PutString(out, plan.recovery.rationale);
  }
  return out;
}

StatusOr<OptimizedPlan> ParsePlanBinary(std::string_view bytes) {
  if (bytes.size() < sizeof(kBinaryMagic) ||
      std::memcmp(bytes.data(), kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return Status::InvalidArgument("plan: bad binary magic");
  }
  BinaryReader reader(bytes.substr(sizeof(kBinaryMagic)));
  OptimizedPlan plan;
  ETLOPT_ASSIGN_OR_RETURN(plan.algorithm, reader.String());
  ETLOPT_RETURN_NOT_OK(SearchAlgorithmFromString(plan.algorithm).status());
  ETLOPT_ASSIGN_OR_RETURN(plan.cost_model, reader.String());
  ETLOPT_ASSIGN_OR_RETURN(plan.options, reader.String());
  ETLOPT_ASSIGN_OR_RETURN(plan.merges, reader.String());
  ETLOPT_ASSIGN_OR_RETURN(plan.initial_cost, ReadDouble(reader));
  ETLOPT_ASSIGN_OR_RETURN(plan.best_cost, ReadDouble(reader));
  ETLOPT_ASSIGN_OR_RETURN(plan.signature_hash, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(plan.visited_states, reader.U64());
  ETLOPT_ASSIGN_OR_RETURN(uint8_t exhausted, reader.U8());
  if (exhausted > 1) {
    return Status::InvalidArgument("plan: bad exhausted flag");
  }
  plan.exhausted = exhausted == 1;
  ETLOPT_ASSIGN_OR_RETURN(uint32_t path_size, reader.U32());
  // Bound the reserve by what the input could possibly hold (a record is
  // at least 5 bytes), so a corrupt count cannot force a huge allocation
  // before the per-record bounds checks fire.
  plan.path.reserve(std::min<size_t>(path_size, reader.remaining() / 5));
  for (uint32_t i = 0; i < path_size; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(uint8_t kind, reader.U8());
    if (kind > static_cast<uint8_t>(TransitionRecord::Kind::kSplit)) {
      return Status::InvalidArgument("plan: bad transition kind");
    }
    TransitionRecord record;
    record.kind = static_cast<TransitionRecord::Kind>(kind);
    ETLOPT_ASSIGN_OR_RETURN(record.description, reader.String());
    plan.path.push_back(std::move(record));
  }
  ETLOPT_ASSIGN_OR_RETURN(plan.initial_text, reader.String());
  ETLOPT_ASSIGN_OR_RETURN(plan.optimized_text, reader.String());
  if (!reader.AtEnd()) {
    ETLOPT_ASSIGN_OR_RETURN(uint8_t tag, reader.U8());
    if (tag != 1) {
      return Status::InvalidArgument("plan: bad recovery section tag");
    }
    plan.recovery.enabled = true;
    ETLOPT_ASSIGN_OR_RETURN(uint32_t label_count, reader.U32());
    plan.recovery.labels.reserve(
        std::min<size_t>(label_count, reader.remaining() / 4));
    for (uint32_t i = 0; i < label_count; ++i) {
      ETLOPT_ASSIGN_OR_RETURN(std::string label, reader.String());
      plan.recovery.labels.push_back(std::move(label));
    }
    ETLOPT_ASSIGN_OR_RETURN(plan.recovery.execution_cost,
                            ReadDouble(reader));
    ETLOPT_ASSIGN_OR_RETURN(plan.recovery.checkpoint_cost,
                            ReadDouble(reader));
    ETLOPT_ASSIGN_OR_RETURN(plan.recovery.expected_recovery_cost,
                            ReadDouble(reader));
    ETLOPT_ASSIGN_OR_RETURN(plan.recovery.expected_total_cost,
                            ReadDouble(reader));
    ETLOPT_ASSIGN_OR_RETURN(plan.recovery.failure_rate_per_cost,
                            ReadDouble(reader));
    ETLOPT_ASSIGN_OR_RETURN(plan.recovery.stream_checkpoint_unit_cost,
                            ReadDouble(reader));
    ETLOPT_ASSIGN_OR_RETURN(plan.recovery.rationale, reader.String());
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("plan: trailing binary content");
  }
  return plan;
}

std::string SerializePlansBinary(const std::vector<OptimizedPlan>& plans) {
  std::string payload;
  PutU32(payload, static_cast<uint32_t>(plans.size()));
  for (const OptimizedPlan& plan : plans) {
    std::string bytes = SerializePlanBinary(plan);
    PutU64(payload, bytes.size());
    payload += bytes;
  }
  return SealPayload(kCacheFileMagic, payload);
}

StatusOr<std::vector<OptimizedPlan>> ParsePlansBinary(std::string_view bytes) {
  // Whole-file checksum first: a flip anywhere — even inside a length
  // prefix or at a plan boundary — is caught before any plan is parsed.
  ETLOPT_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnsealPayload(bytes, kCacheFileMagic, "plan cache"));
  BinaryReader reader(payload);
  ETLOPT_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  std::vector<OptimizedPlan> plans;
  plans.reserve(std::min<size_t>(count, reader.remaining() / 8));
  for (uint32_t i = 0; i < count; ++i) {
    ETLOPT_ASSIGN_OR_RETURN(uint64_t plan_size, reader.U64());
    ETLOPT_ASSIGN_OR_RETURN(std::string_view plan_bytes,
                            reader.Bytes(plan_size));
    ETLOPT_ASSIGN_OR_RETURN(OptimizedPlan plan,
                            ParsePlanBinary(plan_bytes));
    plans.push_back(std::move(plan));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("plan cache: trailing content");
  }
  return plans;
}

StatusOr<State> ApplyPlan(const OptimizedPlan& plan, const CostModel& model) {
  if (model.Fingerprint() != plan.cost_model) {
    return Status::FailedPrecondition(
        "plan was produced under cost model '" + plan.cost_model +
        "', not '" + model.Fingerprint() + "'");
  }
  ETLOPT_ASSIGN_OR_RETURN(Workflow workflow,
                          ParseWorkflowText(plan.optimized_text));
  ETLOPT_ASSIGN_OR_RETURN(State state, MakeState(std::move(workflow), model));
  if (state.signature_hash != plan.signature_hash) {
    return Status::Internal(StrFormat(
        "plan does not reproduce its recorded signature (0x%llx vs 0x%llx)",
        static_cast<unsigned long long>(state.signature_hash),
        static_cast<unsigned long long>(plan.signature_hash)));
  }
  // A reliability-aware plan carries its params in the options
  // fingerprint and its placement in the recovery section; the two must
  // agree with each other and with a from-scratch recomputation — a
  // tampered section (labels, ledger, or missing/injected section) is
  // rejected, never served.
  const bool reliability_run =
      plan.options.find("reliability=") != std::string::npos;
  if (reliability_run != plan.recovery.enabled) {
    return Status::Internal(
        "plan recovery section does not match its options fingerprint");
  }
  if (plan.recovery.enabled) {
    ETLOPT_ASSIGN_OR_RETURN(ReliabilityParams params,
                            ReliabilityFromOptionsFingerprint(plan.options));
    RecoveryPointPlan recomputed =
        PlaceRecoveryPoints(state.workflow, *state.breakdown, params);
    if (recomputed.labels != plan.recovery.labels ||
        recomputed.execution_cost != plan.recovery.execution_cost ||
        recomputed.checkpoint_cost != plan.recovery.checkpoint_cost ||
        recomputed.expected_recovery_cost !=
            plan.recovery.expected_recovery_cost ||
        recomputed.expected_total_cost != plan.recovery.expected_total_cost ||
        recomputed.failure_rate_per_cost !=
            plan.recovery.failure_rate_per_cost ||
        recomputed.stream_checkpoint_unit_cost !=
            plan.recovery.stream_checkpoint_unit_cost) {
      return Status::Internal(
          "plan does not reproduce its recorded recovery-point placement");
    }
    // The search minimized effective cost = execution + surcharge;
    // MakeState costs execution only, so lift it before the bits check.
    state.cost += recomputed.checkpoint_cost +
                  recomputed.expected_recovery_cost;
  }
  if (state.cost != plan.best_cost) {
    return Status::Internal(StrFormat(
        "plan does not reproduce its recorded cost (%.17g vs %.17g)",
        state.cost, plan.best_cost));
  }
  return state;
}

StatusOr<Workflow> PlanInitialWorkflow(const OptimizedPlan& plan) {
  return ParseWorkflowText(plan.initial_text);
}

}  // namespace etlopt
