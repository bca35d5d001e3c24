#include "io/text_format.h"

#include <cctype>
#include <cmath>
#include <map>

#include "activity/templates.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace etlopt {

namespace {

// ---- Predicate tokenizer / parser ----

struct Token {
  enum class Kind { kLParen, kRParen, kWord, kNumber, kString, kOp };
  Kind kind;
  std::string text;
};

StatusOr<std::vector<Token>> TokenizePredicate(const std::string& s) {
  std::vector<Token> out;
  size_t i = 0;
  while (i < s.size()) {
    char c = s[i];
    if (c == ' ' || c == '\t') {
      ++i;
    } else if (c == '(') {
      out.push_back({Token::Kind::kLParen, "("});
      ++i;
    } else if (c == ')') {
      out.push_back({Token::Kind::kRParen, ")"});
      ++i;
    } else if (c == '\'') {
      size_t end = s.find('\'', i + 1);
      if (end == std::string::npos) {
        return Status::InvalidArgument("unterminated string in predicate: " +
                                       s);
      }
      out.push_back({Token::Kind::kString, s.substr(i + 1, end - i - 1)});
      i = end + 1;
    } else if (c == '>' || c == '<' || c == '=') {
      std::string op(1, c);
      if (i + 1 < s.size() && (s[i + 1] == '=' || s[i + 1] == '>')) {
        op += s[i + 1];
        ++i;
      }
      out.push_back({Token::Kind::kOp, op});
      ++i;
    } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
               c == '+' || c == '.') {
      size_t start = i;
      ++i;
      while (i < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
              s[i] == 'e' || s[i] == 'E' ||
              ((s[i] == '+' || s[i] == '-') &&
               (s[i - 1] == 'e' || s[i - 1] == 'E')))) {
        ++i;
      }
      out.push_back({Token::Kind::kNumber, s.substr(start, i - start)});
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < s.size() &&
             (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '_' ||
              s[i] == '.')) {
        ++i;
      }
      out.push_back({Token::Kind::kWord, s.substr(start, i - start)});
    } else {
      return Status::InvalidArgument(
          StrFormat("bad character '%c' in predicate: %s", c, s.c_str()));
    }
  }
  return out;
}

class PredicateParser {
 public:
  explicit PredicateParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  StatusOr<ExprPtr> Parse() {
    ETLOPT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (pos_ != tokens_.size()) {
      return Status::InvalidArgument("trailing tokens in predicate");
    }
    return e;
  }

 private:
  bool AtEnd() const { return pos_ >= tokens_.size(); }
  const Token& Peek() const { return tokens_[pos_]; }

  Status Expect(Token::Kind kind, const char* what) {
    if (AtEnd() || Peek().kind != kind) {
      return Status::InvalidArgument(StrFormat("expected %s in predicate",
                                               what));
    }
    ++pos_;
    return Status::OK();
  }

  bool ConsumeWord(const char* word) {
    if (!AtEnd() && Peek().kind == Token::Kind::kWord && Peek().text == word) {
      ++pos_;
      return true;
    }
    return false;
  }

  // term := NULL | true | false | number | 'string' | column
  StatusOr<ExprPtr> ParseTerm() {
    if (AtEnd()) return Status::InvalidArgument("predicate ends abruptly");
    Token t = Peek();
    ++pos_;
    switch (t.kind) {
      case Token::Kind::kNumber: {
        if (t.text.find_first_of(".eE") == std::string::npos) {
          ETLOPT_ASSIGN_OR_RETURN(Value v,
                                  Value::Parse(t.text, DataType::kInt64));
          return Literal(std::move(v));
        }
        ETLOPT_ASSIGN_OR_RETURN(Value v,
                                Value::Parse(t.text, DataType::kDouble));
        return Literal(std::move(v));
      }
      case Token::Kind::kString:
        return Literal(Value::String(t.text));
      case Token::Kind::kWord:
        if (t.text == "NULL") return Literal(Value::Null());
        if (t.text == "true") return Literal(Value::Bool(true));
        if (t.text == "false") return Literal(Value::Bool(false));
        return Column(t.text);
      default:
        return Status::InvalidArgument("bad term in predicate: " + t.text);
    }
  }

  // expr := "(" inner ")" ; a bare term is also accepted for operands.
  StatusOr<ExprPtr> ParseOperand() {
    if (!AtEnd() && Peek().kind == Token::Kind::kLParen) return ParseExpr();
    return ParseTerm();
  }

  // The parser recurses once per parenthesis, so the nesting limit is what
  // keeps a hostile predicate from exhausting the stack.
  StatusOr<ExprPtr> ParseExpr() {
    if (depth_ == kMaxPredicateNesting) {
      return Status::InvalidArgument(
          StrFormat("predicate nests deeper than %d parentheses",
                    kMaxPredicateNesting));
    }
    ++depth_;
    StatusOr<ExprPtr> e = ParseParenthesized();
    --depth_;
    return e;
  }

  StatusOr<ExprPtr> ParseParenthesized() {
    ETLOPT_RETURN_NOT_OK(Expect(Token::Kind::kLParen, "'('"));
    if (ConsumeWord("NOT")) {
      ETLOPT_ASSIGN_OR_RETURN(ExprPtr inner, ParseOperand());
      ETLOPT_RETURN_NOT_OK(Expect(Token::Kind::kRParen, "')'"));
      return Not(std::move(inner));
    }
    ETLOPT_ASSIGN_OR_RETURN(ExprPtr left, ParseOperand());
    if (ConsumeWord("AND")) {
      ETLOPT_ASSIGN_OR_RETURN(ExprPtr right, ParseOperand());
      ETLOPT_RETURN_NOT_OK(Expect(Token::Kind::kRParen, "')'"));
      return And(std::move(left), std::move(right));
    }
    if (ConsumeWord("OR")) {
      ETLOPT_ASSIGN_OR_RETURN(ExprPtr right, ParseOperand());
      ETLOPT_RETURN_NOT_OK(Expect(Token::Kind::kRParen, "')'"));
      return Or(std::move(left), std::move(right));
    }
    if (ConsumeWord("IS")) {
      bool negated = ConsumeWord("NOT");
      if (!ConsumeWord("NULL")) {
        return Status::InvalidArgument("expected NULL after IS");
      }
      ETLOPT_RETURN_NOT_OK(Expect(Token::Kind::kRParen, "')'"));
      return negated ? IsNotNull(std::move(left)) : IsNull(std::move(left));
    }
    if (AtEnd() || Peek().kind != Token::Kind::kOp) {
      return Status::InvalidArgument("expected comparison operator");
    }
    std::string op = Peek().text;
    ++pos_;
    CompareOp cmp;
    if (op == "=") cmp = CompareOp::kEq;
    else if (op == "<>") cmp = CompareOp::kNe;
    else if (op == "<") cmp = CompareOp::kLt;
    else if (op == "<=") cmp = CompareOp::kLe;
    else if (op == ">") cmp = CompareOp::kGt;
    else if (op == ">=") cmp = CompareOp::kGe;
    else return Status::InvalidArgument("bad comparison operator: " + op);
    ETLOPT_ASSIGN_OR_RETURN(ExprPtr right, ParseOperand());
    ETLOPT_RETURN_NOT_OK(Expect(Token::Kind::kRParen, "')'"));
    return Compare(cmp, std::move(left), std::move(right));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

// ---- Schema / misc field helpers ----

StatusOr<DataType> ParseTypeName(const std::string& name) {
  if (name == "bool") return DataType::kBool;
  if (name == "int") return DataType::kInt64;
  if (name == "double") return DataType::kDouble;
  if (name == "string") return DataType::kString;
  return Status::InvalidArgument("unknown type name: " + name);
}

StatusOr<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<Attribute> attrs;
  for (const auto& part : Split(spec, ',')) {
    auto colon = part.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("bad schema field: " + part);
    }
    ETLOPT_ASSIGN_OR_RETURN(DataType type,
                            ParseTypeName(part.substr(colon + 1)));
    attrs.push_back({part.substr(0, colon), type});
  }
  return Schema::Make(std::move(attrs));
}

std::string PrintSchemaSpec(const Schema& schema) {
  std::vector<std::string> parts;
  parts.reserve(schema.size());
  for (const auto& a : schema.attributes()) parts.push_back(a.ToString());
  return Join(parts, ",");
}

StatusOr<AggFn> ParseAggFn(const std::string& name) {
  if (name == "SUM") return AggFn::kSum;
  if (name == "MIN") return AggFn::kMin;
  if (name == "MAX") return AggFn::kMax;
  if (name == "COUNT") return AggFn::kCount;
  if (name == "AVG") return AggFn::kAvg;
  return Status::InvalidArgument("unknown aggregate fn: " + name);
}

// "SUM(V1E)->V1E,COUNT(K)->N"
StatusOr<std::vector<AggSpec>> ParseAggSpecs(const std::string& spec) {
  std::vector<AggSpec> out;
  for (const auto& part : Split(spec, ',')) {
    size_t lp = part.find('(');
    size_t rp = part.find(')');
    size_t arrow = part.find("->");
    if (lp == std::string::npos || rp == std::string::npos ||
        arrow == std::string::npos || arrow < rp) {
      return Status::InvalidArgument("bad aggregate spec: " + part);
    }
    AggSpec a;
    ETLOPT_ASSIGN_OR_RETURN(a.fn, ParseAggFn(part.substr(0, lp)));
    a.arg = part.substr(lp + 1, rp - lp - 1);
    a.output = part.substr(arrow + 2);
    out.push_back(std::move(a));
  }
  return out;
}

std::string PrintAggSpecs(const std::vector<AggSpec>& aggs) {
  std::vector<std::string> parts;
  parts.reserve(aggs.size());
  for (const auto& a : aggs) {
    parts.push_back(std::string(AggFnToString(a.fn)) + "(" + a.arg + ")->" +
                    a.output);
  }
  return Join(parts, ",");
}

// A parsed DSL line: directive, name, key -> value fields.
struct Line {
  std::string directive;
  std::string name;
  std::map<std::string, std::string> fields;
  int number = 0;
};

StatusOr<Line> ParseLine(const std::string& raw, int number) {
  Line line;
  line.number = number;
  // Token scan that keeps parenthesized predicate values whole.
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < raw.size()) {
    while (i < raw.size() && raw[i] == ' ') ++i;
    if (i >= raw.size()) break;
    size_t start = i;
    int depth = 0;
    while (i < raw.size() && (raw[i] != ' ' || depth > 0)) {
      if (raw[i] == '(') ++depth;
      if (raw[i] == ')') --depth;
      ++i;
    }
    tokens.push_back(raw.substr(start, i - start));
  }
  if (tokens.size() < 2) {
    return Status::InvalidArgument(
        StrFormat("line %d: expected '<directive> <name> ...'", number));
  }
  line.directive = tokens[0];
  line.name = tokens[1];
  for (size_t t = 2; t < tokens.size(); ++t) {
    size_t eq = tokens[t].find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("line %d: expected key=value, got '%s'", number,
                    tokens[t].c_str()));
    }
    line.fields.emplace(tokens[t].substr(0, eq), tokens[t].substr(eq + 1));
  }
  return line;
}

StatusOr<std::string> RequireField(const Line& line, const char* key) {
  auto it = line.fields.find(key);
  if (it == line.fields.end()) {
    return Status::InvalidArgument(StrFormat(
        "line %d (%s %s): missing field '%s'", line.number,
        line.directive.c_str(), line.name.c_str(), key));
  }
  return it->second;
}

std::string FieldOr(const Line& line, const char* key,
                    const std::string& fallback) {
  auto it = line.fields.find(key);
  return it == line.fields.end() ? fallback : it->second;
}

StatusOr<double> ParseDoubleField(const Line& line, const char* key,
                                  double fallback) {
  auto it = line.fields.find(key);
  if (it == line.fields.end()) return fallback;
  ETLOPT_ASSIGN_OR_RETURN(Value v, Value::Parse(it->second, DataType::kDouble));
  return v.double_value();
}

}  // namespace

StatusOr<ExprPtr> ParsePredicate(const std::string& text) {
  ETLOPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizePredicate(text));
  return PredicateParser(std::move(tokens)).Parse();
}

StatusOr<Workflow> ParseWorkflowText(const std::string& text) {
  Workflow w;
  std::map<std::string, NodeId> by_name;
  std::vector<std::pair<NodeId, std::string>> plabel_overrides;
  auto record_node = [&](const Line& line, NodeId id) {
    by_name[line.name] = id;
    auto it = line.fields.find("plabel");
    if (it != line.fields.end()) plabel_overrides.emplace_back(id, it->second);
  };
  int number = 0;
  for (const auto& raw_line : Split(text, '\n')) {
    ++number;
    std::string line_text(Trim(raw_line));
    auto hash = line_text.find('#');
    if (hash != std::string::npos) line_text = line_text.substr(0, hash);
    line_text = std::string(Trim(line_text));
    if (line_text.empty()) continue;
    ETLOPT_ASSIGN_OR_RETURN(Line line, ParseLine(line_text, number));
    if (by_name.count(line.name)) {
      return Status::AlreadyExists(
          StrFormat("line %d: duplicate node name '%s'", number,
                    line.name.c_str()));
    }

    if (line.directive == "source") {
      ETLOPT_ASSIGN_OR_RETURN(std::string spec, RequireField(line, "schema"));
      ETLOPT_ASSIGN_OR_RETURN(Schema schema, ParseSchemaSpec(spec));
      ETLOPT_ASSIGN_OR_RETURN(double card,
                              ParseDoubleField(line, "card", 0.0));
      if (!std::isfinite(card) || card < 0.0) {
        return Status::InvalidArgument(StrFormat(
            "line %d: card must be finite and non-negative", number));
      }
      if (card > kMaxSourceCardinality) {
        return Status::InvalidArgument(
            StrFormat("line %d: card %g exceeds the limit %g", number, card,
                      kMaxSourceCardinality));
      }
      record_node(line, w.AddRecordSet({line.name, schema, card}));
      continue;
    }

    // Everything else has providers.
    ETLOPT_ASSIGN_OR_RETURN(std::string in, RequireField(line, "in"));
    std::vector<NodeId> providers;
    for (const auto& pname : Split(in, ',')) {
      auto it = by_name.find(pname);
      if (it == by_name.end()) {
        return Status::NotFound(StrFormat("line %d: unknown provider '%s'",
                                          number, pname.c_str()));
      }
      providers.push_back(it->second);
    }

    if (line.directive == "target") {
      ETLOPT_ASSIGN_OR_RETURN(std::string spec, RequireField(line, "schema"));
      ETLOPT_ASSIGN_OR_RETURN(Schema schema, ParseSchemaSpec(spec));
      if (providers.size() != 1) {
        return Status::InvalidArgument(
            StrFormat("line %d: target needs one provider", number));
      }
      NodeId id = w.AddRecordSet({line.name, schema, 0});
      ETLOPT_RETURN_NOT_OK(w.Connect(providers[0], id));
      record_node(line, id);
      continue;
    }

    ETLOPT_ASSIGN_OR_RETURN(double sel, ParseDoubleField(line, "sel", 1.0));
    StatusOr<Activity> activity = Status::Unimplemented("");
    if (line.directive == "selection") {
      ETLOPT_ASSIGN_OR_RETURN(std::string pred, RequireField(line, "pred"));
      ETLOPT_ASSIGN_OR_RETURN(ExprPtr e, ParsePredicate(pred));
      activity = MakeSelection(line.name, std::move(e), sel);
    } else if (line.directive == "notnull") {
      ETLOPT_ASSIGN_OR_RETURN(std::string attr, RequireField(line, "attr"));
      activity = MakeNotNull(line.name, attr, sel);
    } else if (line.directive == "domain") {
      ETLOPT_ASSIGN_OR_RETURN(std::string attr, RequireField(line, "attr"));
      ETLOPT_ASSIGN_OR_RETURN(double lo, ParseDoubleField(line, "lo", 0));
      ETLOPT_ASSIGN_OR_RETURN(double hi, ParseDoubleField(line, "hi", 0));
      activity = MakeDomainCheck(line.name, attr, lo, hi, sel);
    } else if (line.directive == "pkcheck") {
      ETLOPT_ASSIGN_OR_RETURN(std::string keys, RequireField(line, "keys"));
      activity = MakePrimaryKeyCheck(line.name, Split(keys, ','), sel);
    } else if (line.directive == "project") {
      ETLOPT_ASSIGN_OR_RETURN(std::string drop, RequireField(line, "drop"));
      activity = MakeProjection(line.name, Split(drop, ','));
    } else if (line.directive == "function") {
      ETLOPT_ASSIGN_OR_RETURN(std::string fn, RequireField(line, "fn"));
      ETLOPT_ASSIGN_OR_RETURN(std::string args, RequireField(line, "args"));
      ETLOPT_ASSIGN_OR_RETURN(std::string out_spec, RequireField(line, "out"));
      auto colon = out_spec.find(':');
      if (colon == std::string::npos) {
        return Status::InvalidArgument(
            StrFormat("line %d: function out needs name:type", number));
      }
      ETLOPT_ASSIGN_OR_RETURN(DataType out_type,
                              ParseTypeName(out_spec.substr(colon + 1)));
      std::string drop = FieldOr(line, "drop", "");
      activity = MakeFunction(
          line.name, fn, Split(args, ','), out_spec.substr(0, colon),
          out_type, drop.empty() ? std::vector<std::string>{} : Split(drop, ','));
    } else if (line.directive == "inplace") {
      ETLOPT_ASSIGN_OR_RETURN(std::string fn, RequireField(line, "fn"));
      ETLOPT_ASSIGN_OR_RETURN(std::string attr, RequireField(line, "attr"));
      ETLOPT_ASSIGN_OR_RETURN(DataType type,
                              ParseTypeName(FieldOr(line, "type", "string")));
      activity = MakeInPlaceFunction(line.name, fn, attr, type);
    } else if (line.directive == "skey") {
      ETLOPT_ASSIGN_OR_RETURN(std::string keys, RequireField(line, "keys"));
      ETLOPT_ASSIGN_OR_RETURN(std::string out, RequireField(line, "out"));
      ETLOPT_ASSIGN_OR_RETURN(std::string lut, RequireField(line, "lut"));
      std::string drop = FieldOr(line, "drop", "");
      activity = MakeSurrogateKey(
          line.name, Split(keys, ','), out, lut,
          drop.empty() ? std::vector<std::string>{} : Split(drop, ','));
    } else if (line.directive == "aggregate") {
      ETLOPT_ASSIGN_OR_RETURN(std::string group, RequireField(line, "group"));
      ETLOPT_ASSIGN_OR_RETURN(std::string aggs, RequireField(line, "aggs"));
      ETLOPT_ASSIGN_OR_RETURN(std::vector<AggSpec> specs,
                              ParseAggSpecs(aggs));
      activity = MakeAggregation(line.name, Split(group, ','), specs, sel);
    } else if (line.directive == "union") {
      activity = MakeUnion(line.name);
    } else if (line.directive == "join") {
      ETLOPT_ASSIGN_OR_RETURN(std::string keys, RequireField(line, "keys"));
      activity = MakeJoin(line.name, Split(keys, ','), sel);
    } else if (line.directive == "difference") {
      activity = MakeDifference(line.name, sel);
    } else if (line.directive == "intersection") {
      activity = MakeIntersection(line.name, sel);
    } else {
      return Status::InvalidArgument(StrFormat(
          "line %d: unknown directive '%s'", number, line.directive.c_str()));
    }
    if (!activity.ok()) {
      return activity.status().WithContext(StrFormat("line %d", number));
    }
    ETLOPT_ASSIGN_OR_RETURN(NodeId id,
                            w.AddActivity(std::move(activity).value(),
                                          providers));
    record_node(line, id);
  }
  ETLOPT_RETURN_NOT_OK(w.Finalize());
  // Carried priority labels win over the freshly derived ones (see the
  // header: deserialized mid-optimization states).
  if (!plabel_overrides.empty()) {
    for (const auto& [id, plabel] : plabel_overrides) {
      ETLOPT_RETURN_NOT_OK(w.SetPriorityLabel(id, plabel));
    }
    ETLOPT_RETURN_NOT_OK(w.Refresh());
    w.ClearDirtyNodes();
  }
  return w;
}

StatusOr<std::string> PrintWorkflowText(const Workflow& workflow,
                                        const TextFormatOptions& options) {
  std::string out = "# etlopt workflow\n";
  Workflow copy = workflow;
  if (!copy.fresh()) {
    ETLOPT_RETURN_NOT_OK(copy.Refresh());
  }
  // Splices " plabel=N" in front of the line's trailing newline.
  auto append_plabel = [&](NodeId id) {
    if (!options.emit_plabels) return;
    out.insert(out.size() - 1, " plabel=" + copy.PriorityLabelOf(id));
  };
  // Node names: recordset names / activity labels (must be unique).
  std::map<NodeId, std::string> names;
  std::map<std::string, int> name_counts;
  for (NodeId id : copy.NodeIds()) {
    std::string base = copy.IsRecordSet(id) ? copy.recordset(id).name
                                            : copy.chain(id).label();
    if (++name_counts[base] > 1) {
      base += StrFormat("_%d", name_counts[base]);
    }
    names[id] = base;
  }
  for (NodeId id : copy.TopoOrder()) {
    if (copy.IsRecordSet(id)) {
      const RecordSetDef& def = copy.recordset(id);
      if (copy.Providers(id).empty()) {
        out += StrFormat("source %s card=%s schema=%s\n", names[id].c_str(),
                         DoubleToString(def.cardinality).c_str(),
                         PrintSchemaSpec(def.schema).c_str());
      } else {
        out += StrFormat("target %s in=%s schema=%s\n", names[id].c_str(),
                         names[copy.Providers(id)[0]].c_str(),
                         PrintSchemaSpec(def.schema).c_str());
      }
      append_plabel(id);
      continue;
    }
    const ActivityChain& chain = copy.chain(id);
    if (chain.size() != 1) {
      return Status::FailedPrecondition(
          "cannot print merged chains; split the workflow first");
    }
    const Activity& a = chain.front();
    std::vector<std::string> ins;
    for (NodeId p : copy.Providers(id)) ins.push_back(names[p]);
    std::string in = Join(ins, ",");
    std::string sel = DoubleToString(a.selectivity());
    const char* name = names[id].c_str();
    switch (a.kind()) {
      case ActivityKind::kSelection:
        out += StrFormat(
            "selection %s in=%s pred=%s sel=%s\n", name, in.c_str(),
            a.params_as<SelectionParams>().predicate->ToString().c_str(),
            sel.c_str());
        break;
      case ActivityKind::kNotNull:
        out += StrFormat("notnull %s in=%s attr=%s sel=%s\n", name, in.c_str(),
                         a.params_as<NotNullParams>().attr.c_str(),
                         sel.c_str());
        break;
      case ActivityKind::kDomainCheck: {
        const auto& p = a.params_as<DomainCheckParams>();
        out += StrFormat("domain %s in=%s attr=%s lo=%s hi=%s sel=%s\n", name,
                         in.c_str(), p.attr.c_str(),
                         DoubleToString(p.lo).c_str(),
                         DoubleToString(p.hi).c_str(), sel.c_str());
        break;
      }
      case ActivityKind::kPrimaryKeyCheck:
        out += StrFormat(
            "pkcheck %s in=%s keys=%s sel=%s\n", name, in.c_str(),
            Join(a.params_as<PrimaryKeyParams>().key_attrs, ",").c_str(),
            sel.c_str());
        break;
      case ActivityKind::kProjection:
        out += StrFormat(
            "project %s in=%s drop=%s\n", name, in.c_str(),
            Join(a.params_as<ProjectionParams>().drop_attrs, ",").c_str());
        break;
      case ActivityKind::kFunction: {
        const auto& p = a.params_as<FunctionParams>();
        if (p.entity_preserving) {
          out += StrFormat("inplace %s in=%s fn=%s attr=%s type=%s\n", name,
                           in.c_str(), p.function.c_str(), p.args[0].c_str(),
                           std::string(DataTypeToString(p.output_type)).c_str());
        } else {
          out += StrFormat("function %s in=%s fn=%s args=%s out=%s:%s", name,
                           in.c_str(), p.function.c_str(),
                           Join(p.args, ",").c_str(), p.output.c_str(),
                           std::string(DataTypeToString(p.output_type)).c_str());
          if (!p.drop_args.empty()) {
            out += " drop=" + Join(p.drop_args, ",");
          }
          out += "\n";
        }
        break;
      }
      case ActivityKind::kSurrogateKey: {
        const auto& p = a.params_as<SurrogateKeyParams>();
        out += StrFormat("skey %s in=%s keys=%s out=%s lut=%s", name,
                         in.c_str(), Join(p.key_attrs, ",").c_str(),
                         p.output.c_str(), p.lookup_name.c_str());
        if (!p.drop_attrs.empty()) out += " drop=" + Join(p.drop_attrs, ",");
        out += "\n";
        break;
      }
      case ActivityKind::kAggregation: {
        const auto& p = a.params_as<AggregationParams>();
        out += StrFormat("aggregate %s in=%s group=%s aggs=%s sel=%s\n", name,
                         in.c_str(), Join(p.group_by, ",").c_str(),
                         PrintAggSpecs(p.aggregates).c_str(), sel.c_str());
        break;
      }
      case ActivityKind::kUnion:
        out += StrFormat("union %s in=%s\n", name, in.c_str());
        break;
      case ActivityKind::kJoin:
        out += StrFormat("join %s in=%s keys=%s sel=%s\n", name, in.c_str(),
                         Join(a.params_as<JoinParams>().key_attrs, ",").c_str(),
                         sel.c_str());
        break;
      case ActivityKind::kDifference:
        out += StrFormat("difference %s in=%s sel=%s\n", name, in.c_str(),
                         sel.c_str());
        break;
      case ActivityKind::kIntersection:
        out += StrFormat("intersection %s in=%s sel=%s\n", name, in.c_str(),
                         sel.c_str());
        break;
    }
    append_plabel(id);
  }
  return out;
}

}  // namespace etlopt
