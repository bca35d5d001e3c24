// DSL robustness: malformed inputs must fail with the right status and a
// line number, never crash; valid-but-unusual inputs must parse.

#include <gtest/gtest.h>

#include <cmath>

#include "cost/state_cost.h"
#include "io/text_format.h"

namespace etlopt {
namespace {

TEST(DslEdgeTest, ErrorsCarryLineNumbers) {
  std::string text =
      "source A card=10 schema=V:double\n"
      "notnull nn in=A attr=V sel=bogus\n";
  auto w = ParseWorkflowText(text);
  ASSERT_FALSE(w.ok());
  EXPECT_NE(w.status().message().find("bogus"), std::string::npos);
}

TEST(DslEdgeTest, MissingRequiredField) {
  auto w = ParseWorkflowText(
      "source A card=10 schema=V:double\n"
      "notnull nn in=A sel=0.9\n");  // no attr=
  ASSERT_FALSE(w.ok());
  EXPECT_NE(w.status().message().find("attr"), std::string::npos);
}

TEST(DslEdgeTest, BadTypeName) {
  EXPECT_FALSE(ParseWorkflowText("source A card=10 schema=V:float\n").ok());
}

TEST(DslEdgeTest, BadSchemaField) {
  EXPECT_FALSE(ParseWorkflowText("source A card=10 schema=V\n").ok());
}

TEST(DslEdgeTest, SelectivityOutOfRangeRejected) {
  auto w = ParseWorkflowText(
      "source A card=10 schema=V:double\n"
      "notnull nn in=A attr=V sel=1.5\n"
      "target T in=nn schema=V:double\n");
  EXPECT_FALSE(w.ok());
  // Non-finite selectivities fail the range check too (NaN compares
  // false both ways, so the check must be written to fail it).
  for (const char* sel : {"nan", "inf", "-inf"}) {
    auto bad = ParseWorkflowText(
        std::string("source A card=10 schema=V:double\n"
                    "notnull nn in=A attr=V sel=") +
        sel + "\ntarget T in=nn schema=V:double\n");
    ASSERT_FALSE(bad.ok()) << sel;
    EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status().ToString();
  }
}

TEST(DslEdgeTest, NonFiniteOrNegativeCardRejected) {
  for (const char* card : {"nan", "inf", "-1"}) {
    auto w = ParseWorkflowText(std::string("source A card=") + card +
                               " schema=V:double\n"
                               "target T in=A schema=V:double\n");
    ASSERT_FALSE(w.ok()) << card;
    EXPECT_TRUE(w.status().IsInvalidArgument()) << w.status().ToString();
  }
}

// A finite but absurd card is rejected naming its line; one just under
// the limit parses and costs to a finite number.
TEST(DslEdgeTest, CardAboveLimitRejected) {
  auto huge = ParseWorkflowText(
      "source A card=1e300 schema=V:double\n"
      "target T in=A schema=V:double\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_TRUE(huge.status().IsInvalidArgument()) << huge.status().ToString();
  EXPECT_NE(huge.status().message().find("line 1"), std::string::npos)
      << huge.status().ToString();

  auto just_over = ParseWorkflowText(
      "source A card=1.0000001e15 schema=V:double\n"
      "target T in=A schema=V:double\n");
  EXPECT_TRUE(just_over.status().IsInvalidArgument())
      << just_over.status().ToString();

  auto under = ParseWorkflowText(
      "source A card=9.99e14 schema=V:double\n"
      "function f in=A fn=dollar2euro args=V out=E:double drop=V\n"
      "target T in=f schema=E:double\n");
  ASSERT_TRUE(under.ok()) << under.status().ToString();
  auto cost = StateCost(*under, LinearLogCostModel());
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_TRUE(std::isfinite(*cost));
}

// A predicate with `levels` nested parentheses: (NOT (NOT ... (V > 1))).
std::string NotChain(int levels) {
  std::string pred;
  for (int i = 1; i < levels; ++i) pred += "(NOT ";
  return pred + "(V > 1)" + std::string(levels - 1, ')');
}

TEST(DslEdgeTest, PredicateNestingLimitIsExact) {
  auto at_limit = ParsePredicate(NotChain(kMaxPredicateNesting));
  EXPECT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  auto past_limit = ParsePredicate(NotChain(kMaxPredicateNesting + 1));
  ASSERT_FALSE(past_limit.ok());
  EXPECT_TRUE(past_limit.status().IsInvalidArgument());
}

TEST(DslEdgeTest, DeeplyNestedPredicateFailsCleanly) {
  // 50,000 redundant parentheses (about 100 KB of text) once overflowed
  // the recursive-descent parser's stack.
  const int depth = 50000;
  std::string text = "source A card=10 schema=V:double\n"
                     "selection s in=A pred=" +
                     std::string(depth, '(') + "(V > 1)" +
                     std::string(depth, ')') +
                     " sel=0.5\n"
                     "target T in=s schema=V:double\n";
  auto w = ParseWorkflowText(text);
  ASSERT_FALSE(w.ok());
  EXPECT_TRUE(w.status().IsInvalidArgument()) << w.status().ToString();
}

TEST(DslEdgeTest, PredicateWithNestedParensInLine) {
  std::string text =
      "source A card=10 schema=V:double,W:double\n"
      "selection s in=A pred=((V > 1) AND ((W < 5) OR (V IS NULL))) sel=0.4\n"
      "target T in=s schema=V:double,W:double\n";
  auto w = ParseWorkflowText(text);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto printed = PrintWorkflowText(*w);
  ASSERT_TRUE(printed.ok());
  EXPECT_NE(printed->find("((V > 1) AND ((W < 5) OR (V IS NULL)))"),
            std::string::npos);
}

TEST(DslEdgeTest, StringLiteralPredicates) {
  std::string text =
      "source A card=10 schema=SRC:string,V:double\n"
      "selection s in=A pred=(SRC = 'S1') sel=0.5\n"
      "target T in=s schema=SRC:string,V:double\n";
  auto w = ParseWorkflowText(text);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto rt = ParseWorkflowText(*PrintWorkflowText(*w));
  ASSERT_TRUE(rt.ok());
  EXPECT_TRUE(rt->EquivalentTo(*w));
}

TEST(DslEdgeTest, MultiAggregateRoundTrip) {
  std::string text =
      "source A card=10 schema=K:string,V:double\n"
      "aggregate g in=A group=K aggs=SUM(V)->S,MIN(V)->MN,MAX(V)->MX,"
      "COUNT(V)->N,AVG(V)->AV sel=0.3\n"
      "target T in=g schema=K:string,S:double,MN:double,MX:double,N:int,"
      "AV:double\n";
  auto w = ParseWorkflowText(text);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto rt = ParseWorkflowText(*PrintWorkflowText(*w));
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt->Signature(), w->Signature());
}

TEST(DslEdgeTest, JoinDifferenceIntersectionRoundTrip) {
  std::string text =
      "source L card=10 schema=K:int,A:string\n"
      "source R card=10 schema=K:int,B:double\n"
      "join j in=L,R keys=K sel=0.05\n"
      "target T in=j schema=K:int,A:string,B:double\n"
      "source X card=5 schema=V:double\n"
      "source Y card=5 schema=V:double\n"
      "difference d in=X,Y sel=0.5\n"
      "source P card=5 schema=W:double\n"
      "source Q card=5 schema=W:double\n"
      "intersection i in=P,Q sel=0.5\n"
      "target T2 in=d schema=V:double\n"
      "target T3 in=i schema=W:double\n";
  auto w = ParseWorkflowText(text);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ(w->TargetRecordSets().size(), 3u);
  auto rt = ParseWorkflowText(*PrintWorkflowText(*w));
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_TRUE(rt->EquivalentTo(*w));
}

TEST(DslEdgeTest, WindowsLineEndingsAccepted) {
  std::string text =
      "source A card=10 schema=V:double\r\n"
      "notnull nn in=A attr=V sel=0.9\r\n"
      "target T in=nn schema=V:double\r\n";
  auto w = ParseWorkflowText(text);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
}

TEST(DslEdgeTest, EmptyInputRejected) {
  EXPECT_FALSE(ParseWorkflowText("").ok());
  EXPECT_FALSE(ParseWorkflowText("# only comments\n\n").ok());
}

}  // namespace
}  // namespace etlopt
