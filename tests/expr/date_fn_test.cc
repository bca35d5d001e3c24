// The date scalar functions (a2e_date, e2a_date, year_of, month_of) on
// malformed and edge-case inputs: every result and every error message,
// pinned. A date has exactly three '/'-separated parts, any of them
// empty; the error messages reach users through every engine.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "expr/expr.h"

namespace etlopt {
namespace {

// "<type> <value>" for a result, "<Status::ToString()>" for an error.
std::string Call(const char* fn, const Value& arg) {
  ScalarFn f = FindScalarFunction(fn);
  if (f == nullptr) return "unregistered";
  StatusOr<Value> v = f({arg});
  if (!v.ok()) return v.status().ToString();
  return std::string(DataTypeToString(v->type())) + " " + v->ToString();
}

struct Case {
  const char* fn;
  Value arg;
  const char* want;
};

TEST(DateFnTest, EdgeCasesMatchRecordedOutputs) {
  const std::vector<Case> cases = {
      {"a2e_date", Value::String(""), "InvalidArgument: a2e_date: bad date ''"},
      {"a2e_date", Value::String("x1"),
       "InvalidArgument: a2e_date: bad date 'x1'"},
      {"a2e_date", Value::String("1/2"),
       "InvalidArgument: a2e_date: bad date '1/2'"},
      {"a2e_date", Value::String("1/2/3/4"),
       "InvalidArgument: a2e_date: bad date '1/2/3/4'"},
      {"a2e_date", Value::String("//"), "string //"},
      {"a2e_date", Value::String("/1/2"), "string 1//2"},
      {"a2e_date", Value::String("1/2/"), "string 2/1/"},
      {"a2e_date", Value::Null(), "null "},
      {"a2e_date", Value::Int(7),
       "InvalidArgument: a2e_date expects a string date"},
      {"a2e_date", Value::String("07/25/2004"), "string 25/07/2004"},
      {"a2e_date", Value::String("25/07/2004"), "string 07/25/2004"},
      {"a2e_date", Value::String("1/2/x"), "string 2/1/x"},
      {"e2a_date", Value::String(""), "InvalidArgument: e2a_date: bad date ''"},
      {"e2a_date", Value::String("x1"),
       "InvalidArgument: e2a_date: bad date 'x1'"},
      {"e2a_date", Value::String("1/2"),
       "InvalidArgument: e2a_date: bad date '1/2'"},
      {"e2a_date", Value::String("1/2/3/4"),
       "InvalidArgument: e2a_date: bad date '1/2/3/4'"},
      {"e2a_date", Value::String("//"), "string //"},
      {"e2a_date", Value::String("/1/2"), "string 1//2"},
      {"e2a_date", Value::String("1/2/"), "string 2/1/"},
      {"e2a_date", Value::Null(), "null "},
      {"e2a_date", Value::Int(7),
       "InvalidArgument: e2a_date expects a string date"},
      {"e2a_date", Value::String("07/25/2004"), "string 25/07/2004"},
      {"e2a_date", Value::String("25/07/2004"), "string 07/25/2004"},
      {"e2a_date", Value::String("1/2/x"), "string 2/1/x"},
      {"year_of", Value::String(""), "InvalidArgument: year_of: bad date ''"},
      {"year_of", Value::String("x1"),
       "InvalidArgument: year_of: bad date 'x1'"},
      {"year_of", Value::String("1/2"),
       "InvalidArgument: year_of: bad date '1/2'"},
      {"year_of", Value::String("1/2/3/4"),
       "InvalidArgument: year_of: bad date '1/2/3/4'"},
      {"year_of", Value::String("//"), "null "},
      {"year_of", Value::String("/1/2"), "int 2"},
      {"year_of", Value::String("1/2/"), "null "},
      {"year_of", Value::Null(), "null "},
      {"year_of", Value::Int(7),
       "InvalidArgument: year_of expects a string date"},
      {"year_of", Value::String("07/25/2004"), "int 2004"},
      {"year_of", Value::String("25/07/2004"), "int 2004"},
      {"year_of", Value::String("1/2/x"), "InvalidArgument: not an int: 'x'"},
      {"month_of", Value::String(""), "InvalidArgument: month_of: bad date ''"},
      {"month_of", Value::String("x1"),
       "InvalidArgument: month_of: bad date 'x1'"},
      {"month_of", Value::String("1/2"),
       "InvalidArgument: month_of: bad date '1/2'"},
      {"month_of", Value::String("1/2/3/4"),
       "InvalidArgument: month_of: bad date '1/2/3/4'"},
      {"month_of", Value::String("//"), "string /"},
      {"month_of", Value::String("/1/2"), "string 1/2"},
      {"month_of", Value::String("1/2/"), "string 2/"},
      {"month_of", Value::Null(), "null "},
      {"month_of", Value::Int(7),
       "InvalidArgument: month_of expects a string date"},
      {"month_of", Value::String("07/25/2004"), "string 25/2004"},
      {"month_of", Value::String("25/07/2004"), "string 07/2004"},
      {"month_of", Value::String("1/2/x"), "string 2/x"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Call(c.fn, c.arg), c.want) << c.fn << "(" << c.arg.ToString()
                                         << ")";
  }
}

}  // namespace
}  // namespace etlopt
