// Differential tests for the vectorized data plane: compiled batch kernels
// must agree with scalar Expr::Eval row for row (including SQL NULL
// semantics, division-by-zero-to-NULL, type-error rows, and short-circuit
// error behavior), the RowBatch wire codec must round-trip, and
// VectorGroupBy must drain exactly what GroupByOp drains. Expressions come
// from a hand-built corpus covering every node kind plus WHERE clauses and
// projections planned from the SQL corpus the sql/fuzz tests exercise.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "common/rng.h"
#include "exec/batch.h"
#include "exec/kernels.h"
#include "exec/operator.h"
#include "exec/operators.h"
#include "planner/planner.h"
#include "sql/parser.h"

namespace pier {
namespace exec {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;

// Column layout every random batch uses:
//   $0 ints (with NULLs)   $1 doubles (with NULLs, often integral)
//   $2 strings             $3 small ints (zeros common, for / and %)
//   $4 bools               $5 declared INT64 but sometimes strings
//                              (forces kMixed promotion)
Schema TestSchema() {
  return Schema("t", {{"a", ValueType::kInt64},
                      {"d", ValueType::kDouble},
                      {"s", ValueType::kString},
                      {"z", ValueType::kInt64},
                      {"b", ValueType::kBool},
                      {"m", ValueType::kInt64}});
}

Tuple RandomRow(Rng* rng) {
  Tuple t;
  // Bounded so int arithmetic cannot overflow (the scalar plane has the
  // same UB hazard; both planes stay inside ±2^31 here).
  t.push_back(rng->Chance(0.15)
                  ? Value::Null()
                  : Value::Int64(rng->UniformInt(-(1ll << 31), 1ll << 31)));
  if (rng->Chance(0.15)) {
    t.push_back(Value::Null());
  } else if (rng->Chance(0.5)) {
    t.push_back(Value::Double(static_cast<double>(rng->UniformInt(-100, 100))));
  } else {
    t.push_back(Value::Double(rng->UniformDouble(-1e6, 1e6)));
  }
  t.push_back(rng->Chance(0.15)
                  ? Value::Null()
                  : Value::String(std::string("s") +
                                  std::to_string(rng->UniformInt(0, 30))));
  t.push_back(rng->Chance(0.1) ? Value::Null()
                               : Value::Int64(rng->UniformInt(-3, 3)));
  t.push_back(rng->Chance(0.15) ? Value::Null()
                                : Value::Bool(rng->Chance(0.5)));
  if (rng->Chance(0.2)) {
    t.push_back(Value::String("mixed" + std::to_string(rng->UniformInt(0, 5))));
  } else if (rng->Chance(0.15)) {
    t.push_back(Value::Null());
  } else {
    t.push_back(Value::Int64(rng->UniformInt(-50, 50)));
  }
  return t;
}

struct TestBatch {
  RowBatch batch;
  std::vector<Tuple> rows;
};

TestBatch MakeBatch(Rng* rng, size_t n) {
  TestBatch tb;
  RowBatchBuilder builder(TestSchema());
  for (size_t i = 0; i < n; ++i) {
    Tuple t = RandomRow(rng);
    // Exercise both builder entry points: boxed append and the serialized
    // fast path the scan uses.
    if (rng->Chance(0.5)) {
      builder.Append(t);
    } else {
      EXPECT_TRUE(builder.AppendSerialized(catalog::TupleToBytes(t)))
          << "seed=" << rng->seed();
    }
    tb.rows.push_back(std::move(t));
  }
  tb.batch = builder.Take();
  return tb;
}

void ExpectValuesIdentical(const Value& scalar, const Value& vec,
                           const std::string& ctx) {
  EXPECT_EQ(scalar.type(), vec.type()) << ctx << " scalar=" << scalar.ToString()
                                       << " vec=" << vec.ToString();
  EXPECT_EQ(scalar.Compare(vec), 0) << ctx << " scalar=" << scalar.ToString()
                                    << " vec=" << vec.ToString();
}

/// The differential oracle: evaluates `e` both ways over every row.
void CheckExpr(const ExprPtr& e, const TestBatch& tb, uint64_t seed) {
  auto compiled = CompiledExpr::Compile(e);
  std::string ctx = "expr=" + e->ToString() + " seed=" + std::to_string(seed);

  Column out;
  Bitmap err;
  compiled->EvalColumn(tb.batch, &out, &err);
  Bitmap sel;
  compiled->EvalSelection(tb.batch, &sel);

  for (size_t i = 0; i < tb.rows.size(); ++i) {
    std::string rctx = ctx + " row=" + std::to_string(i) + " " +
                       catalog::TupleToString(tb.rows[i]);
    Value sv;
    Status ss = e->Eval(tb.rows[i], &sv);
    EXPECT_EQ(!ss.ok(), err.Get(i)) << rctx << " status=" << ss.ToString();
    if (ss.ok() && !err.Get(i)) {
      ExpectValuesIdentical(sv, out.ValueAt(i), rctx);
    }
    bool pred = false;
    Status ps = EvalPredicate(*e, tb.rows[i], &pred);
    bool scalar_keeps = ps.ok() && pred;
    EXPECT_EQ(scalar_keeps, sel.Get(i)) << rctx;
  }
}

ExprPtr Col(int i) { return Expr::Column(i); }
ExprPtr I(int64_t v) { return Expr::Literal(Value::Int64(v)); }
ExprPtr D(double v) { return Expr::Literal(Value::Double(v)); }
ExprPtr S(const std::string& v) { return Expr::Literal(Value::String(v)); }

std::vector<ExprPtr> HandCorpus() {
  std::vector<ExprPtr> c;
  // Every compare op, int column vs literal (the hot planner shape).
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    c.push_back(Expr::Compare(op, Col(0), I(100)));
    c.push_back(Expr::Compare(op, Col(1), D(3.5)));
    c.push_back(Expr::Compare(op, Col(2), S("s7")));
    c.push_back(Expr::Compare(op, Col(0), Col(3)));
    c.push_back(Expr::Compare(op, Col(0), Col(1)));  // int vs double
  }
  // Cross-type and mixed-lane comparisons.
  c.push_back(Expr::Compare(CompareOp::kEq, Col(0), S("nope")));
  c.push_back(Expr::Compare(CompareOp::kLt, Col(5), I(0)));
  c.push_back(Expr::Compare(CompareOp::kEq, Col(5), S("mixed3")));
  c.push_back(Expr::Compare(CompareOp::kGt, Col(4), Col(4)));
  // Arithmetic: every op, int/int, int/double, div and mod by zero (both
  // via the zero-heavy column and via literal zero).
  for (ArithOp op : {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                     ArithOp::kDiv, ArithOp::kMod}) {
    c.push_back(Expr::Arith(op, Col(0), Col(3)));
    c.push_back(Expr::Arith(op, Col(1), Col(3)));
    c.push_back(Expr::Arith(op, Col(0), I(7)));
    c.push_back(Expr::Arith(op, Col(1), D(2.5)));
  }
  c.push_back(Expr::Arith(ArithOp::kDiv, Col(0), I(0)));
  c.push_back(Expr::Arith(ArithOp::kMod, Col(1), I(0)));
  c.push_back(Expr::Arith(ArithOp::kDiv, I(10), Col(3)));
  // String concat, and type-error arithmetic ('a' + 1, bool math).
  c.push_back(Expr::Arith(ArithOp::kAdd, Col(2), S("-suffix")));
  c.push_back(Expr::Arith(ArithOp::kAdd, Col(2), Col(2)));
  c.push_back(Expr::Arith(ArithOp::kAdd, Col(2), I(1)));
  c.push_back(Expr::Arith(ArithOp::kMul, Col(4), I(2)));
  c.push_back(Expr::Arith(ArithOp::kAdd, Col(5), I(1)));  // mixed lane
  // Logic: short circuits hiding the error side, nested and/or/not.
  ExprPtr err_expr = Expr::Arith(ArithOp::kAdd, Col(2), I(1));
  ExprPtr erry_pred = Expr::Compare(CompareOp::kGt, err_expr, I(0));
  c.push_back(Expr::And(Expr::Compare(CompareOp::kGt, Col(0), I(0)),
                        Expr::Compare(CompareOp::kLt, Col(3), I(2))));
  c.push_back(Expr::Or(Expr::Compare(CompareOp::kGt, Col(0), I(0)),
                       Expr::Compare(CompareOp::kLt, Col(3), I(2))));
  c.push_back(Expr::And(Expr::Compare(CompareOp::kGt, Col(0), I(1) ), erry_pred));
  c.push_back(Expr::Or(Expr::Compare(CompareOp::kGt, Col(0), I(1)), erry_pred));
  c.push_back(Expr::Not(Expr::Compare(CompareOp::kEq, Col(0), Col(3))));
  c.push_back(Expr::Not(Col(4)));
  c.push_back(Expr::And(Col(4), Expr::Not(Col(4))));
  c.push_back(
      Expr::Or(Expr::And(Expr::Compare(CompareOp::kGe, Col(0), I(0)),
                         Expr::Compare(CompareOp::kLe, Col(3), I(0))),
               Expr::Not(Expr::Compare(CompareOp::kEq, Col(2), S("s1")))));
  // IS NULL family over every lane, including never-null boolean results.
  for (int col : {0, 1, 2, 3, 4, 5}) {
    c.push_back(Expr::IsNull(Col(col)));
    c.push_back(Expr::IsNull(Col(col), /*negated=*/true));
  }
  c.push_back(Expr::IsNull(Expr::Compare(CompareOp::kEq, Col(0), I(1))));
  c.push_back(Expr::IsNull(Expr::Arith(ArithOp::kDiv, Col(0), Col(3))));
  // Negate over every lane (string/bool negation errors).
  for (int col : {0, 1, 2, 4, 5}) c.push_back(Expr::Negate(Col(col)));
  c.push_back(Expr::Negate(Expr::Arith(ArithOp::kAdd, Col(0), Col(3))));
  // Literals alone, predicates over non-bool values, out-of-range columns.
  c.push_back(I(42));
  c.push_back(S("lit"));
  c.push_back(Expr::Literal(Value::Null()));
  c.push_back(Expr::Literal(Value::Bool(true)));
  c.push_back(Col(0));   // bare int column as a predicate -> all false
  c.push_back(Col(4));   // bare bool column as a predicate
  c.push_back(Col(98));  // out of range: every row errors
  c.push_back(Expr::Compare(CompareOp::kEq, Col(98), I(1)));
  c.push_back(Expr::And(Expr::Compare(CompareOp::kLt, Col(0), I(0)),
                        Expr::Compare(CompareOp::kEq, Col(98), I(1))));
  // Deep arithmetic-in-compare nesting (the planner's usual output shape).
  c.push_back(Expr::Compare(
      CompareOp::kGe,
      Expr::Arith(ArithOp::kMul,
                  Expr::Arith(ArithOp::kAdd, Col(0), I(2)), I(3)),
      Expr::Arith(ArithOp::kSub, Col(3), Expr::Negate(Col(0)))));
  return c;
}

TEST(VectorizedDifferentialTest, HandCorpusMatchesScalarPlane) {
  for (uint64_t seed : {1ull, 7ull, 20040613ull}) {
    Rng rng(seed);
    TestBatch tb = MakeBatch(&rng, 257);  // odd size: exercises bitmap tails
    for (const ExprPtr& e : HandCorpus()) CheckExpr(e, tb, seed);
  }
}

TEST(VectorizedDifferentialTest, SerializedExprsRoundTripThroughKernels) {
  // Expressions that traveled the wire (as real plans do) compile the same.
  Rng rng(99);
  TestBatch tb = MakeBatch(&rng, 64);
  for (const ExprPtr& e : HandCorpus()) {
    Writer w;
    e->Serialize(&w);
    Reader r(w.buffer());
    ExprPtr back;
    ASSERT_TRUE(Expr::Deserialize(&r, &back).ok());
    CheckExpr(back, tb, 99);
  }
}

// ---------------------------------------------------------------------------
// SQL corpus: WHERE clauses and projections planned from real query text
// (the same shapes sql_test and the e2e SQL suite run).
// ---------------------------------------------------------------------------

catalog::Catalog SqlCatalog() {
  catalog::Catalog cat;
  TableDef t;
  t.name = "t";
  t.schema = TestSchema();
  t.partition_cols = {0};
  EXPECT_TRUE(cat.Register(t).ok());
  return cat;
}

TEST(VectorizedDifferentialTest, SqlCorpusWhereAndProjectionsMatch) {
  const char* kQueries[] = {
      "SELECT a FROM t WHERE a > 100",
      "SELECT a FROM t WHERE a >= 10 AND z < 2",
      "SELECT a FROM t WHERE a + 1 * 2 = 3 AND z < 4 OR a = 5",
      "SELECT a FROM t WHERE a IS NOT NULL AND NOT z = 2",
      "SELECT a FROM t WHERE a BETWEEN 5 AND 1000",
      "SELECT a FROM t WHERE a BETWEEN 1 + 1 AND 10 AND z = 3",
      "SELECT a FROM t WHERE d >= 10.5",
      "SELECT a FROM t WHERE s = 's3' OR s = 's4'",
      "SELECT a FROM t WHERE a % 10 = 0",
      "SELECT a FROM t WHERE a / z > 3",
      "SELECT a FROM t WHERE -a < 50 AND d * 2.0 <= 100.0",
      "SELECT a FROM t WHERE s IS NULL",
      "SELECT a, a * 2, a + z, d / 2.0, s FROM t WHERE a > 0",
      "SELECT a - z, -d FROM t WHERE NOT (a < 0 OR z = 0)",
  };
  catalog::Catalog cat = SqlCatalog();
  Rng rng(424242);
  TestBatch tb = MakeBatch(&rng, 200);
  size_t exprs_checked = 0;
  for (const char* q : kQueries) {
    auto stmt = sql::Parse(q);
    ASSERT_TRUE(stmt.ok()) << q << ": " << stmt.status().ToString();
    auto plan = planner::PlanStatement(stmt.value(), cat);
    ASSERT_TRUE(plan.ok()) << q << ": " << plan.status().ToString();
    for (const query::OpNode& n : plan.value().graph.nodes) {
      if (n.type == query::OpType::kFilter) {
        CheckExpr(n.predicate, tb, 424242);
        ++exprs_checked;
      }
      for (const ExprPtr& p : n.exprs) {
        CheckExpr(p, tb, 424242);
        ++exprs_checked;
      }
    }
  }
  EXPECT_GT(exprs_checked, 20u);
}

// ---------------------------------------------------------------------------
// Codec round-trip
// ---------------------------------------------------------------------------

TEST(RowBatchCodecTest, RoundTripsRandomBatches) {
  for (uint64_t seed : {3ull, 11ull, 12345ull}) {
    Rng rng(seed);
    for (size_t n : {0ull, 1ull, 63ull, 64ull, 65ull, 300ull}) {
      TestBatch tb = MakeBatch(&rng, n);
      std::string bytes = tb.batch.EncodeToBytes();
      RowBatch back;
      ASSERT_TRUE(RowBatch::FromBytes(bytes, &back).ok())
          << "seed=" << seed << " n=" << n;
      ASSERT_EQ(back.num_rows(), n);
      ASSERT_EQ(back.num_columns(), tb.batch.num_columns());
      for (size_t i = 0; i < n; ++i) {
        Tuple t;
        back.ToTuple(i, &t);
        ASSERT_EQ(t.size(), tb.rows[i].size());
        for (size_t c = 0; c < t.size(); ++c) {
          ExpectValuesIdentical(tb.rows[i][c], t[c],
                                "codec seed=" + std::to_string(seed));
        }
      }
    }
  }
}

TEST(RowBatchCodecTest, EncodeCompactsSelection) {
  Rng rng(5);
  TestBatch tb = MakeBatch(&rng, 100);
  tb.batch.SetSelection({3, 17, 42, 99});
  RowBatch back;
  ASSERT_TRUE(RowBatch::FromBytes(tb.batch.EncodeToBytes(), &back).ok());
  ASSERT_EQ(back.num_rows(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    Tuple got, want;
    back.ToTuple(i, &got);
    size_t src = tb.batch.selection()[i];
    EXPECT_EQ(catalog::CompareTuples(got, tb.rows[src]), 0);
  }
}

// ---------------------------------------------------------------------------
// VectorGroupBy vs GroupByOp
// ---------------------------------------------------------------------------

std::vector<AggSpec> AllAggs() {
  return {
      {AggFunc::kCount, -1, "cnt"},  {AggFunc::kCount, 0, "cnt_a"},
      {AggFunc::kSum, 0, "sum_a"},   {AggFunc::kSum, 1, "sum_d"},
      {AggFunc::kAvg, 0, "avg_a"},   {AggFunc::kAvg, 1, "avg_d"},
      {AggFunc::kMin, 0, "min_a"},   {AggFunc::kMax, 2, "max_s"},
      {AggFunc::kMin, 5, "min_m"},
  };
}

/// Runs GroupByOp over `rows` and expects `vgb` (already fed the same rows)
/// to drain identically: same groups, same order, same value types.
void ExpectSameDrain(const std::vector<int>& group_cols,
                     const std::vector<AggSpec>& aggs, bool finalize,
                     const std::vector<Tuple>& rows, VectorGroupBy* vgb,
                     const std::string& ctx) {
  GroupByOp reference(group_cols, aggs,
                      finalize ? AggPhase::kComplete : AggPhase::kPartial);
  CollectorSink ref_sink;
  reference.AddOutput(&ref_sink);
  for (const Tuple& t : rows) reference.Push(t, 0);
  reference.FlushAndReset();

  std::vector<Tuple> got;
  vgb->DrainAndReset([&](Tuple& t) {
    got.push_back(std::move(t));
    return true;
  });

  ASSERT_EQ(got.size(), ref_sink.rows().size()) << ctx;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), ref_sink.rows()[i].size()) << ctx;
    for (size_t c = 0; c < got[i].size(); ++c) {
      ExpectValuesIdentical(ref_sink.rows()[i][c], got[i][c],
                            "groupby " + ctx + " group=" + std::to_string(i) +
                                " col=" + std::to_string(c));
    }
  }
}

/// Column $6 of the one-row-batch input: INT64 on most rows, DOUBLE on
/// every third, NULL on every seventh — SUM/AVG states widen from INT64 to
/// DOUBLE mid-stream, and MIN/MAX compare across the two types.
Value WideningValue(size_t i) {
  if (i % 7 == 0) return Value::Null();
  if (i % 3 == 0) return Value::Double(static_cast<double>(i) * 0.5);
  return Value::Int64(static_cast<int64_t>(i % 40) - 20);
}

void CheckGroupBy(const std::vector<int>& group_cols, bool finalize,
                  uint64_t seed) {
  Rng rng(seed);
  TestBatch tb = MakeBatch(&rng, 400);

  const std::string ctx = "seed=" + std::to_string(seed);
  VectorGroupBy vgb(group_cols, AllAggs(), finalize);
  vgb.PushBatch(tb.batch);
  ExpectSameDrain(group_cols, AllAggs(), finalize, tb.rows, &vgb, ctx);

  // The same rows one row per batch, as join output reaches a join-fed
  // AggStage. A column's lane kind then varies from batch to batch: $5
  // flips between the INT64 lane and the boxed lane (string rows under the
  // schema, NULL rows when typed by value), and the widening column $6
  // between INT64 and DOUBLE.
  std::vector<Tuple> rows = tb.rows;
  for (size_t i = 0; i < rows.size(); ++i) rows[i].push_back(WideningValue(i));
  std::vector<AggSpec> aggs = AllAggs();
  aggs.push_back({AggFunc::kSum, 6, "sum_w"});
  aggs.push_back({AggFunc::kAvg, 6, "avg_w"});
  aggs.push_back({AggFunc::kMin, 6, "min_w"});
  aggs.push_back({AggFunc::kMax, 6, "max_w"});
  aggs.push_back({AggFunc::kSum, 5, "sum_m"});
  aggs.push_back({AggFunc::kMax, 5, "max_m"});
  std::vector<catalog::Column> cols = TestSchema().columns();
  cols.push_back({"w", ValueType::kInt64});
  const Schema widened("t", cols);
  for (bool schema_typed : {true, false}) {
    VectorGroupBy one_row(group_cols, aggs, finalize);
    for (const Tuple& t : rows) {
      std::vector<ValueType> types;
      for (const Value& v : t) types.push_back(v.type());
      RowBatchBuilder builder =
          schema_typed ? RowBatchBuilder(widened) : RowBatchBuilder(types);
      builder.Append(t);
      one_row.PushBatch(builder.Take());
    }
    ExpectSameDrain(group_cols, aggs, finalize, rows, &one_row,
                    ctx + (schema_typed ? " one-row schema-typed"
                                        : " one-row value-typed"));
  }
}

TEST(VectorGroupByTest, MatchesGroupByOpPartialPhase) {
  CheckGroupBy({3}, /*finalize=*/false, 17);
  CheckGroupBy({3, 2}, /*finalize=*/false, 18);
  CheckGroupBy({}, /*finalize=*/false, 19);     // global aggregate
  CheckGroupBy({42}, /*finalize=*/false, 20);   // out-of-range group col
  CheckGroupBy({5}, /*finalize=*/false, 21);    // mixed-lane group key
}

TEST(VectorGroupByTest, MatchesGroupByOpCompletePhase) {
  CheckGroupBy({3}, /*finalize=*/true, 22);
  CheckGroupBy({3, 4}, /*finalize=*/true, 23);
  CheckGroupBy({}, /*finalize=*/true, 24);
}

TEST(VectorGroupByTest, SelectionRestrictsAccumulation) {
  Rng rng(31);
  TestBatch tb = MakeBatch(&rng, 100);
  tb.batch.SetSelection({2, 40, 41, 97});

  GroupByOp reference({3}, AllAggs(), AggPhase::kPartial);
  CollectorSink ref_sink;
  reference.AddOutput(&ref_sink);
  for (uint32_t r : tb.batch.selection()) reference.Push(tb.rows[r], 0);
  reference.FlushAndReset();

  VectorGroupBy vgb({3}, AllAggs(), /*finalize=*/false);
  vgb.PushBatch(tb.batch);
  std::vector<Tuple> got;
  vgb.DrainAndReset([&](Tuple& t) {
    got.push_back(std::move(t));
    return true;
  });
  ASSERT_EQ(got.size(), ref_sink.rows().size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(catalog::CompareTuples(got[i], ref_sink.rows()[i]), 0);
  }
}

}  // namespace
}  // namespace exec
}  // namespace pier
