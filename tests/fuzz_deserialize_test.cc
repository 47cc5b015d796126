// Corruption-robustness property tests: every deserializer in the system
// must survive arbitrary byte garbage, truncation, and single-byte
// mutations of valid messages — returning Corruption/InvalidArgument, never
// crashing or reading out of bounds. On a public network, a PIER node's
// parsers ARE its attack surface.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

#include "catalog/schema.h"
#include "catalog/table_def.h"
#include "catalog/tuple.h"
#include "common/bloom.h"
#include "common/rng.h"
#include "exec/batch.h"
#include "exec/expr.h"
#include "index/pht.h"
#include "query/bloom_wire.h"
#include "query/exchange.h"
#include "query/plan.h"
#include "sql/parser.h"

namespace pier {
namespace {
/// Largest single heap request since the last reset: every operator new in
/// this binary passes through the replacement below, so a decode test can
/// check that no allocation was sized by a count the input merely claims.
size_t g_max_alloc = 0;
}  // namespace
}  // namespace pier

// Out of line, so the compiler never pairs an inlined malloc with a
// delete-expression (or free with a new-expression) at a call site.
__attribute__((noinline)) void* operator new(std::size_t n) {
  if (n > pier::g_max_alloc) pier::g_max_alloc = n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace pier {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  size_t n = rng->NextBelow(max_len + 1);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->NextBelow(256));
  return out;
}

// A representative valid encoding of each wire structure.
std::string ValidTupleBytes() {
  return catalog::TupleToBytes(
      {Value::Int64(1322), Value::String("BAD-TRAFFIC"), Value::Double(1.5),
       Value::Null(), Value::Bool(true)});
}

query::QueryPlan ValidPlan() {
  query::QueryPlan plan;
  plan.graph = query::AggregateGraph(
      "snort_alerts",
      catalog::Schema("snort_alerts", {{"rule_id", ValueType::kInt64},
                                       {"hits", ValueType::kInt64}}),
      {0}, {{exec::AggFunc::kSum, 1, "total"}}, query::AggStrategy::kTree,
      exec::Expr::Compare(exec::CompareOp::kGt, exec::Expr::Column(1),
                          exec::Expr::Literal(Value::Int64(0))));
  plan.graph.nodes.back().order_col = 1;
  plan.graph.nodes.back().limit = 10;
  plan.every = Seconds(10);
  plan.budget.max_result_rows = 500;
  return plan;
}

std::string ValidPlanBytes() {
  Writer w;
  ValidPlan().Serialize(&w);
  return w.Release();
}

template <typename Fn>
void NoCrashOnGarbage(Fn parse, int iterations, size_t max_len,
                      uint64_t seed) {
  // Any crash/sanitizer report in here names the replay seed via the trace.
  SCOPED_TRACE("NoCrashOnGarbage seed " + std::to_string(seed));
  Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    std::string bytes = RandomBytes(&rng, max_len);
    parse(bytes);  // must return, never crash
  }
}

template <typename Fn>
void NoCrashOnMutation(Fn parse, const std::string& valid, uint64_t seed) {
  SCOPED_TRACE("NoCrashOnMutation seed " + std::to_string(seed));
  Rng rng(seed);
  // Every truncation point.
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    parse(valid.substr(0, cut));
  }
  // Many single-byte mutations.
  for (int i = 0; i < 500; ++i) {
    std::string mutated = valid;
    size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] = static_cast<char>(rng.NextBelow(256));
    parse(mutated);
  }
}

TEST(FuzzDeserialize, TupleGarbage) {
  auto parse = [](const std::string& b) {
    catalog::Tuple t;
    (void)catalog::TupleFromBytes(b, &t);
  };
  NoCrashOnGarbage(parse, 3000, 64, 1);
  NoCrashOnMutation(parse, ValidTupleBytes(), 2);
}

TEST(FuzzDeserialize, ValueGarbage) {
  NoCrashOnGarbage(
      [](const std::string& b) {
        Reader r(b);
        Value v;
        (void)Value::Deserialize(&r, &v);
      },
      3000, 32, 3);
}

TEST(FuzzDeserialize, SchemaGarbage) {
  catalog::Schema valid_schema(
      "alerts", {{"rule_id", ValueType::kInt64}, {"d", ValueType::kString}});
  Writer w;
  valid_schema.Serialize(&w);
  auto parse = [](const std::string& b) {
    Reader r(b);
    catalog::Schema s;
    (void)catalog::Schema::Deserialize(&r, &s);
  };
  NoCrashOnGarbage(parse, 2000, 64, 4);
  NoCrashOnMutation(parse, w.buffer(), 5);
}

TEST(FuzzDeserialize, ExprGarbage) {
  auto original = exec::Expr::And(
      exec::Expr::Compare(exec::CompareOp::kGt, exec::Expr::Column(0),
                          exec::Expr::Literal(Value::Int64(5))),
      exec::Expr::IsNull(exec::Expr::Column(1)));
  Writer w;
  original->Serialize(&w);
  auto parse = [](const std::string& b) {
    Reader r(b);
    exec::ExprPtr e;
    (void)exec::Expr::Deserialize(&r, &e);
  };
  NoCrashOnGarbage(parse, 3000, 48, 6);
  NoCrashOnMutation(parse, w.buffer(), 7);
}

TEST(FuzzDeserialize, ExprDepthBombRejected) {
  // 1000 nested NOTs: must hit the depth limit, not the stack limit.
  std::string bytes(1000, '\x07');  // kNot tag repeated
  Reader r(bytes);
  exec::ExprPtr e;
  EXPECT_FALSE(exec::Expr::Deserialize(&r, &e).ok());
}

TEST(FuzzDeserialize, QueryPlanGarbage) {
  auto parse = [](const std::string& b) {
    Reader r(b);
    query::QueryPlan p;
    (void)query::QueryPlan::Deserialize(&r, &p);
  };
  NoCrashOnGarbage(parse, 2000, 200, 8);
  NoCrashOnMutation(parse, ValidPlanBytes(), 9);
}

std::string ValidOpGraphBytes() {
  query::OpGraph g = ValidPlan().graph;
  EXPECT_TRUE(g.Validate().ok());
  Writer w;
  g.Serialize(&w);
  return w.Release();
}

/// A structurally valid graph with one node of each of the nine OpTypes,
/// every node's own field group holding non-default values (the dataflow
/// is nonsense; only the wire form matters here).
query::OpGraph AllOpTypesGraph() {
  using exec::Expr;
  catalog::Schema schema(
      "metrics", {{"host", ValueType::kString}, {"v", ValueType::kInt64}});
  query::OpGraph g;
  query::OpNode index_scan;
  index_scan.type = query::OpType::kIndexScan;
  index_scan.table = "metrics";
  index_scan.schema = schema;
  index_scan.index_col = 1;
  index_scan.index_lo = Value::Int64(10);
  index_scan.index_hi = Value::Int64(99);
  g.nodes.push_back(std::move(index_scan));  // 0
  query::OpNode filter;
  filter.type = query::OpType::kFilter;
  filter.inputs = {0};
  filter.predicate = Expr::Compare(exec::CompareOp::kGe, Expr::Column(1),
                                   Expr::Literal(Value::Int64(10)));
  g.nodes.push_back(std::move(filter));  // 1
  query::OpNode project = query::ProjectOp(
      {Expr::Column(1), Expr::Column(0)});
  project.inputs = {1};
  project.out = query::ExchangeKind::kRehash;
  g.nodes.push_back(std::move(project));  // 2
  query::OpNode scan = query::ScanOp("links", schema);
  scan.out = query::ExchangeKind::kRehash;
  g.nodes.push_back(std::move(scan));  // 3
  query::OpNode join =
      query::JoinOp(query::JoinStrategy::kBloom, {0, 1}, {1, 0});
  join.inputs = {2, 3};
  g.nodes.push_back(std::move(join));  // 4
  query::OpNode rec;
  rec.type = query::OpType::kRecurse;
  rec.inputs = {4};
  rec.src_col = 2;
  rec.dst_col = 3;
  rec.max_hops = 5;
  rec.predicate = Expr::IsNull(Expr::Column(0), /*negated=*/true);
  g.nodes.push_back(std::move(rec));  // 5
  query::OpNode partial;
  partial.type = query::OpType::kPartialAgg;
  partial.inputs = {5};
  partial.out = query::ExchangeKind::kTree;
  partial.group_cols = {1};
  partial.aggs = {{exec::AggFunc::kMax, 2, "hops"},
                  {exec::AggFunc::kCount, -1, "n"}};
  g.nodes.push_back(std::move(partial));  // 6
  query::OpNode final_agg = query::FinalAggOp(
      {1}, {{exec::AggFunc::kMax, 2, "hops"}, {exec::AggFunc::kCount, -1, "n"}},
      Expr::Compare(exec::CompareOp::kGt, Expr::Column(2),
                    Expr::Literal(Value::Int64(1))));
  final_agg.inputs = {6};
  g.nodes.push_back(std::move(final_agg));  // 7
  query::OpNode collect = query::CollectOp();
  collect.inputs = {7};
  collect.distinct = true;
  collect.final_projection = {2, 0, 1};
  collect.order_col = 1;
  collect.order_desc = true;
  collect.limit = 7;
  g.nodes.push_back(std::move(collect));  // 8
  EXPECT_TRUE(g.Validate().ok()) << g.Validate().ToString();
  return g;
}

std::string AllOpTypesGraphBytes() {
  Writer w;
  AllOpTypesGraph().Serialize(&w);
  return w.Release();
}

TEST(FuzzDeserialize, OpGraphGarbage) {
  auto parse = [](const std::string& b) {
    Reader r(b);
    query::OpGraph g;
    (void)query::OpGraph::Deserialize(&r, &g);
  };
  NoCrashOnGarbage(parse, 2000, 256, 16);
  NoCrashOnMutation(parse, ValidOpGraphBytes(), 17);
  NoCrashOnMutation(parse, AllOpTypesGraphBytes(), 24);
}

TEST(FuzzDeserialize, OpGraphTruncationsAllRejected) {
  // Graph bytes end exactly at the last node, so every strict prefix must
  // fail with a Status — never crash, never "succeed" on partial input —
  // whichever node type's field group the cut lands in.
  for (const std::string& valid :
       {ValidOpGraphBytes(), AllOpTypesGraphBytes()}) {
    for (size_t cut = 0; cut < valid.size(); ++cut) {
      std::string truncated = valid.substr(0, cut);
      Reader r(truncated);
      query::OpGraph g;
      EXPECT_FALSE(query::OpGraph::Deserialize(&r, &g).ok()) << "cut=" << cut;
    }
  }
}

TEST(FuzzDeserialize, OpGraphRoundTripsByteIdentical) {
  for (const std::string& valid :
       {ValidOpGraphBytes(), AllOpTypesGraphBytes()}) {
    Reader r(valid);
    query::OpGraph g;
    ASSERT_TRUE(query::OpGraph::Deserialize(&r, &g).ok());
    ASSERT_TRUE(g.Validate().ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(g.nodes.back().type, query::OpType::kCollect);
    Writer w;
    g.Serialize(&w);
    EXPECT_EQ(w.buffer(), valid);
  }
}

TEST(FuzzDeserialize, EveryOpTypeFieldGroupSurvivesTheWire) {
  const query::OpGraph want = AllOpTypesGraph();
  std::string bytes = AllOpTypesGraphBytes();
  Reader r(bytes);
  query::OpGraph g;
  ASSERT_TRUE(query::OpGraph::Deserialize(&r, &g).ok());
  ASSERT_EQ(g.size(), 9u);
  for (size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.nodes[i].type, want.nodes[i].type) << i;
    EXPECT_EQ(g.nodes[i].inputs, want.nodes[i].inputs) << i;
    EXPECT_EQ(g.nodes[i].out, want.nodes[i].out) << i;
    // The EXPLAIN line renders each type's own field group.
    EXPECT_EQ(g.nodes[i].ToString(), want.nodes[i].ToString()) << i;
  }
  const query::OpNode& index_scan = g.nodes[0];
  EXPECT_EQ(index_scan.table, "metrics");
  EXPECT_EQ(index_scan.schema.num_columns(), 2u);
  EXPECT_EQ(index_scan.index_col, 1);
  EXPECT_EQ(index_scan.index_lo, Value::Int64(10));
  EXPECT_EQ(index_scan.index_hi, Value::Int64(99));
  EXPECT_EQ(g.nodes[1].predicate->ToString(),
            want.nodes[1].predicate->ToString());
  EXPECT_EQ(g.nodes[2].exprs.size(), 2u);
  EXPECT_EQ(g.nodes[3].table, "links");
  EXPECT_EQ(g.nodes[3].schema.num_columns(), 2u);
  EXPECT_EQ(g.nodes[4].strategy, query::JoinStrategy::kBloom);
  EXPECT_EQ(g.nodes[4].left_keys, (std::vector<int>{0, 1}));
  EXPECT_EQ(g.nodes[4].right_keys, (std::vector<int>{1, 0}));
  EXPECT_EQ(g.nodes[5].src_col, 2);
  EXPECT_EQ(g.nodes[5].dst_col, 3);
  EXPECT_EQ(g.nodes[5].max_hops, 5);
  EXPECT_NE(g.nodes[5].predicate, nullptr);
  for (size_t agg : {6, 7}) {
    EXPECT_EQ(g.nodes[agg].group_cols, std::vector<int>{1});
    ASSERT_EQ(g.nodes[agg].aggs.size(), 2u);
    EXPECT_EQ(g.nodes[agg].aggs[0].fn, exec::AggFunc::kMax);
    EXPECT_EQ(g.nodes[agg].aggs[0].col, 2);
  }
  EXPECT_NE(g.nodes[7].having, nullptr);
  const query::OpNode& collect = g.nodes[8];
  EXPECT_TRUE(collect.distinct);
  EXPECT_EQ(collect.final_projection, (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(collect.order_col, 1);
  EXPECT_TRUE(collect.order_desc);
  EXPECT_EQ(collect.limit, 7);
}

TEST(FuzzDeserialize, OpNodeWritesOnlyItsOwnFieldGroup) {
  // Fields of other types' groups never reach the wire: a scan carrying
  // stale index-scan, join and collect fields encodes exactly like a clean
  // one, and decodes with those fields at their defaults.
  query::OpNode clean = query::ScanOp(
      "t", catalog::Schema("t", {{"a", ValueType::kInt64}}));
  query::OpNode dirty = clean;
  dirty.index_col = 3;
  dirty.index_lo = Value::Int64(1);
  dirty.left_keys = {0};
  dirty.limit = 9;
  dirty.predicate = exec::Expr::Literal(Value::Bool(true));
  Writer wc, wd;
  clean.Serialize(&wc);
  dirty.Serialize(&wd);
  EXPECT_EQ(wd.buffer(), wc.buffer());
  Reader r(wd.buffer());
  query::OpNode back = dirty;  // decoding resets every other group
  ASSERT_TRUE(query::OpNode::Deserialize(&r, &back).ok());
  EXPECT_EQ(back.index_col, 0);
  EXPECT_TRUE(back.index_lo.is_null());
  EXPECT_TRUE(back.left_keys.empty());
  EXPECT_EQ(back.limit, -1);
  EXPECT_EQ(back.predicate, nullptr);
}

TEST(FuzzDeserialize, MalformedOpGraphStructureRejected) {
  // Structurally corrupt graphs must be rejected by Validate, which
  // deserialization applies: a forward edge...
  query::OpGraph fwd;
  fwd.nodes.resize(2);
  fwd.nodes[0].type = query::OpType::kScan;
  fwd.nodes[0].table = "t";
  fwd.nodes[0].inputs = {};
  fwd.nodes[1].type = query::OpType::kCollect;
  fwd.nodes[1].inputs = {1};  // self/forward reference
  Writer w1;
  fwd.Serialize(&w1);
  {
    Reader r(w1.buffer());
    query::OpGraph g;
    EXPECT_FALSE(query::OpGraph::Deserialize(&r, &g).ok());
  }
  // ...and a graph whose root is not a collect.
  query::OpGraph noroot;
  noroot.nodes.resize(1);
  noroot.nodes[0].type = query::OpType::kScan;
  noroot.nodes[0].table = "t";
  Writer w2;
  noroot.Serialize(&w2);
  {
    Reader r(w2.buffer());
    query::OpGraph g;
    EXPECT_FALSE(query::OpGraph::Deserialize(&r, &g).ok());
  }
}

TEST(FuzzDeserialize, PlanWithGraphRoundTrips) {
  // The plan broadcast is the graph plus every/window/budget.
  std::string plan_bytes = ValidPlanBytes();
  Reader r(plan_bytes);
  query::QueryPlan back;
  ASSERT_TRUE(query::QueryPlan::Deserialize(&r, &back).ok());
  EXPECT_TRUE(r.AtEnd());
  ASSERT_FALSE(back.graph.empty());
  EXPECT_TRUE(back.graph.Validate().ok());
  EXPECT_EQ(back.graph.size(), ValidPlan().graph.size());
  Writer w;
  back.Serialize(&w);
  EXPECT_EQ(w.buffer(), plan_bytes);
}

TEST(FuzzDeserialize, PlanRoundTripSurvivesAndMatches) {
  // Sanity inside the fuzz suite: the *valid* plan still round-trips.
  std::string bytes = ValidPlanBytes();
  Reader r(bytes);
  query::QueryPlan p;
  ASSERT_TRUE(query::QueryPlan::Deserialize(&r, &p).ok());
  const query::OpGraph& g = p.graph;
  ASSERT_TRUE(g.Has(query::OpType::kFinalAgg));
  EXPECT_EQ(g.nodes[0].type, query::OpType::kScan);
  EXPECT_EQ(g.nodes[0].table, "snort_alerts");
  EXPECT_EQ(g.nodes[g.FindFirst(query::OpType::kFinalAgg)].aggs.size(), 1u);
  EXPECT_EQ(g.nodes.back().limit, 10);
  ASSERT_TRUE(g.Has(query::OpType::kFilter));
  EXPECT_NE(g.nodes[g.FindFirst(query::OpType::kFilter)].predicate, nullptr);
  EXPECT_EQ(p.every, Seconds(10));
  EXPECT_EQ(p.budget.max_result_rows, 500u);
}

TEST(FuzzDeserialize, PlanWithoutGraphRejected) {
  // An empty graph cannot execute, so it is refused on the wire instead of
  // installing a plan with nothing to run.
  query::QueryPlan empty;
  Writer w;
  empty.Serialize(&w);
  Reader r(w.buffer());
  query::QueryPlan back;
  EXPECT_FALSE(query::QueryPlan::Deserialize(&r, &back).ok());
}

std::string ValidIndexGraphBytes() {
  // The planner's index-scan shape: index-scan -> filter -> collect.
  query::OpGraph g;
  query::OpNode scan;
  scan.type = query::OpType::kIndexScan;
  scan.table = "metrics";
  scan.schema = catalog::Schema(
      "metrics", {{"host", ValueType::kString}, {"v", ValueType::kInt64}});
  scan.index_col = 1;
  scan.index_lo = Value::Int64(10);
  scan.index_hi = Value::Int64(99);
  g.nodes.push_back(std::move(scan));
  query::OpNode f;
  f.type = query::OpType::kFilter;
  f.predicate = exec::Expr::Compare(exec::CompareOp::kGe,
                                    exec::Expr::Column(1),
                                    exec::Expr::Literal(Value::Int64(10)));
  f.inputs = {0};
  f.out = query::ExchangeKind::kToOrigin;
  g.nodes.push_back(std::move(f));
  query::OpNode collect;
  collect.type = query::OpType::kCollect;
  collect.inputs = {1};
  g.nodes.push_back(std::move(collect));
  EXPECT_TRUE(g.Validate().ok());
  Writer w;
  g.Serialize(&w);
  return w.Release();
}

TEST(FuzzDeserialize, IndexScanGraphGarbage) {
  auto parse = [](const std::string& b) {
    Reader r(b);
    query::OpGraph g;
    (void)query::OpGraph::Deserialize(&r, &g);
  };
  NoCrashOnGarbage(parse, 2000, 256, 18);
  NoCrashOnMutation(parse, ValidIndexGraphBytes(), 19);
}

TEST(FuzzDeserialize, IndexScanGraphRoundTripsByteIdentical) {
  std::string valid = ValidIndexGraphBytes();
  Reader r(valid);
  query::OpGraph g;
  ASSERT_TRUE(query::OpGraph::Deserialize(&r, &g).ok());
  ASSERT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.nodes[0].type, query::OpType::kIndexScan);
  EXPECT_EQ(g.nodes[0].index_lo, Value::Int64(10));
  EXPECT_EQ(g.nodes[0].index_hi, Value::Int64(99));
  Writer w;
  g.Serialize(&w);
  EXPECT_EQ(w.buffer(), valid);
  // Every strict prefix must fail, never crash or accept partial input.
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    std::string truncated = valid.substr(0, cut);
    Reader rt(truncated);
    query::OpGraph gt;
    EXPECT_FALSE(query::OpGraph::Deserialize(&rt, &gt).ok()) << "cut=" << cut;
  }
}

TEST(FuzzDeserialize, MalformedIndexScanGraphRejected) {
  // Index column outside the schema...
  query::OpGraph g;
  std::string valid = ValidIndexGraphBytes();
  {
    Reader r(valid);
    ASSERT_TRUE(query::OpGraph::Deserialize(&r, &g).ok());
  }
  g.nodes[0].index_col = 7;
  Writer w;
  g.Serialize(&w);
  {
    Reader r(w.buffer());
    query::OpGraph bad;
    EXPECT_FALSE(query::OpGraph::Deserialize(&r, &bad).ok());
  }
  // ...and an index scan emitting into a rehash exchange (it must stay at
  // the origin) are both structurally rejected.
  g.nodes[0].index_col = 1;
  g.nodes[0].out = query::ExchangeKind::kRehash;
  Writer w2;
  g.Serialize(&w2);
  {
    Reader r(w2.buffer());
    query::OpGraph bad;
    EXPECT_FALSE(query::OpGraph::Deserialize(&r, &bad).ok());
  }
}

TEST(FuzzDeserialize, PhtEntryGarbage) {
  index::PhtEntry valid;
  valid.key = 0x8000000000001234ull;
  valid.tuple_bytes = ValidTupleBytes();
  Writer w;
  valid.Serialize(&w);
  auto parse = [](const std::string& b) {
    Reader r(b);
    index::PhtEntry e;
    (void)index::PhtEntry::Deserialize(&r, &e);
  };
  NoCrashOnGarbage(parse, 3000, 96, 20);
  NoCrashOnMutation(parse, w.buffer(), 21);
  // Round trip.
  Reader r(w.buffer());
  index::PhtEntry back;
  ASSERT_TRUE(index::PhtEntry::Deserialize(&r, &back).ok());
  EXPECT_EQ(back.key, valid.key);
  EXPECT_EQ(back.tuple_bytes, valid.tuple_bytes);
}

TEST(FuzzDeserialize, PhtMarkerGarbage) {
  Writer w;
  index::PhtNodeRecord rec;
  rec.internal = true;
  rec.Serialize(&w);
  auto parse = [](const std::string& b) {
    Reader r(b);
    index::PhtNodeRecord m;
    (void)index::PhtNodeRecord::Deserialize(&r, &m);
  };
  NoCrashOnGarbage(parse, 2000, 16, 22);
  NoCrashOnMutation(parse, w.buffer(), 23);
  Reader r(w.buffer());
  index::PhtNodeRecord back;
  ASSERT_TRUE(index::PhtNodeRecord::Deserialize(&r, &back).ok());
  EXPECT_TRUE(back.internal);
  // Unknown marker tags are Corruption, not a third state.
  std::string bad_tag(1, '\x09');
  Reader bad(bad_tag);
  EXPECT_FALSE(index::PhtNodeRecord::Deserialize(&bad, &back).ok());
}

TEST(FuzzDeserialize, BloomGarbage) {
  BloomFilter valid(512, 5);
  valid.Add(42);
  Writer w;
  valid.Serialize(&w);
  auto parse = [](const std::string& b) {
    Reader r(b);
    BloomFilter f(64, 1);
    (void)BloomFilter::Deserialize(&r, &f);
  };
  NoCrashOnGarbage(parse, 2000, 128, 10);
  NoCrashOnMutation(parse, w.buffer(), 11);
}

TEST(FuzzDeserialize, TableDefGarbage) {
  catalog::TableDef def;
  def.name = "t";
  def.schema = catalog::Schema("t", {{"a", ValueType::kInt64}});
  def.partition_cols = {0};
  def.indexes = {catalog::IndexDef{0, 8}};
  Writer w;
  def.Serialize(&w);
  {
    Reader r(w.buffer());
    catalog::TableDef back;
    ASSERT_TRUE(catalog::TableDef::Deserialize(&r, &back).ok());
    ASSERT_EQ(back.indexes.size(), 1u);
    EXPECT_EQ(back.indexes[0], (catalog::IndexDef{0, 8}));
  }
  auto parse = [](const std::string& b) {
    Reader r(b);
    catalog::TableDef d;
    (void)catalog::TableDef::Deserialize(&r, &d);
  };
  NoCrashOnGarbage(parse, 2000, 64, 12);
  NoCrashOnMutation(parse, w.buffer(), 13);
}

// A representative column-major RowBatch frame: every column kind, plus
// nulls in each lane.
std::string ValidRowBatchBytes() {
  exec::RowBatchBuilder builder(std::vector<ValueType>{
      ValueType::kInt64, ValueType::kString, ValueType::kDouble,
      ValueType::kBool});
  builder.Append({Value::Int64(1322), Value::String("BAD-TRAFFIC"),
                  Value::Double(1.5), Value::Bool(true)});
  builder.Append(
      {Value::Null(), Value::String(""), Value::Null(), Value::Bool(false)});
  builder.Append({Value::Int64(-7), Value::String("scan"), Value::Double(0.0),
                  Value::Null()});
  return builder.Take().EncodeToBytes();
}

TEST(FuzzDeserialize, RowBatchGarbage) {
  auto parse = [](const std::string& b) {
    exec::RowBatch batch;
    (void)exec::RowBatch::FromBytes(b, &batch);
  };
  NoCrashOnGarbage(parse, 3000, 128, 30);
  NoCrashOnMutation(parse, ValidRowBatchBytes(), 31);
}

TEST(FuzzDeserialize, RowBatchRoundTripsByteIdentical) {
  std::string bytes = ValidRowBatchBytes();
  exec::RowBatch back;
  ASSERT_TRUE(exec::RowBatch::FromBytes(bytes, &back).ok());
  ASSERT_EQ(back.num_rows(), 3u);
  ASSERT_EQ(back.num_columns(), 4u);
  catalog::Tuple t;
  back.ToTuple(0, &t);
  EXPECT_EQ(t[0].int64_value(), 1322);
  EXPECT_EQ(t[1].string_value(), "BAD-TRAFFIC");
  back.ToTuple(1, &t);
  EXPECT_TRUE(t[0].is_null());
  EXPECT_TRUE(t[2].is_null());
  EXPECT_EQ(bytes, back.EncodeToBytes());
}

// The int lane is zigzag varints: the extremes and the small values a
// fixed-width lane wasted bytes on all survive the wire exactly.
TEST(FuzzDeserialize, RowBatchInt64LaneRoundTripsByteIdentical) {
  const int64_t kValues[] = {std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max(), -1, 0};
  exec::RowBatchBuilder builder(std::vector<ValueType>{ValueType::kInt64});
  for (int64_t v : kValues) builder.Append({Value::Int64(v)});
  builder.Append({Value::Null()});
  std::string bytes = builder.Take().EncodeToBytes();
  exec::RowBatch back;
  ASSERT_TRUE(exec::RowBatch::FromBytes(bytes, &back).ok());
  ASSERT_EQ(back.num_rows(), 5u);
  ASSERT_EQ(back.column(0).kind(), exec::Column::Kind::kInt64);
  catalog::Tuple t;
  for (size_t i = 0; i < 4; ++i) {
    back.ToTuple(i, &t);
    ASSERT_EQ(t[0].type(), ValueType::kInt64);
    EXPECT_EQ(t[0].int64_value(), kValues[i]);
  }
  back.ToTuple(4, &t);
  EXPECT_TRUE(t[0].is_null());
  EXPECT_EQ(bytes, back.EncodeToBytes());
  // Header (version, rows, cols) + kind + validity + 10 + 10 + 1 + 1 + 1:
  // each extreme takes ten varint bytes, -1, 0 and the NULL slot one each.
  EXPECT_EQ(bytes.size(), 3u + 1u + 1u + 23u);
}

// A one-column int batch header claiming `rows` rows, with its validity
// bitmap (all valid) present and `tail` after it.
std::string IntBatchFrame(uint32_t rows, const std::string& tail) {
  // An empty batch encodes as [wire version][0 rows][0 columns].
  std::string empty = exec::RowBatch().EncodeToBytes();
  Writer w;
  w.PutU8(static_cast<uint8_t>(empty[0]));
  w.PutVarint32(rows);
  w.PutVarint32(1);
  w.PutU8(static_cast<uint8_t>(exec::Column::Kind::kInt64));
  std::string validity((rows + 7) / 8, '\xff');
  w.PutRaw(validity.data(), validity.size());
  w.PutRaw(tail.data(), tail.size());
  return w.Release();
}

TEST(FuzzDeserialize, MalformedInt64LaneIsCorruption) {
  auto decode = [](const std::string& bytes) {
    exec::RowBatch b;
    return exec::RowBatch::FromBytes(bytes, &b);
  };
  // The valid frame the malformed ones are cut from.
  ASSERT_TRUE(decode(IntBatchFrame(1, "\x02")).ok());
  // Truncated: a continuation byte, then the frame ends.
  EXPECT_TRUE(decode(IntBatchFrame(1, "\x80")).IsCorruption());
  // Overlong: ten continuation bytes before the stop byte (11 bytes).
  EXPECT_TRUE(decode(IntBatchFrame(1, std::string(10, '\x80') + '\x01'))
                  .IsCorruption());
  // A frame that claims far more rows than it has bytes for is rejected
  // before any lane is sized by the claim: the largest allocation stays
  // below the claimed row count (the bitmap, backed by real input bytes,
  // is an eighth of it).
  const uint32_t kClaimed = 1u << 20;
  std::string frame = IntBatchFrame(kClaimed, std::string(64, '\x02'));
  g_max_alloc = 0;
  Status s = decode(frame);
  size_t peak = g_max_alloc;
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_LT(peak, kClaimed);
  // Same claim without even the bitmap's bytes: nothing near it at all.
  std::string bare = IntBatchFrame(kClaimed, "").substr(0, 8);
  g_max_alloc = 0;
  s = decode(bare);
  peak = g_max_alloc;
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_LT(peak, 4096u);
}

// Every rehash put is one [side][RowBatch] frame; its one decoder must
// survive arbitrary corruption.
TEST(FuzzDeserialize, ExchangeBatchFrameGarbage) {
  std::string frame = "\x01" + ValidRowBatchBytes();
  auto parse = [](const std::string& b) {
    dht::StoredItem item;
    item.value = b;
    int side = 0;
    exec::RowBatch batch;
    (void)query::RehashExchange::DecodeArrival(item, &side, &batch);
  };
  NoCrashOnGarbage(parse, 3000, 128, 32);
  NoCrashOnMutation(parse, frame, 33);
  // The valid frame itself decodes; a bad side byte or trailing bytes do
  // not.
  dht::StoredItem item;
  item.value = frame;
  int side = -1;
  exec::RowBatch batch;
  ASSERT_TRUE(query::RehashExchange::DecodeArrival(item, &side, &batch).ok());
  EXPECT_EQ(side, 1);
  EXPECT_EQ(batch.num_rows(), 3u);
  item.value = "\x02" + ValidRowBatchBytes();
  EXPECT_TRUE(
      query::RehashExchange::DecodeArrival(item, &side, &batch).IsCorruption());
  item.value = frame + '\0';
  EXPECT_TRUE(
      query::RehashExchange::DecodeArrival(item, &side, &batch).IsCorruption());
}

// The Bloom filter wave's two frame bodies (kBloomPart member->origin,
// kBloomDist origin->members). These arrive from arbitrary peers on the
// open network, and the dist frame's verdict decides whether nodes may
// SUPPRESS rows — a hostile frame must never parse into an authorization
// the sender did not earn.
std::string ValidBloomPartBytes() {
  query::BloomPartFrame f;
  f.qid = 77;
  f.join_node = 2;
  f.left = BloomFilter(512, 3);
  f.right = BloomFilter(512, 3);
  f.left.Add(42);
  f.right.Add(1322);
  Writer w;
  f.Serialize(&w);
  return w.Release();
}

std::string ValidBloomDistBytes(bool complete) {
  query::BloomDistFrame f;
  f.qid = 77;
  f.join_node = 2;
  f.parts_expected = 8;
  f.parts_reported = complete ? 8 : 5;
  f.complete = complete;
  f.left = BloomFilter(512, 3);
  f.right = BloomFilter(512, 3);
  f.left.Add(42);
  Writer w;
  f.Serialize(&w);
  return w.Release();
}

TEST(FuzzDeserialize, BloomPartFrameGarbage) {
  auto parse = [](const std::string& b) {
    Reader r(b);
    query::BloomPartFrame f;
    (void)query::BloomPartFrame::Deserialize(&r, &f);
  };
  NoCrashOnGarbage(parse, 3000, 160, 34);
  NoCrashOnMutation(parse, ValidBloomPartBytes(), 35);
  // The valid frame itself decodes with its filters intact.
  std::string valid = ValidBloomPartBytes();
  Reader r(valid);
  query::BloomPartFrame back;
  ASSERT_TRUE(query::BloomPartFrame::Deserialize(&r, &back).ok());
  EXPECT_EQ(back.qid, 77u);
  EXPECT_EQ(back.join_node, 2u);
  EXPECT_TRUE(back.left.MayContain(42));
  EXPECT_TRUE(back.right.MayContain(1322));
}

TEST(FuzzDeserialize, BloomDistFrameGarbage) {
  auto parse = [](const std::string& b) {
    Reader r(b);
    query::BloomDistFrame f;
    (void)query::BloomDistFrame::Deserialize(&r, &f);
  };
  NoCrashOnGarbage(parse, 3000, 160, 36);
  NoCrashOnMutation(parse, ValidBloomDistBytes(true), 37);
  NoCrashOnMutation(parse, ValidBloomDistBytes(false), 38);
  std::string valid = ValidBloomDistBytes(true);
  Reader r(valid);
  query::BloomDistFrame back;
  ASSERT_TRUE(query::BloomDistFrame::Deserialize(&r, &back).ok());
  EXPECT_TRUE(back.complete);
  EXPECT_EQ(back.parts_expected, 8u);
  EXPECT_TRUE(back.left.MayContain(42));
}

TEST(FuzzDeserialize, BloomDistUnderReportedCompletenessRejected) {
  // A frame claiming complete=true while admitting fewer parts than
  // expected is self-contradictory: parsing must refuse it outright so a
  // forged verdict can never authorize suppression downstream.
  query::BloomDistFrame f;
  f.qid = 77;
  f.join_node = 2;
  f.parts_expected = 8;
  f.parts_reported = 5;
  f.complete = true;
  Writer w;
  f.Serialize(&w);
  Reader r(w.buffer());
  query::BloomDistFrame back;
  EXPECT_FALSE(query::BloomDistFrame::Deserialize(&r, &back).ok());
}

TEST(FuzzSql, ParserSurvivesGarbageText) {
  Rng rng(14);
  const std::string alphabet =
      "SELECT FROM WHERE GROUP BY ORDER LIMIT ()*,.;'0123456789abc<>=+- ";
  for (int i = 0; i < 2000; ++i) {
    size_t n = rng.NextBelow(80);
    std::string text;
    for (size_t k = 0; k < n; ++k) {
      text.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    (void)sql::Parse(text);  // any Status is fine; crashing is not
  }
}

TEST(FuzzSql, ParserSurvivesMutatedValidQuery) {
  const std::string valid =
      "SELECT rule_id, SUM(hits) AS total FROM alerts WHERE hits > 0 "
      "GROUP BY rule_id ORDER BY total DESC LIMIT 10";
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    std::string mutated = valid;
    size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] = static_cast<char>(' ' + rng.NextBelow(95));
    (void)sql::Parse(mutated);
  }
}

}  // namespace
}  // namespace pier
