// Integration tests for the distributed query engine: dissemination, scans,
// select/project, in-network aggregation (direct + tree), all four join
// strategies, recursion, continuous queries, and origin post-processing.
// Functional checks run on the one-hop router (deterministic, fast); the
// Chord variants validate the same answers over multi-hop routing.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/network.h"
#include "query/engine.h"
#include "query/plan.h"
#include "testkit/invariants.h"
#include "testkit/oracle.h"
#include "workload/workloads.h"

namespace pier {
namespace query {
namespace {

using catalog::Column;
using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;
using core::PierNetwork;
using core::PierNetworkOptions;
using core::RouterKind;
using exec::AggFunc;
using exec::AggSpec;
using exec::CompareOp;
using exec::Expr;

PierNetworkOptions OneHopOpts(uint64_t seed = 11) {
  PierNetworkOptions o;
  o.seed = seed;
  o.node.router_kind = RouterKind::kOneHop;
  o.node.engine.result_wait = Seconds(5);
  o.node.engine.agg_hold_base = Millis(400);
  return o;
}

PierNetworkOptions ChordOpts(uint64_t seed = 11) {
  PierNetworkOptions o;
  o.seed = seed;
  o.node.router_kind = RouterKind::kChord;
  o.node.engine.result_wait = Seconds(8);
  return o;
}

TableDef AlertsTable() {
  TableDef def;
  def.name = "alerts";
  def.schema = Schema("alerts", {{"rule_id", ValueType::kInt64},
                                 {"descr", ValueType::kString},
                                 {"hits", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(600);
  return def;
}

TableDef RulesTable() {
  TableDef def;
  def.name = "rules";
  def.schema = Schema("rules", {{"rule_id", ValueType::kInt64},
                                {"severity", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(600);
  return def;
}

TableDef LinksTable() {
  TableDef def;
  def.name = "links";
  def.schema = Schema("links", {{"src", ValueType::kString},
                                {"dst", ValueType::kString}});
  def.partition_cols = {0};
  def.ttl = Seconds(600);
  return def;
}

void RegisterEverywhere(PierNetwork& net, const TableDef& def) {
  for (size_t i = 0; i < net.size(); ++i) {
    ASSERT_TRUE(net.node(i)->catalog()->Register(def).ok());
  }
}

// Publishes alerts spread across publishers: (rule_id, descr, hits).
void PublishAlerts(PierNetwork& net,
                   const std::vector<std::tuple<int, std::string, int>>& rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    auto& [rule, descr, hits] = rows[i];
    Tuple t{Value::Int64(rule), Value::String(descr), Value::Int64(hits)};
    ASSERT_TRUE(net.node(i % net.size())
                    ->query_engine()
                    ->Publish("alerts", t)
                    .ok());
  }
  net.RunFor(Seconds(5));  // let puts land
}

// ---------------------------------------------------------------------------
// Select / project
// ---------------------------------------------------------------------------

TEST(QuerySelectTest, SelectStarCollectsAllRows) {
  PierNetwork net(8, OneHopOpts());
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 10}, {2, "b", 20}, {3, "c", 30}, {4, "d", 40}});

  QueryPlan plan;
  plan.graph = SelectGraph("alerts", AlertsTable().schema);

  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok());
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 4u);
  std::set<int64_t> rules;
  for (const Tuple& t : batches[0].rows) rules.insert(t[0].int64_value());
  EXPECT_EQ(rules, (std::set<int64_t>{1, 2, 3, 4}));
}

TEST(QuerySelectTest, WhereFiltersAndProjectionComputes) {
  PierNetwork net(6, OneHopOpts());
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 10}, {2, "b", 20}, {3, "c", 30}, {4, "d", 40}});

  QueryPlan plan;
  // WHERE hits >= 25  SELECT rule_id, hits * 2
  plan.graph = SelectGraph(
      "alerts", AlertsTable().schema,
      Expr::Compare(CompareOp::kGe, Expr::Column(2),
                    Expr::Literal(Value::Int64(25))),
      {Expr::Column(0), Expr::Arith(exec::ArithOp::kMul, Expr::Column(2),
                                    Expr::Literal(Value::Int64(2)))});

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(1)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 2u);
  std::map<int64_t, int64_t> got;
  for (const Tuple& t : batches[0].rows) {
    got[t[0].int64_value()] = t[1].int64_value();
  }
  EXPECT_EQ(got, (std::map<int64_t, int64_t>{{3, 60}, {4, 80}}));
}

TEST(QuerySelectTest, OrderByAndLimitAtOrigin) {
  PierNetwork net(6, OneHopOpts());
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 40}, {2, "b", 10}, {3, "c", 30}, {4, "d", 20}});

  QueryPlan plan;
  plan.graph = SelectGraph("alerts", AlertsTable().schema);
  OpNode& collect = plan.graph.nodes.back();
  collect.order_col = 2;
  collect.order_desc = true;
  collect.limit = 2;

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 2u);
  EXPECT_EQ(batches[0].rows[0][2].int64_value(), 40);
  EXPECT_EQ(batches[0].rows[1][2].int64_value(), 30);
}

// LIMIT without ORDER BY / DISTINCT / aggregation pushes first-k into the
// member scans. The batch plane stops mid-batch: the answer holds exactly
// LIMIT rows, and each member stops after its first 1024-row sweep batch
// of the three or more it holds.
TEST(QuerySelectTest, LimitPushdownStopsBatchScanEarly) {
  PierNetwork net(2, OneHopOpts(53));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 8192; ++i) rows.push_back({i, "r", i});
  PublishAlerts(net, rows);
  constexpr uint64_t kBatchRows = 1024;  // QueryScheduler's sweep batch
  for (size_t i = 0; i < net.size(); ++i) {
    uint64_t held = 0;
    net.node(i)->dht()->ForEachLocalReadable(
        "alerts", [&](const dht::StoredItem&) {
          ++held;
          return true;
        });
    ASSERT_GT(held, 2 * kBatchRows) << "node " << i;
  }

  QueryPlan plan;
  plan.graph = SelectGraph("alerts", AlertsTable().schema);
  plan.graph.nodes.back().limit = 3;

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) {
                              batches.push_back(b);
                            })
                  .ok());
  net.RunFor(Seconds(10));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 3u);

  for (size_t i = 0; i < net.size(); ++i) {
    const EngineStats& s = net.node(i)->query_engine()->stats();
    EXPECT_EQ(s.batches_scanned, 1u) << "node " << i;
    EXPECT_EQ(s.tuples_scanned, kBatchRows) << "node " << i;
  }
}

TEST(QuerySelectTest, DistinctAtOrigin) {
  PierNetwork net(5, OneHopOpts());
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net,
                {{1, "x", 5}, {1, "x", 5}, {2, "y", 6}, {2, "y", 6}});

  QueryPlan plan;
  plan.graph = SelectGraph("alerts", AlertsTable().schema, nullptr,
                           {Expr::Column(0), Expr::Column(1)});
  plan.graph.nodes.back().distinct = true;

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 2u);
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

class QueryAggTest : public ::testing::TestWithParam<AggStrategy> {};

TEST_P(QueryAggTest, GroupBySumMatchesReference) {
  PierNetwork net(10, OneHopOpts(17));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  std::map<int64_t, int64_t> expected_sum;
  std::map<int64_t, int64_t> expected_count;
  for (int i = 0; i < 60; ++i) {
    int rule = 1 + (i % 5);
    int hits = 10 + i;
    rows.push_back({rule, "r" + std::to_string(rule), hits});
    expected_sum[rule] += hits;
    expected_count[rule] += 1;
  }
  PublishAlerts(net, rows);

  QueryPlan plan;
  plan.graph = AggregateGraph(
      "alerts", AlertsTable().schema, {0},
      {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "n"}}, GetParam());

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(12));

  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 5u);
  for (const Tuple& t : batches[0].rows) {
    int64_t rule = t[0].int64_value();
    EXPECT_EQ(t[1].int64_value(), expected_sum[rule]) << "rule " << rule;
    EXPECT_EQ(t[2].int64_value(), expected_count[rule]) << "rule " << rule;
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, QueryAggTest,
                         ::testing::Values(AggStrategy::kDirect,
                                           AggStrategy::kTree));

TEST(QueryAggregateTest, AllFiveAggregateFunctions) {
  PierNetwork net(6, OneHopOpts(23));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 10}, {1, "b", 20}, {1, "c", 60}});

  QueryPlan plan;
  plan.graph = AggregateGraph("alerts", AlertsTable().schema, {0},
                              {{AggFunc::kSum, 2, "sum"},
                               {AggFunc::kCount, -1, "cnt"},
                               {AggFunc::kAvg, 2, "avg"},
                               {AggFunc::kMin, 2, "min"},
                               {AggFunc::kMax, 2, "max"}});

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(2)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(12));
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 1u);
  const Tuple& t = batches[0].rows[0];
  EXPECT_EQ(t[1].int64_value(), 90);
  EXPECT_EQ(t[2].int64_value(), 3);
  EXPECT_DOUBLE_EQ(t[3].double_value(), 30.0);
  EXPECT_EQ(t[4].int64_value(), 10);
  EXPECT_EQ(t[5].int64_value(), 60);
}

TEST(QueryAggregateTest, HavingTopKAndFinalProjection) {
  // The Table-1 shape: GROUP BY rule, SUM(hits), ORDER BY total DESC LIMIT n,
  // with a HAVING floor and SELECT-order permutation.
  PierNetwork net(8, OneHopOpts(29));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int rule = 1; rule <= 6; ++rule) {
    for (int k = 0; k < rule; ++k) {
      rows.push_back({rule, "r" + std::to_string(rule), 100 * rule});
    }
  }
  // Totals: rule r -> r * 100r = 100 r^2 (100, 400, 900, 1600, 2500, 3600).
  PublishAlerts(net, rows);

  QueryPlan plan;
  plan.graph = AggregateGraph("alerts", AlertsTable().schema, {0},
                              {{AggFunc::kSum, 2, "total"}});
  // HAVING SUM(hits) >= 900 over layout [rule_id, total].
  plan.graph.nodes[plan.graph.FindFirst(OpType::kFinalAgg)].having =
      Expr::Compare(CompareOp::kGe, Expr::Column(1),
                    Expr::Literal(Value::Int64(900)));
  OpNode& collect = plan.graph.nodes.back();
  // SELECT total, rule_id (permuted).
  collect.final_projection = {1, 0};
  collect.order_col = 0;  // total, post-permutation
  collect.order_desc = true;
  collect.limit = 3;

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(12));
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 3u);
  EXPECT_EQ(batches[0].rows[0][0].int64_value(), 3600);
  EXPECT_EQ(batches[0].rows[0][1].int64_value(), 6);
  EXPECT_EQ(batches[0].rows[1][0].int64_value(), 2500);
  EXPECT_EQ(batches[0].rows[2][0].int64_value(), 1600);
}

TEST(QueryAggregateTest, TreeAggregationOnChordMatchesReference) {
  PierNetwork net(16, ChordOpts(31));
  net.Boot(Seconds(60));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  int64_t expected = 0;
  for (int i = 0; i < 48; ++i) {
    rows.push_back({7, "seven", i});
    expected += i;
  }
  PublishAlerts(net, rows);
  net.RunFor(Seconds(5));

  QueryPlan plan;
  plan.graph = AggregateGraph(
      "alerts", AlertsTable().schema, {0},
      {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "n"}},
      AggStrategy::kTree);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(20));
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 1u);
  EXPECT_EQ(batches[0].rows[0][1].int64_value(), expected);
  EXPECT_EQ(batches[0].rows[0][2].int64_value(), 48);
}

// ---------------------------------------------------------------------------
// Continuous queries
// ---------------------------------------------------------------------------

TEST(QueryContinuousTest, EpochsTrackChangingData) {
  PierNetworkOptions opts = OneHopOpts(37);
  opts.node.engine.result_wait = Seconds(4);
  PierNetwork net(6, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());

  // Each node publishes one row and republishes with growing hit counts.
  auto publish_round = [&](int round) {
    for (size_t i = 0; i < net.size(); ++i) {
      Tuple t{Value::Int64(static_cast<int64_t>(i)), Value::String("n"),
              Value::Int64(100 * round)};
      ASSERT_TRUE(net.node(i)->query_engine()->Publish("alerts", t).ok());
    }
  };
  publish_round(1);
  net.RunFor(Seconds(3));

  QueryPlan plan;
  plan.graph = AggregateGraph(
      "alerts", AlertsTable().schema, {},
      {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "rows"}},
      AggStrategy::kDirect);
  plan.every = Seconds(10);
  plan.window = Seconds(10);  // only rows published this epoch

  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok());
  uint64_t qid = r.value();

  // Publish a fresh round mid-window of each later epoch.
  for (int round = 2; round <= 4; ++round) {
    net.RunFor(Seconds(5));
    publish_round(round);
    net.RunFor(Seconds(5));
  }
  net.RunFor(Seconds(10));
  net.node(0)->query_engine()->Cancel(qid);
  net.RunFor(Seconds(5));

  ASSERT_GE(batches.size(), 3u);
  // Every completed epoch sees the 6 freshest rows (6 publishers), and the
  // sums grow across rounds.
  for (size_t e = 0; e < 3; ++e) {
    ASSERT_EQ(batches[e].rows.size(), 1u) << "epoch " << e;
    EXPECT_EQ(batches[e].rows[0][1].int64_value(), 6) << "epoch " << e;
  }
  int64_t sum_first = batches[0].rows[0][0].int64_value();
  int64_t sum_later = batches[2].rows[0][0].int64_value();
  EXPECT_GT(sum_later, sum_first);
}

TEST(QueryContinuousTest, CancelStopsEpochs) {
  PierNetwork net(4, OneHopOpts(41));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "x", 1}});

  QueryPlan plan;
  plan.graph = SelectGraph("alerts", AlertsTable().schema);
  plan.every = Seconds(8);

  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok());
  net.RunFor(Seconds(20));
  size_t before = batches.size();
  EXPECT_GE(before, 2u);
  net.node(0)->query_engine()->Cancel(r.value());
  net.RunFor(Seconds(30));
  EXPECT_EQ(batches.size(), before);
}

// ---------------------------------------------------------------------------
// Joins — all four strategies against a nested-loop reference
// ---------------------------------------------------------------------------

struct JoinFixture {
  std::vector<std::tuple<int, std::string, int>> alerts;
  std::vector<std::pair<int, int>> rules;  // (rule_id, severity)

  // Reference: alerts ⋈ rules on rule_id, WHERE severity >= 2,
  // SELECT rule_id, hits, severity.
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> Expected() const {
    std::multiset<std::tuple<int64_t, int64_t, int64_t>> out;
    for (const auto& [rule, descr, hits] : alerts) {
      for (const auto& [rrule, sev] : rules) {
        if (rule == rrule && sev >= 2) out.insert({rule, hits, sev});
      }
    }
    return out;
  }
};

class QueryJoinTest : public ::testing::TestWithParam<JoinStrategy> {};

TEST_P(QueryJoinTest, EquiJoinMatchesReference) {
  PierNetworkOptions opts = OneHopOpts(43);
  opts.node.engine.result_wait = Seconds(12);
  opts.node.engine.bloom_wait = Seconds(3);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  RegisterEverywhere(net, RulesTable());

  JoinFixture fx;
  fx.alerts = {{1, "a", 10}, {2, "b", 20}, {2, "c", 25},
               {3, "d", 30}, {4, "e", 40}, {5, "f", 50}};
  fx.rules = {{1, 1}, {2, 2}, {3, 3}, {4, 2}, {9, 5}};
  PublishAlerts(net, fx.alerts);
  for (size_t i = 0; i < fx.rules.size(); ++i) {
    Tuple t{Value::Int64(fx.rules[i].first),
            Value::Int64(fx.rules[i].second)};
    ASSERT_TRUE(net.node((i + 3) % net.size())
                    ->query_engine()
                    ->Publish("rules", t)
                    .ok());
  }
  net.RunFor(Seconds(5));

  QueryPlan plan;
  // Concat layout: [rule_id, descr, hits, rules.rule_id, severity].
  plan.graph = JoinGraph(
      ScanOp("alerts", AlertsTable().schema),
      ScanOp("rules", RulesTable().schema), JoinOp(GetParam(), {0}, {0}),
      Expr::Compare(CompareOp::kGe, Expr::Column(4),
                    Expr::Literal(Value::Int64(2))),
      ProjectOp({Expr::Column(0), Expr::Column(2), Expr::Column(4)}));

  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(25));

  ASSERT_EQ(batches.size(), 1u);
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> got;
  for (const Tuple& t : batches[0].rows) {
    got.insert({t[0].int64_value(), t[1].int64_value(), t[2].int64_value()});
  }
  EXPECT_EQ(got, fx.Expected())
      << "strategy " << JoinStrategyName(GetParam());
  // Clean network: no filter wave may degrade, so every suppressing
  // strategy matches the symmetric-hash answer above at full recall.
  EXPECT_EQ(batches[0].completeness.filter_waves_degraded, 0u);
  if (GetParam() == JoinStrategy::kBloom) {
    uint64_t complete = 0, degraded = 0, parts = 0, saved = 0, cut = 0;
    for (size_t i = 0; i < net.size(); ++i) {
      const auto& st = net.node(i)->query_engine()->stats();
      complete += st.bloom_waves_complete;
      degraded += st.bloom_waves_degraded;
      parts += st.bloom_parts_received;
      saved += st.bloom_bytes_saved;
      cut += st.bloom_suppressed;
    }
    EXPECT_EQ(complete, 1u);
    EXPECT_EQ(degraded, 0u);
    EXPECT_EQ(parts, net.size() - 1);  // every member reported its part
    // alerts key 5 and rules key 9 have no partner: the complete filter
    // union suppressed them before rehash, and the byte ledger saw it.
    EXPECT_GT(cut, 0u);
    EXPECT_GT(saved, 0u);
  }
  if (GetParam() == JoinStrategy::kSymmetricSemi) {
    uint64_t saved = 0;
    for (size_t i = 0; i < net.size(); ++i) {
      saved += net.node(i)->query_engine()->stats().semijoin_bytes_saved;
    }
    EXPECT_GT(saved, 0u);  // key projections narrower than full tuples
  }
}

// Join output flows through a residual predicate and a projection on the
// batch plane, one row per batch. The rows carry NULLs and values whose
// type disagrees with the schema; the predicate errors on one row (dropped)
// and the projection errors on another (projected as NULL). Every strategy
// must return exactly the oracle's central scalar evaluation.
TEST_P(QueryJoinTest, JoinOutputThroughFilterAndProjectMatchesOracle) {
  PierNetworkOptions opts = OneHopOpts(59);
  opts.node.engine.result_wait = Seconds(12);
  opts.node.engine.bloom_wait = Seconds(3);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  RegisterEverywhere(net, RulesTable());

  // alerts: (rule_id, descr, hits INT64).
  std::vector<Tuple> alerts = {
      {Value::Int64(1), Value::String("a"), Value::Int64(10)},
      {Value::Int64(1), Value::String("b"), Value::Int64(30)},
      {Value::Int64(1), Value::String("y"), Value::String("y")},
      {Value::Int64(2), Value::Null(), Value::Int64(20)},
      {Value::Int64(2), Value::String("c"), Value::Null()},
      {Value::Int64(3), Value::String("d"), Value::String("x")},
      {Value::Int64(3), Value::String("e"), Value::Double(2.5)},
      {Value::Int64(4), Value::String("f"), Value::Int64(40)},
      {Value::Int64(5), Value::String("g"), Value::Int64(50)},
      {Value::Int64(6), Value::String("h"), Value::Int64(60)},
  };
  // rules: (rule_id, severity INT64).
  std::vector<Tuple> rules = {
      {Value::Int64(1), Value::Int64(1)},
      {Value::Int64(2), Value::Int64(2)},
      {Value::Int64(3), Value::Int64(3)},
      {Value::Int64(4), Value::Null()},
      {Value::Int64(5), Value::String("hi")},
      {Value::Int64(9), Value::Int64(5)},
  };
  for (size_t i = 0; i < alerts.size(); ++i) {
    ASSERT_TRUE(net.node(i % net.size())
                    ->query_engine()
                    ->Publish("alerts", alerts[i])
                    .ok());
  }
  for (size_t i = 0; i < rules.size(); ++i) {
    ASSERT_TRUE(net.node((i + 3) % net.size())
                    ->query_engine()
                    ->Publish("rules", rules[i])
                    .ok());
  }
  net.RunFor(Seconds(5));

  QueryPlan plan;
  // Concat layout: [rule_id, descr, hits, rules.rule_id, severity].
  // WHERE severity >= 2 OR hits + 0 > 15: the second arm errors on a
  // string `hits`. SELECT rule_id, descr, hits * 2, severity: the product
  // errors on a string `hits`.
  plan.graph = JoinGraph(
      ScanOp("alerts", AlertsTable().schema),
      ScanOp("rules", RulesTable().schema), JoinOp(GetParam(), {0}, {0}),
      Expr::Or(Expr::Compare(CompareOp::kGe, Expr::Column(4),
                             Expr::Literal(Value::Int64(2))),
               Expr::Compare(CompareOp::kGt,
                             Expr::Arith(exec::ArithOp::kAdd, Expr::Column(2),
                                         Expr::Literal(Value::Int64(0))),
                             Expr::Literal(Value::Int64(15)))),
      ProjectOp({Expr::Column(0), Expr::Column(1),
                 Expr::Arith(exec::ArithOp::kMul, Expr::Column(2),
                             Expr::Literal(Value::Int64(2))),
                 Expr::Column(4)}));
  auto oracle = testkit::OracleEvaluate(net, plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(25));

  ASSERT_EQ(batches.size(), 1u);
  testkit::OracleScore score =
      testkit::ScoreAnswer(oracle.value(), batches[0].rows);
  EXPECT_EQ(score.matched, score.oracle_rows)
      << score.ToString() << " strategy " << JoinStrategyName(GetParam());
  EXPECT_EQ(score.answer_rows, score.oracle_rows) << score.ToString();
  // The erroring projection kept its row, with a NULL product.
  bool nulled = false;
  for (const Tuple& t : batches[0].rows) {
    nulled |= t[1].type() == ValueType::kString &&
              t[1].string_value() == "d" && t[2].is_null();
  }
  EXPECT_TRUE(nulled) << "strategy " << JoinStrategyName(GetParam());
  EXPECT_GE(score.oracle_rows, 6u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, QueryJoinTest,
                         ::testing::Values(JoinStrategy::kSymmetricHash,
                                           JoinStrategy::kFetchMatches,
                                           JoinStrategy::kSymmetricSemi,
                                           JoinStrategy::kBloom));

TEST(QueryJoinTest2, JoinWithOriginAggregation) {
  // SELECT severity, COUNT(*) FROM alerts JOIN rules GROUP BY severity.
  PierNetwork net(6, OneHopOpts(47));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  RegisterEverywhere(net, RulesTable());
  PublishAlerts(net, {{1, "a", 10}, {2, "b", 20}, {3, "c", 30}});
  for (auto [rule, sev] : std::vector<std::pair<int, int>>{{1, 1}, {2, 1},
                                                           {3, 2}}) {
    ASSERT_TRUE(net.node(0)
                    ->query_engine()
                    ->Publish("rules", Tuple{Value::Int64(rule),
                                             Value::Int64(sev)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  QueryPlan plan;
  plan.graph = JoinGraph(ScanOp("alerts", AlertsTable().schema),
                         ScanOp("rules", RulesTable().schema),
                         JoinOp(JoinStrategy::kSymmetricHash, {0}, {0}),
                         nullptr,
                         // severity in the concat layout
                         FinalAggOp({4}, {{AggFunc::kCount, -1, "n"}}));

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(1)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(15));
  ASSERT_EQ(batches.size(), 1u);
  std::map<int64_t, int64_t> got;
  for (const Tuple& t : batches[0].rows) {
    got[t[0].int64_value()] = t[1].int64_value();
  }
  EXPECT_EQ(got, (std::map<int64_t, int64_t>{{1, 2}, {2, 1}}));
}

TEST(QueryJoinTest2, SymmetricHashJoinOnChord) {
  PierNetworkOptions opts = ChordOpts(53);
  opts.node.engine.result_wait = Seconds(12);
  PierNetwork net(12, opts);
  net.Boot(Seconds(60));
  RegisterEverywhere(net, AlertsTable());
  RegisterEverywhere(net, RulesTable());
  PublishAlerts(net, {{1, "a", 10}, {2, "b", 20}, {3, "c", 30}});
  for (auto [rule, sev] : std::vector<std::pair<int, int>>{{2, 9}, {3, 9}}) {
    ASSERT_TRUE(net.node(4)
                    ->query_engine()
                    ->Publish("rules",
                              Tuple{Value::Int64(rule), Value::Int64(sev)})
                    .ok());
  }
  net.RunFor(Seconds(8));

  QueryPlan plan;
  plan.graph = JoinGraph(ScanOp("alerts", AlertsTable().schema),
                         ScanOp("rules", RulesTable().schema),
                         JoinOp(JoinStrategy::kSymmetricHash, {0}, {0}),
                         nullptr,
                         ProjectOp({Expr::Column(0), Expr::Column(4)}));

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(25));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 2u);
}

TEST(QueryJoinTest2, FetchMatchesRequiresCompatiblePartitioning) {
  PierNetwork net(4, OneHopOpts(59));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  TableDef rules = RulesTable();
  rules.partition_cols = {1};  // partitioned on severity, not rule_id
  RegisterEverywhere(net, rules);

  QueryPlan plan;
  plan.graph = JoinGraph(ScanOp("alerts", AlertsTable().schema),
                         ScanOp("rules", rules.schema),
                         JoinOp(JoinStrategy::kFetchMatches, {0}, {0}));

  auto r = net.node(0)->query_engine()->Execute(plan,
                                                [](const ResultBatch&) {});
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Recursion
// ---------------------------------------------------------------------------

TEST(QueryRecursiveTest, TransitiveClosureOfChain) {
  PierNetworkOptions opts = OneHopOpts(61);
  opts.node.engine.quiesce_window = Seconds(5);
  PierNetwork net(6, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, LinksTable());

  // Chain a -> b -> c -> d: closure has 3+2+1 = 6 pairs.
  std::vector<std::pair<std::string, std::string>> edges = {
      {"a", "b"}, {"b", "c"}, {"c", "d"}};
  for (size_t i = 0; i < edges.size(); ++i) {
    ASSERT_TRUE(net.node(i % net.size())
                    ->query_engine()
                    ->Publish("links",
                              Tuple{Value::String(edges[i].first),
                                    Value::String(edges[i].second)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  QueryPlan plan;
  plan.graph = RecursiveGraph("links", LinksTable().schema, /*src_col=*/0,
                              /*dst_col=*/1, /*max_hops=*/8);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(40));

  ASSERT_EQ(batches.size(), 1u);
  std::set<std::pair<std::string, std::string>> got;
  for (const Tuple& t : batches[0].rows) {
    got.insert({t[0].string_value(), t[1].string_value()});
  }
  std::set<std::pair<std::string, std::string>> expected = {
      {"a", "b"}, {"b", "c"}, {"c", "d"},
      {"a", "c"}, {"b", "d"}, {"a", "d"}};
  EXPECT_EQ(got, expected);
}

TEST(QueryRecursiveTest, CycleTerminatesViaDedup) {
  PierNetworkOptions opts = OneHopOpts(67);
  opts.node.engine.quiesce_window = Seconds(5);
  PierNetwork net(4, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, LinksTable());
  for (auto& e : std::vector<std::pair<std::string, std::string>>{
           {"x", "y"}, {"y", "z"}, {"z", "x"}}) {
    ASSERT_TRUE(net.node(0)
                    ->query_engine()
                    ->Publish("links", Tuple{Value::String(e.first),
                                             Value::String(e.second)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  QueryPlan plan;
  plan.graph = RecursiveGraph("links", LinksTable().schema, 0, 1,
                              /*max_hops=*/10);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(60));
  ASSERT_EQ(batches.size(), 1u);
  // 3-cycle closure: every ordered pair including self-loops = 9.
  EXPECT_EQ(batches[0].rows.size(), 9u);
}

TEST(QueryRecursiveTest, OuterWhereAndMaxHops) {
  PierNetworkOptions opts = OneHopOpts(71);
  opts.node.engine.quiesce_window = Seconds(5);
  PierNetwork net(4, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, LinksTable());
  for (auto& e : std::vector<std::pair<std::string, std::string>>{
           {"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}}) {
    ASSERT_TRUE(net.node(1)
                    ->query_engine()
                    ->Publish("links", Tuple{Value::String(e.first),
                                             Value::String(e.second)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  QueryPlan plan;
  // Paths of length <= 2, only pairs starting at 'a': the outer filter runs
  // over the closure layout (src, dst, hops).
  plan.graph = RecursiveGraph(
      "links", LinksTable().schema, 0, 1, /*max_hops=*/2, nullptr,
      Expr::Compare(CompareOp::kEq, Expr::Column(0),
                    Expr::Literal(Value::String("a"))));

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(40));
  ASSERT_EQ(batches.size(), 1u);
  std::set<std::string> dsts;
  for (const Tuple& t : batches[0].rows) {
    EXPECT_EQ(t[0].string_value(), "a");
    dsts.insert(t[1].string_value());
  }
  EXPECT_EQ(dsts, (std::set<std::string>{"b", "c"}));
}

TEST(QueryRecursiveTest, ReachTuplesArrivingBeforeThePlanAreDrained) {
  // 32 Chord nodes: the plan reaches members at different times, so a fast
  // member's seed reach tuples can land at a pair owner that has not
  // installed the plan yet. Under this seed every pair from v4 (its two
  // base edges included) is stored that way; the owner must drain them
  // when it sets up, or the closure silently misses them.
  PierNetworkOptions opts;
  opts.seed = 908;
  opts.node.router_kind = RouterKind::kChord;
  opts.node.engine.quiesce_window = Seconds(8);
  opts.node.engine.recursion_deadline = Seconds(240);
  opts.join_stagger = Millis(100);
  PierNetwork net(32, opts);
  net.Boot(Seconds(60));
  workload::TopologyOptions topo;
  topo.num_vertices = 8;
  topo.out_degree = 2;
  std::vector<std::pair<std::string, std::string>> edges =
      workload::PublishTopology(&net, topo, /*seed=*/17);
  net.RunFor(Seconds(10));

  // Reference closure (distinct endpoints) by repeated relaxation.
  std::set<std::pair<std::string, std::string>> expected(edges.begin(),
                                                         edges.end());
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& [a, b] : std::vector<std::pair<std::string, std::string>>(
             expected.begin(), expected.end())) {
      for (const auto& [c, d] : edges) {
        if (b == c) grew |= expected.insert({a, d}).second;
      }
    }
  }
  for (auto it = expected.begin(); it != expected.end();) {
    it = it->first == it->second ? expected.erase(it) : std::next(it);
  }
  ASSERT_EQ(expected.size(), 56u);

  QueryPlan plan;
  plan.graph = RecursiveGraph("links", workload::LinksTable().schema, 0, 1,
                              /*max_hops=*/12);
  std::set<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) {
                              for (const Tuple& t : b.rows) {
                                if (t[0].Compare(t[1]) != 0) {
                                  got.insert({t[0].string_value(),
                                              t[1].string_value()});
                                }
                              }
                            })
                  .ok());
  net.RunFor(Seconds(280));
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// One row encoding: every row path ships RowBatch frames
// ---------------------------------------------------------------------------

// Int values of one to eight varint bytes, both signs.
const int64_t kLaneValues[] = {0, -1, 1, 127, -(int64_t{1} << 40),
                               int64_t{1} << 53, -123456789, 99};

// Publishes `count` alerts with distinct rule ids; hits cycle through
// kLaneValues.
void PublishDistinctAlerts(PierNetwork& net, int count) {
  for (int i = 0; i < count; ++i) {
    Tuple t{Value::Int64(i), Value::String("r" + std::to_string(i)),
            Value::Int64(kLaneValues[i % std::size(kLaneValues)])};
    ASSERT_TRUE(net.node(i % net.size())
                    ->query_engine()
                    ->Publish("alerts", t)
                    .ok());
  }
  net.RunFor(Seconds(5));
}

// Runs `plan` from node 0 and holds its single answer to the oracle.
void ExpectOracleAnswer(PierNetwork& net, const QueryPlan& plan,
                        Duration run) {
  auto oracle = testkit::OracleEvaluate(net, plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(run);
  ASSERT_EQ(batches.size(), 1u);
  testkit::OracleScore score =
      testkit::ScoreAnswer(oracle.value(), batches[0].rows);
  EXPECT_GT(score.oracle_rows, 0u);
  EXPECT_EQ(score.matched, score.oracle_rows) << score.ToString();
  EXPECT_EQ(score.answer_rows, score.oracle_rows) << score.ToString();
}

// Results: every member holds exactly one matching row, so each ships a
// one-row kResultBatch frame.
TEST(QueryRowPathTest, ScanWithOneMatchingRowPerMember) {
  PierNetwork net(8, OneHopOpts(97));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishDistinctAlerts(net, 64);

  // WHERE rule_id IN (the first rule each node stores).
  exec::ExprPtr where;
  std::vector<uint64_t> holds(net.size(), 0);
  for (size_t i = 0; i < net.size(); ++i) {
    net.node(i)->dht()->ForEachLocalReadable(
        "alerts", [&](const dht::StoredItem& item) {
          Tuple t;
          EXPECT_TRUE(catalog::TupleFromBytes(item.value, &t).ok());
          exec::ExprPtr arm =
              Expr::Compare(CompareOp::kEq, Expr::Column(0),
                            Expr::Literal(Value::Int64(t[0].int64_value())));
          where = where == nullptr ? arm : Expr::Or(where, arm);
          holds[i] = 1;
          return false;
        });
  }
  ASSERT_GE(std::count(holds.begin(), holds.end(), 1u), 6);
  QueryPlan plan;
  plan.graph = SelectGraph("alerts", AlertsTable().schema, where);
  ExpectOracleAnswer(net, plan, Seconds(10));
  for (size_t i = 1; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i)->query_engine()->stats().result_msgs_sent, holds[i])
        << "node " << i;
  }
}

// Partials: a global aggregate, so every leaf flushes one partial row and
// every interior node relays one combined row up the tree.
TEST(QueryRowPathTest, TreeAggregateWithOnePartialPerLeaf) {
  PierNetwork net(24, ChordOpts(41));
  net.Boot(Seconds(60));
  RegisterEverywhere(net, AlertsTable());
  PublishDistinctAlerts(net, 96);

  QueryPlan plan;
  plan.graph = AggregateGraph(
      "alerts", AlertsTable().schema, {},
      {{AggFunc::kSum, 2, "total"},
       {AggFunc::kCount, -1, "n"},
       {AggFunc::kMin, 2, "lo"},
       {AggFunc::kMax, 2, "hi"}},
      AggStrategy::kTree);
  ExpectOracleAnswer(net, plan, Seconds(20));
  uint64_t relayed = 0;
  for (size_t i = 1; i < net.size(); ++i) {
    relayed += net.node(i)->query_engine()->stats().partial_msgs_received;
  }
  EXPECT_GT(relayed, 0u) << "no interior node combined";
}

// Rehash puts: join keys are distinct within every member's scan, so each
// owner bucket holds one row and each put is a one-row frame.
TEST(QueryRowPathTest, SymmetricHashJoinWithSingleRowBuckets) {
  PierNetworkOptions opts = OneHopOpts(101);
  opts.node.engine.result_wait = Seconds(12);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  RegisterEverywhere(net, RulesTable());
  PublishDistinctAlerts(net, 24);
  for (int rule = 0; rule < 32; rule += 2) {
    ASSERT_TRUE(net.node(rule % net.size())
                    ->query_engine()
                    ->Publish("rules", Tuple{Value::Int64(rule),
                                             Value::Int64(-rule * 1000)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  QueryPlan plan;
  plan.graph = JoinGraph(ScanOp("alerts", AlertsTable().schema),
                         ScanOp("rules", RulesTable().schema),
                         JoinOp(JoinStrategy::kSymmetricHash, {0}, {0}));
  ExpectOracleAnswer(net, plan, Seconds(20));
  uint64_t puts = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    puts += net.node(i)->query_engine()->stats().rehash_puts;
  }
  EXPECT_EQ(puts, 24u + 16u);  // one put per row, both sides
}

// Reach puts: recursion over int64 vertex ids. The oracle does not evaluate
// recursion, so the test computes the closure centrally.
TEST(QueryRowPathTest, RecursiveClosureMatchesCentralClosure) {
  PierNetworkOptions opts = OneHopOpts(103);
  opts.node.engine.quiesce_window = Seconds(5);
  PierNetwork net(6, opts);
  net.Boot(Seconds(5));
  TableDef edges_def;
  edges_def.name = "edges";
  edges_def.schema = Schema("edges", {{"src", ValueType::kInt64},
                                      {"dst", ValueType::kInt64}});
  edges_def.partition_cols = {0};
  edges_def.ttl = Seconds(600);
  RegisterEverywhere(net, edges_def);
  // A chain through the lane's extremes with one branch: -1 -> 0 -> 2^40
  // -> -(2^53), and 0 -> 7.
  const int64_t kBig = int64_t{1} << 40;
  const int64_t kNeg = -(int64_t{1} << 53);
  std::vector<std::pair<int64_t, int64_t>> edges = {
      {-1, 0}, {0, kBig}, {kBig, kNeg}, {0, 7}};
  for (size_t i = 0; i < edges.size(); ++i) {
    ASSERT_TRUE(net.node(i % net.size())
                    ->query_engine()
                    ->Publish("edges", Tuple{Value::Int64(edges[i].first),
                                             Value::Int64(edges[i].second)})
                    .ok());
  }
  net.RunFor(Seconds(5));
  std::set<std::pair<int64_t, int64_t>> expected(edges.begin(), edges.end());
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& [a, b] : std::set(expected)) {
      for (const auto& [c, d] : edges) {
        if (b == c) grew |= expected.insert({a, d}).second;
      }
    }
  }
  ASSERT_EQ(expected.size(), 8u);

  QueryPlan plan;
  plan.graph = RecursiveGraph("edges", edges_def.schema, 0, 1,
                              /*max_hops=*/8);
  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(40));
  ASSERT_EQ(batches.size(), 1u);
  std::set<std::pair<int64_t, int64_t>> got;
  for (const Tuple& t : batches[0].rows) {
    got.insert({t[0].int64_value(), t[1].int64_value()});
  }
  EXPECT_EQ(batches[0].rows.size(), expected.size());
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// Robustness
// ---------------------------------------------------------------------------

TEST(QueryRobustnessTest, AggregationSurvivesNodeCrashMidQuery) {
  PierNetworkOptions opts = ChordOpts(73);
  opts.node.engine.result_wait = Seconds(10);
  PierNetwork net(12, opts);
  net.Boot(Seconds(60));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 36; ++i) rows.push_back({1, "x", 1});
  PublishAlerts(net, rows);

  QueryPlan plan;
  plan.graph = AggregateGraph("alerts", AlertsTable().schema, {0},
                              {{AggFunc::kCount, -1, "n"}},
                              AggStrategy::kDirect);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(1));
  net.Crash(7);  // mid-query failure
  net.RunFor(Seconds(20));

  ASSERT_EQ(batches.size(), 1u);
  // Best-effort semantics: we lose at most the crashed node's slice.
  ASSERT_EQ(batches[0].rows.size(), 1u);
  EXPECT_GE(batches[0].rows[0][1].int64_value(), 30);
  EXPECT_LE(batches[0].rows[0][1].int64_value(), 36);
}

TEST(QueryRobustnessTest, LatePartialsCountedAfterFinalize) {
  // A deliberately impossible result window: the origin finalizes epoch 0
  // before any remote partial can cross the network (min one-way latency is
  // 5ms), so every reporting node becomes a straggler. Those partials used
  // to vanish silently; now they are counted. A node crashing mid-query
  // (churn) must not disturb the accounting — its partials simply never
  // arrive.
  PierNetworkOptions opts = OneHopOpts(83);
  opts.node.engine.result_wait = Millis(1);
  PierNetwork net(6, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  // Enough distinct keys that (under this seed) every node's ring arc owns
  // a slice and therefore has a partial to report.
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 240; ++i) {
    rows.push_back({i, "r" + std::to_string(i), i});
  }
  PublishAlerts(net, rows);

  QueryPlan plan;
  plan.graph = AggregateGraph("alerts", AlertsTable().schema, {},
                              {{AggFunc::kCount, -1, "n"}},
                              AggStrategy::kDirect);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.Crash(4);  // churn: one reporter dies while its partial is in flight
  net.RunFor(Seconds(10));

  // The epoch still reported (best-effort: the origin's own slice).
  ASSERT_EQ(batches.size(), 1u);
  // Every surviving non-origin node's partial arrived after the finalize
  // and was counted as late instead of dropped silently.
  const EngineStats& st = net.node(0)->query_engine()->stats();
  EXPECT_GE(st.late_partials, 3u);
  EXPECT_LE(st.late_partials, 4u);  // 4 surviving non-origin reporters
}

// A one-shot query costs one dissemination wave: scan members end on the
// origin's ack of their epoch report, join members at the origin's known
// close time (issued_at + result_wait) plus 2 s of grace, so no teardown
// wave follows the answer.
TEST(QueryLifecycleTest, OneShotQueriesCostOneBroadcastWave) {
  PierNetwork net(32, ChordOpts(89));
  net.Boot(Seconds(60));
  RegisterEverywhere(net, AlertsTable());
  RegisterEverywhere(net, RulesTable());
  std::vector<std::tuple<int, std::string, int>> alerts;
  for (int i = 0; i < 48; ++i) {
    alerts.push_back({i % 8, "a" + std::to_string(i), i});
  }
  PublishAlerts(net, alerts);
  for (int rule = 0; rule < 6; ++rule) {
    ASSERT_TRUE(net.node(static_cast<size_t>(rule) * 5)
                    ->query_engine()
                    ->Publish("rules", Tuple{Value::Int64(rule),
                                             Value::Int64(rule * 10)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  auto waves = [&net] {
    uint64_t n = 0;
    for (size_t i = 0; i < net.size(); ++i) {
      n += net.node(i)->broadcast()->stats().initiated;
    }
    return n;
  };
  auto live_on = [&net](uint64_t qid) {
    size_t n = 0;
    for (size_t i = 0; i < net.size(); ++i) {
      n += net.node(i)->query_engine()->HasLiveQuery(qid) ? 1 : 0;
    }
    return n;
  };
  const Duration result_wait = ChordOpts().node.engine.result_wait;

  // Scan: accountable, so members end on the report ack. Probe half a
  // second after the answer, long before any close timer could fire.
  QueryPlan scan;
  scan.graph = SelectGraph("alerts", AlertsTable().schema);
  auto scan_oracle = testkit::OracleEvaluate(net, scan);
  ASSERT_TRUE(scan_oracle.ok()) << scan_oracle.status().ToString();
  uint64_t waves_before = waves();
  const TimePoint scan_issued = net.sim()->now();
  std::vector<ResultBatch> scan_batches;
  TimePoint scan_answered = 0;
  size_t scan_live_after_answer = 0;
  uint64_t scan_qid = 0;
  auto scan_id = net.node(3)->query_engine()->Execute(
      scan, [&](const ResultBatch& b) {
        scan_batches.push_back(b);
        scan_answered = net.sim()->now();
        net.sim()->ScheduleAfter(Millis(500), [&] {
          scan_live_after_answer = live_on(scan_qid);
        });
      });
  ASSERT_TRUE(scan_id.ok()) << scan_id.status().ToString();
  scan_qid = scan_id.value();
  net.RunFor(result_wait + Seconds(4));
  ASSERT_EQ(scan_batches.size(), 1u);
  EXPECT_LT(scan_answered + Millis(500), scan_issued + result_wait);
  EXPECT_EQ(scan_live_after_answer, 0u);
  EXPECT_EQ(waves() - waves_before, 1u);
  testkit::OracleScore scan_score =
      testkit::ScoreAnswer(scan_oracle.value(), scan_batches[0].rows);
  EXPECT_EQ(scan_score.matched, scan_score.oracle_rows)
      << scan_score.ToString();
  EXPECT_EQ(scan_score.answer_rows, scan_score.oracle_rows);

  // Symmetric-hash join: not accountable, so members end at the known close
  // time plus grace. Probe just after it.
  QueryPlan join;
  join.graph = JoinGraph(ScanOp("alerts", AlertsTable().schema),
                         ScanOp("rules", RulesTable().schema),
                         JoinOp(JoinStrategy::kSymmetricHash, {0}, {0}),
                         nullptr, ProjectOp({Expr::Column(1), Expr::Column(4)}));
  auto join_oracle = testkit::OracleEvaluate(net, join);
  ASSERT_TRUE(join_oracle.ok()) << join_oracle.status().ToString();
  waves_before = waves();
  const TimePoint join_issued = net.sim()->now();
  std::vector<ResultBatch> join_batches;
  auto join_id = net.node(11)->query_engine()->Execute(
      join, [&](const ResultBatch& b) { join_batches.push_back(b); });
  ASSERT_TRUE(join_id.ok()) << join_id.status().ToString();
  const uint64_t join_qid = join_id.value();
  size_t join_live_before_close = 0;
  size_t join_live_after_close = 0;
  net.sim()->ScheduleAt(join_issued + result_wait + Seconds(1), [&] {
    join_live_before_close = live_on(join_qid);
  });
  net.sim()->ScheduleAt(join_issued + result_wait + Seconds(2) + Millis(1),
                        [&] { join_live_after_close = live_on(join_qid); });
  net.RunFor(result_wait + Seconds(4));
  ASSERT_EQ(join_batches.size(), 1u);
  // Between the origin's close and the members' close timer the members
  // still hold the join: nothing told them to end.
  EXPECT_GT(join_live_before_close, 0u);
  EXPECT_EQ(join_live_after_close, 0u);
  EXPECT_EQ(waves() - waves_before, 1u);
  testkit::OracleScore join_score =
      testkit::ScoreAnswer(join_oracle.value(), join_batches[0].rows);
  EXPECT_EQ(join_score.matched, join_score.oracle_rows)
      << join_score.ToString();
  EXPECT_EQ(join_score.answer_rows, join_score.oracle_rows);
  EXPECT_GT(join_score.oracle_rows, 0u);

  testkit::CheckContext ctx;
  ctx.net = &net;
  Status hygiene = testkit::ExchangeHygieneChecker().Check(ctx);
  EXPECT_TRUE(hygiene.ok()) << hygiene.ToString();
}

TEST(QueryRobustnessTest, EngineStatsAccumulate) {
  PierNetwork net(4, OneHopOpts(79));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 1}});

  QueryPlan plan;
  plan.graph = SelectGraph("alerts", AlertsTable().schema);
  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));
  EXPECT_EQ(net.node(0)->query_engine()->stats().queries_issued, 1u);
  uint64_t plans = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    plans += net.node(i)->query_engine()->stats().plans_received;
  }
  EXPECT_GE(plans, 3u);  // every non-origin node saw the plan
}

// A hostile result/partial frame: a zero-column batch that claims the
// maximum 2^20 rows is only a few bytes on the wire. For a query the node
// does not know, or under a spoofed epoch, it must be dropped before any row
// is materialized, and it must count as nothing. A small frame of the same
// shape for the live query is the positive control.
TEST(QueryRobustnessTest, ZeroColumnMaxRowBatchFramesForUnknownQueryDropped) {
  PierNetwork net(2, OneHopOpts(83));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());  // no rows: no real result traffic
  QueryPlan plan;
  plan.graph = SelectGraph("alerts", AlertsTable().schema);
  Result<uint64_t> qid = net.node(1)->query_engine()->Execute(
      plan, [](const ResultBatch&) {});
  ASSERT_TRUE(qid.ok());
  net.RunFor(Seconds(1));
  auto frame = [](MsgType type, uint64_t q, uint64_t epoch, uint32_t rows) {
    Writer w;
    w.PutU8(static_cast<uint8_t>(type));
    w.PutVarint64(q);
    w.PutVarint64(epoch);
    w.PutU8(2);  // RowBatch wire version
    w.PutVarint32(rows);
    w.PutVarint32(0);  // columns
    return w;
  };
  overlay::Transport* tx = net.node(0)->transport();
  sim::HostId to = net.node(1)->host();
  const EngineStats& s = net.node(1)->query_engine()->stats();
  const uint64_t results0 = s.result_msgs_received;
  const uint64_t partials0 = s.partial_msgs_received;
  const uint32_t kMaxRows = 1u << 20;  // the decoder's maximum
  const uint64_t kUnknown = qid.value() + 1000;
  for (int i = 0; i < 8; ++i) {
    for (const Writer& w :
         {frame(MsgType::kResultBatch, kUnknown, 0, kMaxRows),
          frame(MsgType::kPartialBatch, kUnknown, 1, kMaxRows),
          frame(MsgType::kResultBatch, qid.value(), 1ull << 62, kMaxRows)}) {
      ASSERT_TRUE(tx->Send(to, overlay::Proto::kQuery, w).ok());
    }
  }
  net.RunFor(Millis(500));
  EXPECT_EQ(s.result_msgs_received, results0);
  EXPECT_EQ(s.partial_msgs_received, partials0);

  ASSERT_TRUE(tx->Send(to, overlay::Proto::kQuery,
                       frame(MsgType::kResultBatch, qid.value(), 0, 3))
                  .ok());
  net.RunFor(Millis(500));
  EXPECT_EQ(s.result_msgs_received, results0 + 1);
  EXPECT_EQ(s.partial_msgs_received, partials0);
}

// ---------------------------------------------------------------------------
// PHT index scans through the engine
// ---------------------------------------------------------------------------

TableDef IndexedAlertsTable() {
  TableDef def = AlertsTable();
  def.indexes = {catalog::IndexDef{2, 8}};  // hits
  return def;
}

/// The index-scan graph the planner would emit for
/// SELECT rule_id, hits FROM alerts WHERE hits >= lo AND hits <= hi.
QueryPlan IndexRangePlan(int64_t lo, int64_t hi, int64_t limit = -1) {
  QueryPlan plan;
  OpNode scan;
  scan.type = OpType::kIndexScan;
  scan.table = "alerts";
  scan.schema = IndexedAlertsTable().schema;
  scan.index_col = 2;
  scan.index_lo = Value::Int64(lo);
  scan.index_hi = Value::Int64(hi);
  plan.graph.nodes.push_back(std::move(scan));
  OpNode collect = CollectOp();
  collect.limit = limit;
  AppendTail(&plan.graph,
             Expr::And(Expr::Compare(CompareOp::kGe, Expr::Column(2),
                                     Expr::Literal(Value::Int64(lo))),
                       Expr::Compare(CompareOp::kLe, Expr::Column(2),
                                     Expr::Literal(Value::Int64(hi)))),
             ProjectOp({}), std::move(collect));
  return plan;
}

TEST(QueryIndexScanTest, RangeQueryNeverBroadcastsAndIsExact) {
  PierNetwork net(8, OneHopOpts(91));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, IndexedAlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 64; ++i) rows.push_back({i % 4, "d", i});
  PublishAlerts(net, rows);
  net.RunFor(Seconds(10));  // index settles

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(IndexRangePlan(10, 19),
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  std::multiset<int64_t> got;
  for (const Tuple& t : batches[0].rows) got.insert(t[2].int64_value());
  std::multiset<int64_t> want;
  for (int64_t v = 10; v <= 19; ++v) want.insert(v);
  EXPECT_EQ(got, want);

  // Origin-local execution: the plan was never disseminated and no member
  // ran a broadcast scan.
  for (size_t i = 0; i < net.size(); ++i) {
    const EngineStats& st = net.node(i)->query_engine()->stats();
    EXPECT_EQ(st.scans_run, 0u) << "node " << i;
    if (i != 0) {
      EXPECT_EQ(st.plans_received, 0u) << "node " << i;
    }
  }
  EXPECT_GE(net.node(0)->query_engine()->stats().index_scans_run, 1u);
}

TEST(QueryIndexScanTest, LimitStopsTheCursorEarly) {
  PierNetwork net(6, OneHopOpts(92));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, IndexedAlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 48; ++i) rows.push_back({i % 3, "d", i});
  PublishAlerts(net, rows);
  net.RunFor(Seconds(10));

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(IndexRangePlan(0, 47, /*limit=*/5),
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 5u);
  // LIMIT pushdown: the cursor stopped within (at most a leaf past) the
  // cap instead of materializing the whole range.
  EXPECT_LT(net.node(0)->query_engine()->stats().index_rows, 48u);
}

TEST(QueryIndexScanTest, ContinuousIndexQueryTracksNewRows) {
  PierNetwork net(6, OneHopOpts(93));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, IndexedAlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({i, "d", 100 + i});
  PublishAlerts(net, rows);
  net.RunFor(Seconds(8));

  QueryPlan plan = IndexRangePlan(100, 199);
  plan.every = Seconds(10);
  std::vector<size_t> epoch_sizes;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { epoch_sizes.push_back(b.rows.size()); });
  ASSERT_TRUE(r.ok());
  net.RunFor(Seconds(12));  // epoch 0 delivered
  // New in-range rows arrive between epochs; later epochs must see them.
  for (int i = 0; i < 5; ++i) {
    Tuple t{Value::Int64(90 + i), Value::String("d"),
            Value::Int64(150 + i)};
    ASSERT_TRUE(net.node(1)->query_engine()->Publish("alerts", t).ok());
  }
  net.RunFor(Seconds(25));
  net.node(0)->query_engine()->Cancel(r.value());
  net.RunFor(Seconds(3));

  ASSERT_GE(epoch_sizes.size(), 2u);
  EXPECT_EQ(epoch_sizes.front(), 10u);
  EXPECT_EQ(epoch_sizes.back(), 15u);
}

}  // namespace
}  // namespace query
}  // namespace pier
