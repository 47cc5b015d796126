// QueryPlan: the distributed plan PIER disseminates to every node.
//
// A plan is its opgraph (query/opgraph.h) — a DAG of typed operator nodes
// wired by exchanges, interpreted by every node's QueryRuntime — plus the
// scalars that govern the query's lifetime: the continuous period and
// window, the deadline and the resource budget. There is no second plan
// form: the planner emits graphs, and the algebraic API below builds the
// four canonical shapes (select/project, aggregate, binary join,
// recursion) as graphs too.
//
// Column references inside expressions are bound to tuple layouts at
// planning time:
//   - filter / project      -> the node's input layout (full concat after
//                              a join; (src, dst, hops) after recursion)
//   - final-agg `having`    -> the aggregate output layout
//                              [group values..., aggregate results...]
//   - collect `order_col`   -> the final output layout
//
// The broadcast carries the graph (each node writes only its OpType's field
// group) followed by every/window/budget; every member rebuilds and
// validates an identical plan from those bytes.

#ifndef PIER_QUERY_PLAN_H_
#define PIER_QUERY_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/serialize.h"
#include "common/time_util.h"
#include "exec/agg.h"
#include "exec/expr.h"
#include "query/opgraph.h"
#include "query/protocol.h"

namespace pier {
namespace query {

/// One distributed query. Plain data; built by the planner or directly via
/// the algebraic API.
struct QueryPlan {
  /// The executable dataflow.
  OpGraph graph;

  // -- Continuous execution ---------------------------------------------------
  Duration every = 0;   ///< 0 = one-shot; else re-evaluate per period
  Duration window = 0;  ///< 0 = whole live snapshot; else items newer than
                        ///< `window` at scan time

  // -- Lifecycle --------------------------------------------------------------
  /// Per-query deadline, relative to issue time (0 = none).
  /// Origin-local only — the wire carries the resolved absolute deadline in
  /// PlanEnvelope::deadline, so this field is not serialized.
  Duration deadline = 0;

  /// Per-query resource budget (0-dimensions are unlimited). Travels with
  /// the plan so every member enforces the same caps.
  QueryBudget budget;

  void Serialize(Writer* w) const;
  static Status Deserialize(Reader* r, QueryPlan* out);

  /// One-line summary ("plan{scan(t) filter collect every=10s}"); the
  /// opgraph's ToString() is the full EXPLAIN rendering.
  std::string ToString() const;
};

/// What actually travels in the dissemination broadcast.
struct PlanEnvelope {
  uint64_t query_id = 0;
  uint32_t origin = 0;       ///< host that issued the query
  TimePoint issued_at = 0;   ///< origin virtual time (epoch alignment)
  /// Absolute expiry (0 = none). Members self-expire shortly after this
  /// even if the origin's kQueryEnd (one-shot) or kCancel (continuous)
  /// broadcast never reaches them.
  TimePoint deadline = 0;
  QueryPlan plan;

  void Serialize(Writer* w) const;
  static Status Deserialize(Reader* r, PlanEnvelope* out);
};

// ---------------------------------------------------------------------------
// Algebraic API: builders that return opgraph nodes and graphs
// ---------------------------------------------------------------------------

/// kScan over the DHT namespace `table`.
OpNode ScanOp(std::string table, catalog::Schema schema);
/// kJoin on `left_keys` x `right_keys`; inputs are wired by the caller.
OpNode JoinOp(JoinStrategy strategy, std::vector<int> left_keys,
              std::vector<int> right_keys);
/// kProject; an empty list is the identity (AppendTail omits the node).
OpNode ProjectOp(std::vector<exec::ExprPtr> exprs);
/// kFinalAgg; `having` filters [group values..., aggregate results...].
OpNode FinalAggOp(std::vector<int> group_cols,
                  std::vector<exec::AggSpec> aggs,
                  exec::ExprPtr having = nullptr);
/// kCollect with no DISTINCT / SELECT permutation / ORDER BY / LIMIT.
OpNode CollectOp();

/// Appends the origin-bound tail every plan ends with after `g`'s last
/// node, which yields rows:
///   [filter(where)] -> [project]                  => origin -> collect
///   [filter(where)] -> partial-agg => tree|origin -> final-agg -> collect
///   [filter(where)]                               => origin -> final-agg
///                                                           -> collect
/// `shape` is a kProject (identity when empty) or a kFinalAgg node. For a
/// kFinalAgg shape, `partial` adds a partial-agg stage with the same groups
/// and aggregates where the rows are, combined per that strategy; without
/// it the raw rows ship to the origin, which aggregates them itself.
void AppendTail(OpGraph* g, exec::ExprPtr where, OpNode shape, OpNode collect,
                std::optional<AggStrategy> partial = std::nullopt);

/// scan -> [filter] -> [project] => origin -> collect.
OpGraph SelectGraph(std::string table, catalog::Schema schema,
                    exec::ExprPtr where = nullptr,
                    std::vector<exec::ExprPtr> projections = {});

/// scan -> [filter] -> partial-agg => tree|origin -> final-agg -> collect.
OpGraph AggregateGraph(std::string table, catalog::Schema schema,
                       std::vector<int> group_cols,
                       std::vector<exec::AggSpec> aggs,
                       AggStrategy strategy = AggStrategy::kTree,
                       exec::ExprPtr where = nullptr);

/// left/right scans => rehash -> join -> tail (AppendTail without a
/// partial stage: `where` runs over the concat layout, and a kFinalAgg
/// `shape` aggregates the joined rows at the origin).
OpGraph JoinGraph(OpNode left_scan, OpNode right_scan, OpNode join,
                  exec::ExprPtr where = nullptr,
                  OpNode shape = ProjectOp({}));

/// scan(edges) -> recurse => [filter] -> [project] => origin -> collect.
/// `edge_where` filters base and expansion edges; `outer_where` and
/// `projections` run over the closure layout (src, dst, hops).
OpGraph RecursiveGraph(std::string table, catalog::Schema schema, int src_col,
                       int dst_col, int max_hops,
                       exec::ExprPtr edge_where = nullptr,
                       exec::ExprPtr outer_where = nullptr,
                       std::vector<exec::ExprPtr> projections = {});

}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_PLAN_H_
