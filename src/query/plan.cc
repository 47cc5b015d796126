#include "query/plan.h"

namespace pier {
namespace query {

// ---------------------------------------------------------------------------
// Algebraic API
// ---------------------------------------------------------------------------

namespace {

/// Appends `node` reading from the current last node.
void Chain(OpGraph* g, OpNode node) {
  node.inputs = {static_cast<uint32_t>(g->nodes.size()) - 1};
  g->nodes.push_back(std::move(node));
}

}  // namespace

OpNode ScanOp(std::string table, catalog::Schema schema) {
  OpNode n;
  n.type = OpType::kScan;
  n.table = std::move(table);
  n.schema = std::move(schema);
  return n;
}

OpNode JoinOp(JoinStrategy strategy, std::vector<int> left_keys,
              std::vector<int> right_keys) {
  OpNode n;
  n.type = OpType::kJoin;
  n.strategy = strategy;
  n.left_keys = std::move(left_keys);
  n.right_keys = std::move(right_keys);
  return n;
}

OpNode ProjectOp(std::vector<exec::ExprPtr> exprs) {
  OpNode n;
  n.type = OpType::kProject;
  n.exprs = std::move(exprs);
  return n;
}

OpNode FinalAggOp(std::vector<int> group_cols,
                  std::vector<exec::AggSpec> aggs, exec::ExprPtr having) {
  OpNode n;
  n.type = OpType::kFinalAgg;
  n.group_cols = std::move(group_cols);
  n.aggs = std::move(aggs);
  n.having = std::move(having);
  return n;
}

OpNode CollectOp() {
  OpNode n;
  n.type = OpType::kCollect;
  return n;
}

void AppendTail(OpGraph* g, exec::ExprPtr where, OpNode shape, OpNode collect,
                std::optional<AggStrategy> partial) {
  if (where != nullptr) {
    OpNode f;
    f.type = OpType::kFilter;
    f.predicate = std::move(where);
    Chain(g, std::move(f));
  }
  if (shape.type == OpType::kFinalAgg) {
    if (partial.has_value()) {
      OpNode pa;
      pa.type = OpType::kPartialAgg;
      pa.group_cols = shape.group_cols;
      pa.aggs = shape.aggs;
      pa.out = *partial == AggStrategy::kTree ? ExchangeKind::kTree
                                              : ExchangeKind::kToOrigin;
      Chain(g, std::move(pa));
    } else {
      g->nodes.back().out = ExchangeKind::kToOrigin;
    }
    Chain(g, std::move(shape));
  } else {
    if (!shape.exprs.empty()) Chain(g, std::move(shape));
    g->nodes.back().out = ExchangeKind::kToOrigin;
  }
  Chain(g, std::move(collect));
}

OpGraph SelectGraph(std::string table, catalog::Schema schema,
                    exec::ExprPtr where,
                    std::vector<exec::ExprPtr> projections) {
  OpGraph g;
  g.nodes.push_back(ScanOp(std::move(table), std::move(schema)));
  AppendTail(&g, std::move(where), ProjectOp(std::move(projections)),
             CollectOp());
  return g;
}

OpGraph AggregateGraph(std::string table, catalog::Schema schema,
                       std::vector<int> group_cols,
                       std::vector<exec::AggSpec> aggs, AggStrategy strategy,
                       exec::ExprPtr where) {
  OpGraph g;
  g.nodes.push_back(ScanOp(std::move(table), std::move(schema)));
  AppendTail(&g, std::move(where),
             FinalAggOp(std::move(group_cols), std::move(aggs)), CollectOp(),
             strategy);
  return g;
}

OpGraph JoinGraph(OpNode left_scan, OpNode right_scan, OpNode join,
                  exec::ExprPtr where, OpNode shape) {
  OpGraph g;
  left_scan.out = ExchangeKind::kRehash;
  right_scan.out = ExchangeKind::kRehash;
  join.inputs = {0, 1};
  g.nodes.push_back(std::move(left_scan));
  g.nodes.push_back(std::move(right_scan));
  g.nodes.push_back(std::move(join));
  AppendTail(&g, std::move(where), std::move(shape), CollectOp());
  return g;
}

OpGraph RecursiveGraph(std::string table, catalog::Schema schema, int src_col,
                       int dst_col, int max_hops, exec::ExprPtr edge_where,
                       exec::ExprPtr outer_where,
                       std::vector<exec::ExprPtr> projections) {
  OpGraph g;
  g.nodes.push_back(ScanOp(std::move(table), std::move(schema)));
  OpNode rec;
  rec.type = OpType::kRecurse;
  rec.src_col = src_col;
  rec.dst_col = dst_col;
  rec.max_hops = max_hops;
  rec.predicate = std::move(edge_where);
  Chain(&g, std::move(rec));
  AppendTail(&g, std::move(outer_where), ProjectOp(std::move(projections)),
             CollectOp());
  return g;
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

void QueryPlan::Serialize(Writer* w) const {
  graph.Serialize(w);
  w->PutVarint64(static_cast<uint64_t>(every));
  w->PutVarint64(static_cast<uint64_t>(window));
  // Budget travels so members enforce the same caps as the origin.
  w->PutVarint64(budget.max_result_bytes);
  w->PutVarint64(budget.max_rehash_puts);
  w->PutVarint64(budget.max_result_rows);
}

Status QueryPlan::Deserialize(Reader* r, QueryPlan* out) {
  PIER_RETURN_IF_ERROR(OpGraph::Deserialize(r, &out->graph));
  uint64_t every = 0, window = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint64(&every));
  PIER_RETURN_IF_ERROR(r->GetVarint64(&window));
  out->every = static_cast<Duration>(every);
  out->window = static_cast<Duration>(window);
  PIER_RETURN_IF_ERROR(r->GetVarint64(&out->budget.max_result_bytes));
  PIER_RETURN_IF_ERROR(r->GetVarint64(&out->budget.max_rehash_puts));
  return r->GetVarint64(&out->budget.max_result_rows);
}

std::string QueryPlan::ToString() const {
  std::string out = "plan{";
  for (size_t i = 0; i < graph.nodes.size(); ++i) {
    const OpNode& n = graph.nodes[i];
    if (i > 0) out += " ";
    out += OpTypeName(n.type);
    if (n.type == OpType::kScan || n.type == OpType::kIndexScan) {
      out += "(" + n.table + ")";
    }
  }
  if (every > 0) out += " every=" + FormatDuration(every);
  if (window > 0) out += " window=" + FormatDuration(window);
  out += "}";
  return out;
}

void PlanEnvelope::Serialize(Writer* w) const {
  w->PutVarint64(query_id);
  w->PutVarint32(origin);
  w->PutVarint64(static_cast<uint64_t>(issued_at));
  w->PutVarint64(static_cast<uint64_t>(deadline));
  plan.Serialize(w);
}

Status PlanEnvelope::Deserialize(Reader* r, PlanEnvelope* out) {
  PIER_RETURN_IF_ERROR(r->GetVarint64(&out->query_id));
  PIER_RETURN_IF_ERROR(r->GetVarint32(&out->origin));
  uint64_t issued = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint64(&issued));
  out->issued_at = static_cast<TimePoint>(issued);
  uint64_t deadline = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint64(&deadline));
  out->deadline = static_cast<TimePoint>(deadline);
  return QueryPlan::Deserialize(r, &out->plan);
}

}  // namespace query
}  // namespace pier
