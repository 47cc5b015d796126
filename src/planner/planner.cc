#include "planner/planner.h"

#include <algorithm>
#include <optional>

#include "planner/join_cost.h"

namespace pier {
namespace planner {

namespace {

using catalog::Schema;
using exec::AggSpec;
using exec::Expr;
using exec::ExprPtr;
using query::OpGraph;
using query::OpNode;
using query::OpType;
using query::QueryPlan;
using sql::AstExpr;
using sql::AstExprPtr;
using sql::SelectStmt;

/// Qualifies a table's schema with its alias so "alias.col" resolves.
Schema AliasSchema(const catalog::TableDef& def, const std::string& alias) {
  return Schema(alias, def.schema.columns());
}

bool ContainsAgg(const AstExprPtr& e) {
  if (e == nullptr) return false;
  if (e->kind == AstExpr::Kind::kAggCall) return true;
  return ContainsAgg(e->left) || ContainsAgg(e->right);
}

/// Binds an AST expression over `schema`, rejecting aggregate calls.
Status BindScalar(const AstExprPtr& ast, const Schema& schema, ExprPtr* out) {
  if (ast == nullptr) return Status::InvalidArgument("null expression");
  switch (ast->kind) {
    case AstExpr::Kind::kLiteral:
      *out = Expr::Literal(ast->literal);
      return Status::OK();
    case AstExpr::Kind::kColumn: {
      int index = -1;
      PIER_RETURN_IF_ERROR(schema.Resolve(ast->column, &index));
      *out = Expr::Column(index, ast->column);
      return Status::OK();
    }
    case AstExpr::Kind::kCompare: {
      ExprPtr l, r;
      PIER_RETURN_IF_ERROR(BindScalar(ast->left, schema, &l));
      PIER_RETURN_IF_ERROR(BindScalar(ast->right, schema, &r));
      *out = Expr::Compare(ast->cmp, l, r);
      return Status::OK();
    }
    case AstExpr::Kind::kArith: {
      ExprPtr l, r;
      PIER_RETURN_IF_ERROR(BindScalar(ast->left, schema, &l));
      PIER_RETURN_IF_ERROR(BindScalar(ast->right, schema, &r));
      *out = Expr::Arith(ast->arith, l, r);
      return Status::OK();
    }
    case AstExpr::Kind::kAnd:
    case AstExpr::Kind::kOr: {
      ExprPtr l, r;
      PIER_RETURN_IF_ERROR(BindScalar(ast->left, schema, &l));
      PIER_RETURN_IF_ERROR(BindScalar(ast->right, schema, &r));
      *out = ast->kind == AstExpr::Kind::kAnd ? Expr::And(l, r)
                                              : Expr::Or(l, r);
      return Status::OK();
    }
    case AstExpr::Kind::kNot: {
      ExprPtr inner;
      PIER_RETURN_IF_ERROR(BindScalar(ast->left, schema, &inner));
      *out = Expr::Not(inner);
      return Status::OK();
    }
    case AstExpr::Kind::kNeg: {
      ExprPtr inner;
      PIER_RETURN_IF_ERROR(BindScalar(ast->left, schema, &inner));
      *out = Expr::Negate(inner);
      return Status::OK();
    }
    case AstExpr::Kind::kIsNull:
    case AstExpr::Kind::kIsNotNull: {
      ExprPtr inner;
      PIER_RETURN_IF_ERROR(BindScalar(ast->left, schema, &inner));
      *out = Expr::IsNull(inner, ast->kind == AstExpr::Kind::kIsNotNull);
      return Status::OK();
    }
    case AstExpr::Kind::kAggCall:
      return Status::InvalidArgument(
          "aggregate not allowed in this context: " + ast->ToString());
  }
  return Status::Internal("unreachable expr kind");
}

/// Flattens an AND tree into conjuncts.
void Conjuncts(const AstExprPtr& e, std::vector<AstExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == AstExpr::Kind::kAnd) {
    Conjuncts(e->left, out);
    Conjuncts(e->right, out);
    return;
  }
  out->push_back(e);
}

/// Rebuilds an AND tree from conjuncts (null when empty).
AstExprPtr AndAll(const std::vector<AstExprPtr>& cs) {
  AstExprPtr out;
  for (const AstExprPtr& c : cs) {
    if (out == nullptr) {
      out = c;
    } else {
      auto e = std::make_shared<AstExpr>();
      e->kind = AstExpr::Kind::kAnd;
      e->left = out;
      e->right = c;
      out = e;
    }
  }
  return out;
}

/// Is `e` a plain column of `schema`? Returns its index or -1.
int ColumnIndexIn(const AstExprPtr& e, const Schema& schema) {
  if (e == nullptr || e->kind != AstExpr::Kind::kColumn) return -1;
  int index = -1;
  if (!schema.Resolve(e->column, &index).ok()) return -1;
  return index;
}

struct AggAnalysis {
  std::vector<int> group_cols;           // indices into the input schema
  std::vector<std::string> group_names;  // as written in GROUP BY
  std::vector<AggSpec> aggs;
  std::vector<int> final_projection;     // select-order over [group|aggs]
};

/// Finds (or appends) an aggregate spec matching fn over column `col`.
int FindOrAddAgg(AggAnalysis* a, exec::AggFunc fn, int col,
                 const std::string& name) {
  for (size_t i = 0; i < a->aggs.size(); ++i) {
    if (a->aggs[i].fn == fn && a->aggs[i].col == col) {
      return static_cast<int>(i);
    }
  }
  a->aggs.push_back(AggSpec{fn, col, name});
  return static_cast<int>(a->aggs.size()) - 1;
}

/// Rewrites an expression over the aggregate output layout
/// [group values..., aggregate results...]: group columns become column refs
/// into the prefix; aggregate calls become refs past the prefix.
Status BindOverAggLayout(const AstExprPtr& ast, const Schema& input,
                         AggAnalysis* a, ExprPtr* out) {
  if (ast == nullptr) return Status::InvalidArgument("null expression");
  if (ast->kind == AstExpr::Kind::kAggCall) {
    int col = -1;
    if (ast->left != nullptr) {
      col = ColumnIndexIn(ast->left, input);
      if (col < 0) {
        return Status::InvalidArgument(
            "aggregate argument must be a column: " + ast->ToString());
      }
    }
    int agg_index = FindOrAddAgg(a, ast->agg, col, ast->ToString());
    *out = Expr::Column(static_cast<int>(a->group_cols.size()) + agg_index,
                        ast->ToString());
    return Status::OK();
  }
  if (ast->kind == AstExpr::Kind::kColumn) {
    int input_index = -1;
    PIER_RETURN_IF_ERROR(input.Resolve(ast->column, &input_index));
    for (size_t g = 0; g < a->group_cols.size(); ++g) {
      if (a->group_cols[g] == input_index) {
        *out = Expr::Column(static_cast<int>(g), ast->column);
        return Status::OK();
      }
    }
    return Status::InvalidArgument("column " + ast->column +
                                   " is neither grouped nor aggregated");
  }
  // Recurse structurally for composite expressions.
  switch (ast->kind) {
    case AstExpr::Kind::kLiteral:
      *out = Expr::Literal(ast->literal);
      return Status::OK();
    case AstExpr::Kind::kCompare: {
      ExprPtr l, r;
      PIER_RETURN_IF_ERROR(BindOverAggLayout(ast->left, input, a, &l));
      PIER_RETURN_IF_ERROR(BindOverAggLayout(ast->right, input, a, &r));
      *out = Expr::Compare(ast->cmp, l, r);
      return Status::OK();
    }
    case AstExpr::Kind::kArith: {
      ExprPtr l, r;
      PIER_RETURN_IF_ERROR(BindOverAggLayout(ast->left, input, a, &l));
      PIER_RETURN_IF_ERROR(BindOverAggLayout(ast->right, input, a, &r));
      *out = Expr::Arith(ast->arith, l, r);
      return Status::OK();
    }
    case AstExpr::Kind::kAnd:
    case AstExpr::Kind::kOr: {
      ExprPtr l, r;
      PIER_RETURN_IF_ERROR(BindOverAggLayout(ast->left, input, a, &l));
      PIER_RETURN_IF_ERROR(BindOverAggLayout(ast->right, input, a, &r));
      *out = ast->kind == AstExpr::Kind::kAnd ? Expr::And(l, r)
                                              : Expr::Or(l, r);
      return Status::OK();
    }
    case AstExpr::Kind::kNot: {
      ExprPtr inner;
      PIER_RETURN_IF_ERROR(BindOverAggLayout(ast->left, input, a, &inner));
      *out = Expr::Not(inner);
      return Status::OK();
    }
    case AstExpr::Kind::kNeg: {
      ExprPtr inner;
      PIER_RETURN_IF_ERROR(BindOverAggLayout(ast->left, input, a, &inner));
      *out = Expr::Negate(inner);
      return Status::OK();
    }
    default:
      return Status::NotSupported("expression over aggregates: " +
                                  ast->ToString());
  }
}

/// Binds an aggregating SELECT into the tail's final-agg and collect nodes.
Status PlanAggregation(const SelectStmt& stmt, const Schema& input,
                       OpNode* final_agg, OpNode* collect) {
  AggAnalysis a;
  for (const std::string& g : stmt.group_by) {
    int index = -1;
    PIER_RETURN_IF_ERROR(input.Resolve(g, &index));
    a.group_cols.push_back(index);
    a.group_names.push_back(g);
  }
  // Each SELECT item must reduce to a group column or an aggregate.
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr->kind == AstExpr::Kind::kAggCall) {
      int col = -1;
      if (item.expr->left != nullptr) {
        col = ColumnIndexIn(item.expr->left, input);
        if (col < 0) {
          return Status::InvalidArgument(
              "aggregate argument must be a column: " +
              item.expr->ToString());
        }
      }
      std::string name =
          item.alias.empty() ? item.expr->ToString() : item.alias;
      int agg_index = FindOrAddAgg(&a, item.expr->agg, col, name);
      a.final_projection.push_back(
          static_cast<int>(a.group_cols.size()) + agg_index);
      continue;
    }
    if (item.expr->kind == AstExpr::Kind::kColumn) {
      int input_index = -1;
      PIER_RETURN_IF_ERROR(input.Resolve(item.expr->column, &input_index));
      bool found = false;
      for (size_t g = 0; g < a.group_cols.size(); ++g) {
        if (a.group_cols[g] == input_index) {
          a.final_projection.push_back(static_cast<int>(g));
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("column " + item.expr->column +
                                       " must appear in GROUP BY");
      }
      continue;
    }
    return Status::NotSupported(
        "aggregate SELECT items must be columns or aggregate calls: " +
        item.expr->ToString());
  }
  if (stmt.having != nullptr) {
    PIER_RETURN_IF_ERROR(
        BindOverAggLayout(stmt.having, input, &a, &final_agg->having));
  }
  // ORDER BY: an alias of a select item, a group column, or an agg call.
  if (stmt.order_by != nullptr) {
    int order = -1;
    if (stmt.order_by->kind == AstExpr::Kind::kColumn) {
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (!stmt.items[i].alias.empty() &&
            stmt.items[i].alias == stmt.order_by->column) {
          order = static_cast<int>(i);
          break;
        }
      }
    }
    if (order < 0) {
      // Match by structural print against select items.
      std::string want = stmt.order_by->ToString();
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (stmt.items[i].expr->ToString() == want) {
          order = static_cast<int>(i);
          break;
        }
      }
    }
    if (order < 0) {
      return Status::NotSupported(
          "ORDER BY must reference a SELECT item in aggregate queries");
    }
    collect->order_col = order;
    collect->order_desc = stmt.order_desc;
  }
  final_agg->group_cols = std::move(a.group_cols);
  final_agg->aggs = std::move(a.aggs);
  collect->final_projection = std::move(a.final_projection);
  return Status::OK();
}

/// Binds a plain SELECT list into the tail's project and collect nodes
/// (SELECT * leaves the projection empty: the identity).
Status PlanSelectItems(const SelectStmt& stmt, const Schema& schema,
                       OpNode* project, OpNode* collect) {
  if (!stmt.select_star) {
    for (const sql::SelectItem& item : stmt.items) {
      ExprPtr bound;
      PIER_RETURN_IF_ERROR(BindScalar(item.expr, schema, &bound));
      project->exprs.push_back(bound);
    }
  }
  collect->distinct = stmt.distinct;
  if (stmt.order_by != nullptr) {
    // Resolve against the output: alias, structural match, or (for SELECT *)
    // a schema column.
    int order = -1;
    if (stmt.order_by->kind == AstExpr::Kind::kColumn) {
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (!stmt.items[i].alias.empty() &&
            stmt.items[i].alias == stmt.order_by->column) {
          order = static_cast<int>(i);
        }
      }
      if (order < 0 && stmt.select_star) {
        int index = -1;
        PIER_RETURN_IF_ERROR(schema.Resolve(stmt.order_by->column, &index));
        order = index;
      }
    }
    if (order < 0) {
      std::string want = stmt.order_by->ToString();
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (stmt.items[i].expr->ToString() == want) {
          order = static_cast<int>(i);
        }
      }
    }
    if (order < 0) {
      return Status::NotSupported("cannot resolve ORDER BY expression");
    }
    collect->order_col = order;
    collect->order_desc = stmt.order_desc;
  }
  return Status::OK();
}

bool HasAggregation(const SelectStmt& stmt) {
  bool has_agg = !stmt.group_by.empty();
  for (const sql::SelectItem& item : stmt.items) {
    has_agg = has_agg || ContainsAgg(item.expr);
  }
  return has_agg;
}

/// Binds the SELECT list over `input` into the origin-bound tail's nodes
/// (see query::AppendTail): `shape` becomes the final-agg node of an
/// aggregating query, else the projection; `collect` the origin sink.
Status BindTail(const SelectStmt& stmt, const Schema& input, OpNode* shape,
                OpNode* collect) {
  *collect = query::CollectOp();
  collect->limit = stmt.limit;
  if (HasAggregation(stmt)) {
    *shape = query::FinalAggOp({}, {});
    return PlanAggregation(stmt, input, shape, collect);
  }
  *shape = query::ProjectOp({});
  return PlanSelectItems(stmt, input, shape, collect);
}

/// Plans FROM lists of two or more relations as a left-deep chain of
/// binary equi-joins: scans rehash into the first join, each join's output
/// rehashes into the next on the following join key, and the final join
/// feeds the origin-bound tail.
///
/// A binary join picks its strategy (fetch-matches when the inner relation
/// is partitioned on the key, else the caller's, else the cost model's) and
/// aggregates the joined rows at the origin. Longer chains stay symmetric
/// hash past the first edge and aggregate in-network: a partial-agg stage
/// runs at the final join's rendezvous nodes, combined per AggStrategy.
Result<QueryPlan> PlanJoin(const SelectStmt& stmt,
                           const catalog::Catalog& catalog,
                           const PlannerOptions& options) {
  const size_t n = stmt.from.size();
  const bool binary = n == 2;
  // n scans + (n-1) joins + filter/agg/collect tail must fit the opgraph
  // wire cap (64 nodes); reject well-formed-but-oversized SQL here with a
  // planner error instead of a corruption status at Execute.
  if (n > 30) {
    return Status::InvalidArgument(
        "FROM lists a maximum of 30 relations");
  }
  std::vector<const catalog::TableDef*> defs(n);
  std::vector<Schema> schemas(n);
  for (size_t i = 0; i < n; ++i) {
    defs[i] = catalog.Find(stmt.from[i].table);
    if (defs[i] == nullptr) {
      return Status::NotFound("unknown table: " + stmt.from[i].table);
    }
    schemas[i] = AliasSchema(*defs[i], stmt.from[i].alias);
  }

  std::vector<AstExprPtr> conjuncts;
  Conjuncts(stmt.join_on, &conjuncts);
  Conjuncts(stmt.where, &conjuncts);
  std::vector<bool> used(conjuncts.size(), false);

  // Greedy left-deep join order: start from the first relation, repeatedly
  // attach a relation connected to the current layout by >= 1 equality
  // conjunct, consuming every key conjunct that links the two sides.
  struct JoinStep {
    size_t table;
    std::vector<int> left_keys;   // into the accumulated layout
    std::vector<int> right_keys;  // into the attached relation's schema
  };
  std::vector<bool> joined(n, false);
  joined[0] = true;
  Schema layout = schemas[0];
  std::vector<JoinStep> steps;
  for (size_t step = 1; step < n; ++step) {
    bool attached = false;
    for (size_t t = 0; t < n && !attached; ++t) {
      if (joined[t]) continue;
      Schema concat = Schema::Concat(layout, schemas[t]);
      size_t left_width = layout.num_columns();
      JoinStep js;
      js.table = t;
      std::vector<size_t> consumed;
      for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
        if (used[ci]) continue;
        const AstExprPtr& c = conjuncts[ci];
        if (c->kind != AstExpr::Kind::kCompare ||
            c->cmp != exec::CompareOp::kEq) {
          continue;
        }
        int a = ColumnIndexIn(c->left, concat);
        int b = ColumnIndexIn(c->right, concat);
        if (a < 0 || b < 0) continue;
        bool a_left = static_cast<size_t>(a) < left_width;
        bool b_left = static_cast<size_t>(b) < left_width;
        if (a_left == b_left) continue;
        int l = a_left ? a : b;
        int r = a_left ? b : a;
        js.left_keys.push_back(l);
        js.right_keys.push_back(r - static_cast<int>(left_width));
        consumed.push_back(ci);
      }
      if (js.left_keys.empty()) continue;
      for (size_t ci : consumed) used[ci] = true;
      joined[t] = true;
      layout = std::move(concat);
      steps.push_back(std::move(js));
      attached = true;
    }
    if (!attached) {
      return Status::NotSupported(
          binary ? "joins require at least one equality predicate between "
                   "the two relations"
                 : "every FROM relation must connect to the join via an "
                   "equality predicate (cross products are not distributed)");
    }
  }

  QueryPlan plan;
  plan.every = Seconds(stmt.every_seconds);
  plan.window = Seconds(stmt.window_seconds);

  // Residual predicate over the full concat layout.
  std::vector<AstExprPtr> residual;
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    if (!used[ci]) residual.push_back(conjuncts[ci]);
  }
  ExprPtr where;
  AstExprPtr residual_ast = AndAll(residual);
  if (residual_ast != nullptr) {
    PIER_RETURN_IF_ERROR(BindScalar(residual_ast, layout, &where));
  }

  // Scans rehash into the first join; each join's output rehashes into the
  // next; the final join feeds the post-join tail locally.
  OpGraph& g = plan.graph;
  auto add_scan = [&](size_t t) {
    OpNode s = query::ScanOp(defs[t]->name, schemas[t]);
    s.out = query::ExchangeKind::kRehash;
    g.nodes.push_back(std::move(s));
    return static_cast<uint32_t>(g.nodes.size()) - 1;
  };
  uint32_t upstream = add_scan(0);
  for (size_t k = 0; k < steps.size(); ++k) {
    uint32_t right = add_scan(steps[k].table);
    OpNode j = query::JoinOp(query::JoinStrategy::kSymmetricHash,
                             steps[k].left_keys, steps[k].right_keys);
    // Per-edge strategy selection. Only the first edge joins two base-table
    // scans; later edges consume a prior join's rehash output, whose
    // tuples exist nowhere until that join runs — semi/Bloom pre-filtering
    // has no scan to suppress, so those edges stay symmetric hash.
    const catalog::TableDef& inner = *defs[steps[k].table];
    if (binary && options.prefer_fetch_matches &&
        inner.partition_cols == j.right_keys) {
      // Partitioning alignment beats any cardinality argument:
      // fetch-matches ships zero tuples for the inner relation.
      j.strategy = query::JoinStrategy::kFetchMatches;
    } else if (k == 0 && options.join_strategy ==
                             query::JoinStrategy::kSymmetricHash) {
      // The caller left the strategy at its default, so the planner owns
      // the choice: consult table statistics and pick the cheapest
      // shipping strategy for this edge. Without stats this is a no-op.
      JoinCostInputs ci;
      ci.left = &defs[0]->stats;
      ci.right = &inner.stats;
      ci.left_key_cols = j.left_keys;
      ci.right_key_cols = j.right_keys;
      j.strategy = ChooseJoinStrategy(ci).strategy;
    } else if (binary) {
      j.strategy = options.join_strategy;  // a directive, not a hint
    }
    j.inputs = {upstream, right};
    j.out = k + 1 < steps.size() ? query::ExchangeKind::kRehash
                                 : query::ExchangeKind::kLocal;
    g.nodes.push_back(std::move(j));
    upstream = static_cast<uint32_t>(g.nodes.size()) - 1;
  }
  OpNode shape, collect;
  PIER_RETURN_IF_ERROR(BindTail(stmt, layout, &shape, &collect));
  std::optional<query::AggStrategy> partial;
  if (!binary) partial = options.agg_strategy;
  query::AppendTail(&g, std::move(where), std::move(shape),
                    std::move(collect), partial);
  return plan;
}

// ---------------------------------------------------------------------------
// Index-scan access-path selection
// ---------------------------------------------------------------------------

/// The range a WHERE clause pins onto one indexed attribute. Bounds are the
/// CLOSED superset the cursor walks (strict bounds keep the literal; the
/// trailing exact filter re-checks), Null = open side.
struct IndexChoice {
  int col = -1;
  Value lo;
  Value hi;
  int bound_count = 0;
};

bool LiteralFitsColumn(const Value& lit, ValueType col_type) {
  switch (col_type) {
    case ValueType::kInt64:
      return lit.type() == ValueType::kInt64 ||
             lit.type() == ValueType::kDouble;
    case ValueType::kString:
      return lit.type() == ValueType::kString;
    default:
      return false;
  }
}

/// Picks the indexed attribute the WHERE conjuncts constrain best (two-sided
/// ranges beat one-sided ones). Only `col op literal` / `literal op col`
/// conjuncts count; everything else stays in the filter.
IndexChoice ChooseIndex(const sql::SelectStmt& stmt,
                        const catalog::TableDef& def, const Schema& schema) {
  std::vector<AstExprPtr> conjuncts;
  Conjuncts(stmt.where, &conjuncts);

  IndexChoice best;
  for (const catalog::IndexDef& idx : def.indexes) {
    IndexChoice choice;
    choice.col = idx.col;
    ValueType col_type =
        def.schema.column(static_cast<size_t>(idx.col)).type;
    bool has_lo = false, has_hi = false;
    for (const AstExprPtr& c : conjuncts) {
      if (c == nullptr || c->kind != AstExpr::Kind::kCompare) continue;
      // Normalize to column-on-the-left.
      AstExprPtr col_side = c->left, lit_side = c->right;
      exec::CompareOp op = c->cmp;
      if (col_side != nullptr && col_side->kind == AstExpr::Kind::kLiteral) {
        std::swap(col_side, lit_side);
        switch (op) {  // 5 < x  ==  x > 5
          case exec::CompareOp::kLt: op = exec::CompareOp::kGt; break;
          case exec::CompareOp::kLe: op = exec::CompareOp::kGe; break;
          case exec::CompareOp::kGt: op = exec::CompareOp::kLt; break;
          case exec::CompareOp::kGe: op = exec::CompareOp::kLe; break;
          default: break;
        }
      }
      if (lit_side == nullptr || lit_side->kind != AstExpr::Kind::kLiteral) {
        continue;
      }
      if (ColumnIndexIn(col_side, schema) != idx.col) continue;
      const Value& lit = lit_side->literal;
      if (lit.is_null() || !LiteralFitsColumn(lit, col_type)) continue;
      switch (op) {
        case exec::CompareOp::kGt:
        case exec::CompareOp::kGe:
          if (!has_lo || choice.lo.Compare(lit) < 0) choice.lo = lit;
          has_lo = true;
          break;
        case exec::CompareOp::kLt:
        case exec::CompareOp::kLe:
          if (!has_hi || lit.Compare(choice.hi) < 0) choice.hi = lit;
          has_hi = true;
          break;
        case exec::CompareOp::kEq:
          if (!has_lo || choice.lo.Compare(lit) < 0) choice.lo = lit;
          if (!has_hi || lit.Compare(choice.hi) < 0) choice.hi = lit;
          has_lo = has_hi = true;
          break;
        default:
          break;
      }
    }
    choice.bound_count = (has_lo ? 1 : 0) + (has_hi ? 1 : 0);
    if (choice.bound_count > best.bound_count) best = choice;
  }
  return best;
}

/// The PHT index-scan access path: the cursor gathers the in-range rows at
/// the origin, and the full WHERE re-applies after it — the encoded range is
/// a superset (string truncation, double bounds), and WHERE may carry
/// conjuncts the index never saw.
OpNode IndexScanOp(const catalog::TableDef& def, const Schema& schema,
                   const IndexChoice& choice) {
  OpNode scan;
  scan.type = OpType::kIndexScan;
  scan.table = def.name;
  scan.schema = schema;
  scan.index_col = choice.col;
  scan.index_lo = choice.lo;
  scan.index_hi = choice.hi;
  return scan;
}

Result<QueryPlan> PlanSelect(const SelectStmt& stmt,
                             const catalog::Catalog& catalog,
                             const PlannerOptions& options) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM must name at least one relation");
  }
  if (stmt.from.size() > 1) return PlanJoin(stmt, catalog, options);
  QueryPlan plan;
  plan.every = Seconds(stmt.every_seconds);
  plan.window = Seconds(stmt.window_seconds);
  const catalog::TableDef* left_def = catalog.Find(stmt.from[0].table);
  if (left_def == nullptr) {
    return Status::NotFound("unknown table: " + stmt.from[0].table);
  }
  Schema left_schema = AliasSchema(*left_def, stmt.from[0].alias);

  ExprPtr where;
  if (stmt.where != nullptr) {
    PIER_RETURN_IF_ERROR(BindScalar(stmt.where, left_schema, &where));
  }
  // Access-path selection: a WHERE that pins an indexed attribute to a
  // range turns the broadcast scan into a PHT index scan, which runs
  // entirely at the origin (plus the trie owners the cursor contacts):
  // aggregation finalizes there with no partial-agg layer. Windowed
  // continuous queries keep scanning — index entries carry their own
  // arrival times, not the base copies', so window semantics differ.
  IndexChoice choice;
  if (options.use_index && where != nullptr && plan.window == 0) {
    choice = ChooseIndex(stmt, *left_def, left_schema);
  }
  std::optional<query::AggStrategy> partial = options.agg_strategy;
  if (choice.bound_count > 0) {
    plan.graph.nodes.push_back(IndexScanOp(*left_def, left_schema, choice));
    partial.reset();
  } else {
    plan.graph.nodes.push_back(query::ScanOp(left_def->name, left_schema));
  }
  OpNode shape, collect;
  PIER_RETURN_IF_ERROR(BindTail(stmt, left_schema, &shape, &collect));
  query::AppendTail(&plan.graph, std::move(where), std::move(shape),
                    std::move(collect), partial);
  return plan;
}

Result<QueryPlan> PlanRecursive(const sql::RecursiveQuery& rq,
                                const catalog::Catalog& catalog) {
  if (rq.columns.size() != 2) {
    return Status::NotSupported(
        "recursive relations must declare exactly (src, dst)");
  }
  // Base: SELECT c1, c2 FROM edge [WHERE ...].
  if (rq.base.from.size() != 1 || rq.base.items.size() != 2) {
    return Status::NotSupported(
        "recursive base must be SELECT src, dst FROM <edges>");
  }
  const catalog::TableDef* edge_def = catalog.Find(rq.base.from[0].table);
  if (edge_def == nullptr) {
    return Status::NotFound("unknown edge table: " + rq.base.from[0].table);
  }
  Schema edge_schema = AliasSchema(*edge_def, rq.base.from[0].alias);
  int src_col = ColumnIndexIn(rq.base.items[0].expr, edge_schema);
  int dst_col = ColumnIndexIn(rq.base.items[1].expr, edge_schema);
  if (src_col < 0 || dst_col < 0) {
    return Status::NotSupported(
        "recursive base items must be edge-table columns");
  }
  // Step: must join the recursive relation with the same edge table (the
  // canonical transitive-closure shape); details are implied.
  bool step_uses_self = false, step_uses_edges = false;
  for (const sql::TableRef& ref : rq.step.from) {
    step_uses_self |= ref.table == rq.name;
    step_uses_edges |= ref.table == edge_def->name;
  }
  if (!step_uses_self || !step_uses_edges) {
    return Status::NotSupported(
        "recursive step must join " + rq.name + " with " + edge_def->name);
  }

  ExprPtr edge_where, outer_where;
  if (rq.base.where != nullptr) {
    PIER_RETURN_IF_ERROR(BindScalar(rq.base.where, edge_schema, &edge_where));
  }

  // Outer select runs over (src, dst, hops).
  Schema closure(rq.name, {{rq.columns[0], ValueType::kNull},
                           {rq.columns[1], ValueType::kNull},
                           {"hops", ValueType::kInt64}});
  if (rq.outer.from.size() != 1 || rq.outer.from[0].table != rq.name) {
    return Status::NotSupported("outer select must read FROM " + rq.name);
  }
  if (rq.outer.where != nullptr) {
    PIER_RETURN_IF_ERROR(BindScalar(rq.outer.where, closure, &outer_where));
  }
  std::vector<ExprPtr> projections;
  if (!rq.outer.select_star) {
    for (const sql::SelectItem& item : rq.outer.items) {
      ExprPtr bound;
      PIER_RETURN_IF_ERROR(BindScalar(item.expr, closure, &bound));
      projections.push_back(bound);
    }
  }
  QueryPlan plan;
  plan.graph = query::RecursiveGraph(
      edge_def->name, edge_schema, src_col, dst_col,
      static_cast<int>(rq.max_hops), std::move(edge_where),
      std::move(outer_where), std::move(projections));
  plan.graph.nodes.back().limit = rq.outer.limit;
  return plan;
}

}  // namespace

Result<QueryPlan> PlanStatement(const sql::Statement& stmt,
                                const catalog::Catalog& catalog,
                                const PlannerOptions& options) {
  if (stmt.kind == sql::Statement::Kind::kRecursive) {
    return PlanRecursive(*stmt.recursive, catalog);
  }
  return PlanSelect(stmt.select, catalog, options);
}

Result<uint64_t> ExecuteSql(query::QueryEngine* engine, const std::string& sql,
                            query::QueryEngine::ResultCallback cb,
                            const PlannerOptions& options) {
  sql::Statement stmt;
  PIER_ASSIGN_OR_RETURN(stmt, sql::Parse(sql));
  query::QueryPlan plan;
  PIER_ASSIGN_OR_RETURN(plan, PlanStatement(stmt, *engine->catalog(),
                                            options));
  if (stmt.explain) {
    // EXPLAIN answers locally: the planned opgraph's rendering as a
    // one-row result. Nothing is disseminated; the id 0 marks "no query".
    query::ResultBatch batch;
    batch.rows.push_back({Value::String(plan.graph.ToString())});
    if (cb) cb(batch);
    return static_cast<uint64_t>(0);
  }
  return engine->Execute(std::move(plan), std::move(cb));
}

}  // namespace planner
}  // namespace pier
