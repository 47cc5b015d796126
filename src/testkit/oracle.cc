#include "testkit/oracle.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "exec/operators.h"

namespace pier {
namespace testkit {

using catalog::Tuple;
using query::OpGraph;
using query::OpNode;
using query::OpType;

namespace {

/// Snapshot of one relation: the union of every alive node's *readable*
/// local slice — the same primary-or-failed-over-replica rule the scan
/// stages apply, so the oracle is exactly "a lossless execution of the
/// system's own read semantics". Deduplicated by (resource, instance) for
/// the transient windows where two nodes both believe they own a key.
std::vector<Tuple> CollectTable(core::PierNetwork& net,
                                const query::OpNode& scan) {
  std::set<std::pair<std::string, uint64_t>> seen;
  std::vector<Tuple> rows;
  for (size_t i = 0; i < net.size(); ++i) {
    core::PierNode* node = net.node(i);
    if (!node->alive()) continue;
    node->dht()->ForEachLocalReadable(
        scan.table, [&](const dht::StoredItem& item) {
          if (seen.insert({item.key.resource, item.key.instance}).second) {
            Tuple t;
            // Mirror ScanStage's arity filter: a stored blob that decodes
            // to the wrong width is dropped by the system and must not
            // inflate the ground truth either.
            if (catalog::TupleFromBytes(item.value, &t).ok() &&
                t.size() == scan.schema.num_columns()) {
              rows.push_back(std::move(t));
            }
          }
          return true;
        });
  }
  return rows;
}

std::vector<Tuple> RunGroupBy(const std::vector<Tuple>& input,
                              const std::vector<int>& group_cols,
                              const std::vector<exec::AggSpec>& aggs,
                              exec::AggPhase phase) {
  exec::GroupByOp gb(group_cols, aggs, phase);
  std::vector<Tuple> out;
  exec::FnSink sink([&out](const Tuple& t) { out.push_back(t); });
  gb.AddOutput(&sink);
  for (const Tuple& t : input) gb.Push(t, 0);
  gb.FlushAndReset();
  return out;
}

}  // namespace

Result<std::vector<Tuple>> OracleEvaluate(core::PierNetwork& net,
                                          const query::QueryPlan& plan) {
  const OpGraph& g = plan.graph;
  PIER_RETURN_IF_ERROR(g.Validate());
  if (g.Has(OpType::kRecurse)) {
    return Status::NotSupported("oracle: recursive graphs are not scored");
  }
  if (plan.window > 0) {
    // Windowed scans filter on per-copy arrival time (stored_at), which
    // differs across replicas and nodes — there is no single central
    // ground truth to score against.
    return Status::NotSupported("oracle: windowed scans are not scored");
  }

  // Materialize each node's output in topological (storage) order. The
  // whole evaluation is single-process: the answer the network *should*
  // converge to if no message were ever lost.
  std::vector<std::vector<Tuple>> out(g.nodes.size());
  for (size_t id = 0; id < g.nodes.size(); ++id) {
    const OpNode& node = g.nodes[id];
    switch (node.type) {
      case OpType::kScan:
        out[id] = CollectTable(net, node);
        break;
      case OpType::kIndexScan: {
        // Ground truth for an index scan: the same readable base slices a
        // broadcast scan would read, restricted to the node's closed value
        // range. The distributed path reads a SUPERSET of this range from
        // trie leaves and re-filters, and the exact-predicate kFilter that
        // always follows makes both sides converge to identical rows.
        std::vector<Tuple> rows = CollectTable(net, node);
        for (const Tuple& t : rows) {
          if (static_cast<size_t>(node.index_col) >= t.size()) continue;
          const Value& v = t[static_cast<size_t>(node.index_col)];
          if (v.is_null()) continue;  // range predicates never match NULL
          if (!node.index_lo.is_null() && v.Compare(node.index_lo) < 0) {
            continue;
          }
          if (!node.index_hi.is_null() && v.Compare(node.index_hi) > 0) {
            continue;
          }
          out[id].push_back(t);
        }
        break;
      }
      case OpType::kFilter: {
        for (const Tuple& t : out[node.inputs[0]]) {
          bool pass = false;
          if (node.predicate != nullptr &&
              exec::EvalPredicate(*node.predicate, t, &pass).ok() && pass) {
            out[id].push_back(t);
          }
        }
        break;
      }
      case OpType::kProject: {
        // The runtime's projection semantics: an expression whose scalar
        // evaluation errors on a row projects NULL; the row is kept.
        for (const Tuple& t : out[node.inputs[0]]) {
          Tuple projected;
          projected.reserve(node.exprs.size());
          for (const exec::ExprPtr& e : node.exprs) {
            Value v;
            if (!e->Eval(t, &v).ok()) v = Value::Null();
            projected.push_back(std::move(v));
          }
          out[id].push_back(std::move(projected));
        }
        break;
      }
      case OpType::kJoin: {
        exec::SymmetricHashJoinOp join(node.left_keys, node.right_keys,
                                       /*residual=*/nullptr);
        exec::FnSink sink(
            [&out, id](const Tuple& t) { out[id].push_back(t); });
        join.AddOutput(&sink);
        for (const Tuple& t : out[node.inputs[0]]) join.Push(t, 0);
        for (const Tuple& t : out[node.inputs[1]]) join.Push(t, 1);
        break;
      }
      case OpType::kPartialAgg:
        out[id] = RunGroupBy(out[node.inputs[0]], node.group_cols, node.aggs,
                             exec::AggPhase::kPartial);
        break;
      case OpType::kFinalAgg: {
        // Mirrors the origin: partial states merge with kFinal; raw rows
        // (join output shipped straight to the origin) aggregate complete.
        bool from_partials =
            g.nodes[node.inputs[0]].type == OpType::kPartialAgg;
        out[id] = RunGroupBy(out[node.inputs[0]], node.group_cols, node.aggs,
                             from_partials ? exec::AggPhase::kFinal
                                           : exec::AggPhase::kComplete);
        // SQL scalar-aggregate semantics: no groups + no input still yields
        // one identity row (COUNT = 0, SUM = NULL, ...).
        if (node.group_cols.empty() && out[id].empty()) {
          Tuple identity;
          for (const exec::AggSpec& spec : node.aggs) {
            Value v1, v2;
            exec::AggInit(spec, &v1, &v2);
            identity.push_back(exec::AggFinalize(spec, v1, v2));
          }
          out[id].push_back(std::move(identity));
        }
        if (node.having != nullptr) {
          std::vector<Tuple> kept;
          for (const Tuple& t : out[id]) {
            bool pass = false;
            if (exec::EvalPredicate(*node.having, t, &pass).ok() && pass) {
              kept.push_back(t);
            }
          }
          out[id] = std::move(kept);
        }
        break;
      }
      case OpType::kCollect: {
        std::vector<Tuple> rows = out[node.inputs[0]];
        bool aggregated = g.nodes[node.inputs[0]].type == OpType::kFinalAgg;
        if (aggregated && !node.final_projection.empty()) {
          for (Tuple& t : rows) {
            Tuple permuted;
            permuted.reserve(node.final_projection.size());
            for (int c : node.final_projection) {
              permuted.push_back(c >= 0 && static_cast<size_t>(c) < t.size()
                                     ? t[c]
                                     : Value::Null());
            }
            t = std::move(permuted);
          }
        }
        if (!aggregated && node.distinct) {
          std::vector<Tuple> unique;
          exec::DistinctOp distinct;
          exec::FnSink sink(
              [&unique](const Tuple& t) { unique.push_back(t); });
          distinct.AddOutput(&sink);
          for (const Tuple& t : rows) distinct.Push(t, 0);
          rows = std::move(unique);
        }
        if (node.order_col >= 0) {
          size_t k = node.limit >= 0 ? static_cast<size_t>(node.limit)
                                     : rows.size();
          exec::TopKOp topk(node.order_col, node.order_desc, k);
          std::vector<Tuple> ordered;
          exec::FnSink sink(
              [&ordered](const Tuple& t) { ordered.push_back(t); });
          topk.AddOutput(&sink);
          for (const Tuple& t : rows) topk.Push(t, 0);
          topk.FlushAndReset();
          rows = std::move(ordered);
        } else if (node.limit >= 0 &&
                   rows.size() > static_cast<size_t>(node.limit)) {
          rows.resize(static_cast<size_t>(node.limit));
        }
        out[id] = std::move(rows);
        break;
      }
      case OpType::kRecurse:
        return Status::NotSupported("oracle: recursive graphs");
    }
  }
  return std::move(out.back());
}

OracleScore ScoreAnswer(const std::vector<Tuple>& oracle,
                        const std::vector<Tuple>& answer) {
  OracleScore score;
  score.oracle_rows = oracle.size();
  score.answer_rows = answer.size();
  std::map<std::string, size_t> counts;
  for (const Tuple& t : oracle) ++counts[catalog::TupleToBytes(t)];
  for (const Tuple& t : answer) {
    auto it = counts.find(catalog::TupleToBytes(t));
    if (it != counts.end() && it->second > 0) {
      --it->second;
      ++score.matched;
    }
  }
  score.recall = oracle.empty()
                     ? 1.0
                     : static_cast<double>(score.matched) /
                           static_cast<double>(oracle.size());
  score.precision = answer.empty()
                        ? 1.0
                        : static_cast<double>(score.matched) /
                              static_cast<double>(answer.size());
  return score;
}

std::string OracleScore::ToString() const {
  char buf[128];
  snprintf(buf, sizeof(buf),
           "oracle=%zu answer=%zu matched=%zu recall=%.3f precision=%.3f",
           oracle_rows, answer_rows, matched, recall, precision);
  return buf;
}

}  // namespace testkit
}  // namespace pier
