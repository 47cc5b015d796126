#include "query/ops/recursive_stage.h"

#include "exec/expr.h"

namespace pier {
namespace query {
namespace ops {

using catalog::Tuple;

RecursiveStage::RecursiveStage(StageHost* host, uint64_t qid,
                               uint32_t node_id, const OpNode* node,
                               const OpNode* edge_scan, Duration window)
    : host_(host),
      qid_(qid),
      node_id_(node_id),
      node_(node),
      edge_scan_(edge_scan),
      window_(window),
      exchange_(host, qid, "q" + std::to_string(qid) + ".reach") {}

void RecursiveStage::PublishReach(const Tuple& reach, bool is_expansion) {
  if (is_expansion) ++host_->mutable_stats()->recursion_expansions;
  exchange_.Publish(/*side=*/0, {0, 1}, exec::RowBatch::OfRow(reach));
}

void RecursiveStage::Setup() {
  // Catch-up: reach tuples published by nodes that got the plan first may
  // land here before the plan broadcast did; they are waiting in the
  // exchange namespace.
  host_->dht()->ForEachLocalReadable(ns(), [this](const dht::StoredItem& item) {
    OnArrival(item);
    return true;
  });
  // Seed: every local edge is a 1-hop path.
  ScanStage scan(host_, edge_scan_, window_);
  scan.Run([&](const Tuple& e) {
    if (node_->predicate != nullptr) {
      bool pass = false;
      if (!exec::EvalPredicate(*node_->predicate, e, &pass).ok() || !pass) {
        return true;
      }
    }
    Tuple reach{e[node_->src_col], e[node_->dst_col], Value::Int64(1)};
    PublishReach(reach, /*is_expansion=*/false);
    return true;
  });
}

void RecursiveStage::OnArrival(const dht::StoredItem& item) {
  int side = 0;
  exec::RowBatch b;
  if (!RehashExchange::DecodeArrival(item, &side, &b).ok() ||
      b.num_columns() != 3) {
    return;
  }
  Tuple reach;
  for (size_t i = 0; i < b.num_rows(); ++i) {
    b.ToTuple(i, &reach);
    OnReach(item.key.resource, reach);
  }
}

void RecursiveStage::OnReach(const std::string& resource, const Tuple& reach) {
  // Dedup on the canonical (src, dst) resource: this node owns this pair.
  if (!reach_seen_.insert(resource).second) {
    ++host_->mutable_stats()->recursion_duplicates;
    return;
  }

  // Report (src, dst, hops) to the origin through the outer pipeline.
  if (downstream_) EmitRow(downstream_, reach);

  // Expand: reach(s, d, h) ⋈ edge(d, w) -> reach(s, w, h+1).
  int64_t hops = 0;
  if (!reach[2].AsInt64(&hops).ok() || hops >= node_->max_hops) return;
  Tuple probe(static_cast<size_t>(node_->src_col) + 1);
  probe[node_->src_col] = reach[1];  // edges leaving `dst`
  std::string edge_resource =
      catalog::ResourceForCols(probe, {node_->src_col});
  StageHost* host = host_;
  uint64_t qid = qid_;
  uint32_t node_id = node_id_;
  Value src = reach[0];
  Value via = reach[1];
  host_->dht()->Get(
      edge_scan_->table, edge_resource,
      [host, qid, node_id, src, via, hops](Status s,
                                           std::vector<dht::DhtItem> items) {
        if (!s.ok()) return;
        host->PostToStage(qid, node_id, [&](Stage* stage) {
          static_cast<RecursiveStage*>(stage)->ExpandFrom(src, via, hops,
                                                          items);
        });
      });
}

void RecursiveStage::ExpandFrom(const Value& src, const Value& via,
                                int64_t hops,
                                const std::vector<dht::DhtItem>& edges) {
  for (const dht::DhtItem& item : edges) {
    Tuple edge;
    if (!catalog::TupleFromBytes(item.value, &edge).ok()) continue;
    if (edge.size() != edge_scan_->schema.num_columns()) continue;
    if (edge[node_->src_col].Compare(via) != 0) continue;
    if (node_->predicate != nullptr) {
      bool pass = false;
      if (!exec::EvalPredicate(*node_->predicate, edge, &pass).ok() ||
          !pass) {
        continue;
      }
    }
    Tuple next{src, edge[node_->dst_col], Value::Int64(hops + 1)};
    PublishReach(next, /*is_expansion=*/true);
  }
}

}  // namespace ops
}  // namespace query
}  // namespace pier
