// RecursiveStage: semi-naive transitive closure over an edge relation (the
// kRecurse opgraph node).
//
// Reach tuples (src, dst, hops) live in a per-query DHT namespace keyed on
// the canonical (src, dst) pair, so the pair's owner deduplicates
// re-derivations in-network. Each new pair is reported downstream (the
// runtime attaches the outer filter/projection chain) and expanded by
// probing the edge table — which must be partitioned on the source column —
// for edges leaving `dst`.

#ifndef PIER_QUERY_OPS_RECURSIVE_STAGE_H_
#define PIER_QUERY_OPS_RECURSIVE_STAGE_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "query/exchange.h"
#include "query/ops/scan_stage.h"
#include "query/ops/stage.h"

namespace pier {
namespace query {
namespace ops {

class RecursiveStage : public Stage {
 public:
  /// `node` is the kRecurse OpNode; `edge_scan` the kScan node feeding it.
  RecursiveStage(StageHost* host, uint64_t qid, uint32_t node_id,
                 const OpNode* node, const OpNode* edge_scan,
                 Duration window);

  /// Receives deduplicated (src, dst, hops) tuples, one-row batch each.
  void SetDownstream(BatchEmitFn fn) { downstream_ = std::move(fn); }

  uint32_t node_id() const { return node_id_; }

  const std::string& ns() const { return exchange_.ns(); }

  /// Seeds the closure: every local edge becomes a 1-hop path.
  void Setup();

  /// A reach tuple arriving at this node as the (src, dst) owner.
  void OnArrival(const dht::StoredItem& item);

 private:
  void PublishReach(const catalog::Tuple& reach, bool is_expansion);
  /// One decoded reach tuple owned here under the canonical `resource`.
  void OnReach(const std::string& resource, const catalog::Tuple& reach);
  void ExpandFrom(const Value& src, const Value& via, int64_t hops,
                  const std::vector<dht::DhtItem>& edges);

  StageHost* host_;
  uint64_t qid_;
  uint32_t node_id_;
  const OpNode* node_;
  const OpNode* edge_scan_;
  Duration window_;
  /// Reach tuples travel like any rehash traffic (one-row RowBatch frames
  /// keyed on the canonical (src, dst) resource); only the namespace name
  /// is bespoke.
  RehashExchange exchange_;
  BatchEmitFn downstream_;
  std::unordered_set<std::string> reach_seen_;  // dedup by canonical resource
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_RECURSIVE_STAGE_H_
