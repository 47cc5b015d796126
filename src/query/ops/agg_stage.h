// AggStage: the member-side half of distributed aggregation — the
// kPartialAgg opgraph node plus the kTree exchange's combine duty.
//
// Raw rows arrive through PushRawBatch and partial-aggregate in one
// VectorGroupBy; a flush drains it and routes the partials by the node's
// output exchange: kTree folds into this node's TreeCombiner (held until
// children have flushed), anything else ships partials immediately. What
// triggers the flush depends on the producer:
//  - Scan-fed (epochal): BeginEpoch / PushRawBatch / Flush once per epoch.
//  - Join-fed (streaming): joined rows arrive continuously at rendezvous
//    nodes as one-row batches; the first batch arms a hold timer whose
//    expiry flushes, so aggregation happens in-network at the join site
//    instead of shipping raw rows to the origin.
//
// Either way, partials relayed through this node as a dissemination-tree
// parent (OnRemotePartial) merge into the open combiner, or — matching the
// engine's historical behavior for epochal queries — relay upward
// unmodified when the combine window already closed.

#ifndef PIER_QUERY_OPS_AGG_STAGE_H_
#define PIER_QUERY_OPS_AGG_STAGE_H_

#include <memory>
#include <vector>

#include "exec/kernels.h"
#include "query/exchange.h"
#include "query/ops/stage.h"

namespace pier {
namespace query {
namespace ops {

class AggStage : public Stage {
 public:
  /// `node` must be a kPartialAgg OpNode and outlive the stage.
  /// `streaming` selects the join-fed protocol.
  AggStage(StageHost* host, uint64_t qid, uint32_t node_id,
           const OpNode* node, bool is_origin, bool streaming);

  void BeginEpoch(uint64_t epoch);
  /// Folds every live row of `b` into the grouped partial states via
  /// VectorGroupBy (BatchEmitFn shape). Its drain matches GroupByOp's row
  /// for row, one-row batches included (the vectorized differential
  /// suite's contract). Join-fed: the first batch arms the hold timer.
  bool PushRawBatch(exec::RowBatch& b);
  /// Drains the accumulator, then delivers its partials or — a tree
  /// member — folds them into the combiner. Scan-fed: called once the
  /// epoch's scans finished; join-fed: the hold timer's expiry.
  void Flush();

  /// A partial relayed to this node as a tree parent.
  void OnRemotePartial(uint64_t epoch, const catalog::Tuple& t);

  void OnTimer(uint64_t token) override;

 private:
  static constexpr uint64_t kStreamFlushToken = 0;  // combiner tokens: 1+epoch

  Duration HoldDelay() const;
  void DeliverAll(uint64_t epoch, const std::vector<catalog::Tuple>& partials);
  void FoldIntoCombiner(uint64_t epoch, const catalog::Tuple& partial);
  void FlushCombiner(uint64_t epoch);

  StageHost* host_;
  uint64_t qid_;
  uint32_t node_id_;
  const OpNode* node_;
  bool is_origin_;
  bool streaming_;
  ExchangeKind route_;  ///< the node's output exchange (kTree or kToOrigin)

  /// Epoch of the rows being accumulated (always 0 when join-fed).
  uint64_t scan_epoch_ = 0;
  /// The accumulator; null until the first batch after a flush arrives.
  std::unique_ptr<exec::VectorGroupBy> vgb_;
  bool stream_timer_armed_ = false;

  std::unique_ptr<TreeCombiner> combiner_;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_AGG_STAGE_H_
