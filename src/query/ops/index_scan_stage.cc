#include "query/ops/index_scan_stage.h"

#include <limits>

#include "index/pht.h"

namespace pier {
namespace query {
namespace ops {

using catalog::Tuple;

IndexScanStage::IndexScanStage(StageHost* host, uint64_t qid,
                               uint32_t node_id, const OpNode* node)
    : host_(host), qid_(qid), node_id_(node_id), node_(node) {
  ns_ = index::PhtIndex::NamespaceFor(node->table, node->index_col);
  ValueType col_type =
      node->schema.column(static_cast<size_t>(node->index_col)).type;
  lo_key_ = 0;
  hi_key_ = std::numeric_limits<uint64_t>::max();
  bool lo_ok =
      node->index_lo.is_null() ||
      index::EncodeValue(node->index_lo, col_type, index::BoundSide::kLower,
                         &lo_key_);
  bool hi_ok =
      node->index_hi.is_null() ||
      index::EncodeValue(node->index_hi, col_type, index::BoundSide::kUpper,
                         &hi_key_);
  bounds_ok_ = lo_ok && hi_ok;
}

index::PhtCursor::GetFn IndexScanStage::MakeGetFn(uint64_t token) {
  // Every DHT continuation round-trips through PostToStage keyed by the
  // run token: a stale epoch's (or a dead query's) callbacks evaporate.
  // Probes count as they are sent, so an abandoned walk's gets count too.
  StageHost* host = host_;
  uint64_t qid = qid_;
  uint32_t node_id = node_id_;
  std::string ns = ns_;
  return [host, qid, node_id, ns, token](const std::string& resource,
                                         index::PhtCursor::GetCb cb) {
    ++host->mutable_stats()->index_probes;
    host->dht()->Get(
        ns, resource,
        [host, qid, node_id, token, cb](Status s,
                                        std::vector<dht::DhtItem> items) {
          host->PostToStage(
              qid, node_id, [token, cb, &s, &items](Stage* stage) {
                auto* self = static_cast<IndexScanStage*>(stage);
                if (self->run_token_ != token) return;  // stale walk
                cb(std::move(s), std::move(items));
              });
        });
  };
}

index::PhtCursor::RowFn IndexScanStage::MakeRowFn(
    const BatchEmitFn& emit) {
  BatchEmitFn emit_copy = emit;
  return [this, emit_copy](const index::PhtEntry& entry) {
    Tuple t;
    if (!catalog::TupleFromBytes(entry.tuple_bytes, &t).ok()) {
      return true;  // undecodable entry: soft-skip, like ScanStage
    }
    if (t.size() != node_->schema.num_columns()) return true;
    ++host_->mutable_stats()->index_rows;
    return EmitRow(emit_copy, t);
  };
}

void IndexScanStage::RunEpoch(const BatchEmitFn& emit) {
  ++run_token_;  // the previous epoch's walk (if any) is token-invalidated
  cursor_.reset();
  ++host_->mutable_stats()->index_scans_run;
  if (!bounds_ok_) {
    host_->OnIndexScanDone(qid_, /*ok=*/false);
    return;
  }
  // Seed the locate with the depth of a leaf this node holds near lo.
  const index::PhtIndex* pht = host_->FindIndex(node_->table,
                                                node_->index_col);
  int start_depth = pht != nullptr ? pht->LeafDepthNear(lo_key_) : -1;
  cursor_ = std::make_unique<index::PhtCursor>(
      MakeGetFn(run_token_), lo_key_, hi_key_, start_depth);
  cursor_->Run(MakeRowFn(emit),
               [this](index::PhtCursor::Outcome outcome, Status /*s*/) {
                 OnCursorDone(outcome);
               });
}

void IndexScanStage::OnCursorDone(index::PhtCursor::Outcome outcome) {
  EngineStats* stats = host_->mutable_stats();
  stats->index_leaves += cursor_->stats().leaves;
  stats->index_rounds += cursor_->stats().rounds;
  // A cold or damaged walk fails the scan: the engine falls back to a
  // broadcast plan and resets this epoch's rows.
  host_->OnIndexScanDone(qid_, outcome == index::PhtCursor::Outcome::kOk);
}

}  // namespace ops
}  // namespace query
}  // namespace pier
