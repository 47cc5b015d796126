// JoinStage: one kJoin opgraph node instantiated at every network node.
//
// Every node plays two roles at once:
//  - producer: scans its local slices of the join's scan inputs and ships
//    them through the join's RehashExchange (or DHT gets for
//    fetch-matches); chained joins receive their upstream side from the
//    previous join's output instead of a scan;
//  - rendezvous: consumes exchange arrivals for keys this node owns and
//    joins them incrementally with a pipelined symmetric hash join.
//
// Strategy-specific choreography (Bloom filter collection/redistribution,
// semi-join match-time tuple fetches) lives here too, driven by the
// engine's message routing.
//
// The Bloom filter wave is accounted, never fire-and-forget: the origin
// counts the parts it unioned against the members the plan broadcast's
// cover wave confirmed, and broadcasts the verdict with the filters.
// Members suppress only on a complete wave; an incomplete wave (lost or
// late parts, unknown coverage) degrades that edge to the full rehash —
// heavier, but no row a lost filter part would have vouched for is ever
// dropped. A member that never receives the distribution at all (lost
// broadcast, partition) produces the full rehash from a fallback timer.

#ifndef PIER_QUERY_OPS_JOIN_STAGE_H_
#define PIER_QUERY_OPS_JOIN_STAGE_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bloom.h"
#include "exec/operator.h"
#include "exec/operators.h"
#include "query/bloom_wire.h"
#include "query/exchange.h"
#include "query/ops/scan_stage.h"
#include "query/ops/stage.h"

namespace pier {
namespace query {
namespace ops {

class JoinStage : public Stage {
 public:
  /// `left_scan`/`right_scan` are the kScan nodes feeding the join, or
  /// nullptr for a side fed by an upstream join. All OpNode pointers must
  /// outlive the stage.
  JoinStage(StageHost* host, uint64_t qid, uint32_t node_id,
            const OpNode* node, const OpNode* left_scan,
            const OpNode* right_scan, Duration window, bool is_origin,
            uint32_t origin_host);

  /// Receives full joined rows, one-row batch each (the runtime attaches
  /// the residual filter / projection / aggregation chain here).
  void SetDownstream(BatchEmitFn fn) { downstream_ = std::move(fn); }

  uint32_t node_id() const { return node_id_; }

  /// Exchange namespace this stage consumes (empty for fetch-matches).
  const std::string& ns() const;

  /// Origin-only, called at Execute time: Bloom joins arm the
  /// filter-collection window before the plan broadcast goes out.
  void InitOrigin();

  /// Wires the local dataflow, catches up on early exchange arrivals, and
  /// produces this node's slice (phase 1 for Bloom joins).
  void Setup();

  /// An upstream join's output entering this join on `side`.
  void PublishUpstream(int side, const exec::RowBatch& rows);

  void OnArrival(const dht::StoredItem& item);
  void OnFetchReq(uint32_t from, Reader* r);
  void OnFetchResp(Reader* r);
  /// Origin-only: one member's filter-wave part. Parts after the wave
  /// closed are counted late, never unioned (the broadcast they missed is
  /// already out, flagged incomplete).
  void OnBloomPart(uint32_t from, const BloomPartFrame& frame);
  /// The origin's distributed union arrived. Suppress-and-produce on a
  /// complete wave; full unsuppressed rehash otherwise.
  void OnBloomDist(BloomDistFrame frame);
  void OnTimer(uint64_t token) override;

  JoinStrategy strategy() const { return node_->strategy; }

 private:
  void ProduceFromScans(bool bloom_phase2);
  void BloomPhase1();
  void HandleJoinOutput(const catalog::Tuple& joined);
  void ResolveFetchMatches(const catalog::Tuple& probe,
                           const std::vector<dht::DhtItem>& items);

  StageHost* host_;
  uint64_t qid_;
  uint32_t node_id_;
  const OpNode* node_;
  const OpNode* left_scan_;
  const OpNode* right_scan_;
  Duration window_;
  bool is_origin_;
  uint32_t origin_host_;
  BatchEmitFn downstream_;

  std::unique_ptr<RehashExchange> exchange_;  // null for fetch-matches
  exec::Dataflow flow_;
  exec::SymmetricHashJoinOp* shj_ = nullptr;

  // Semi-join: this node's shipped rows, fetchable by id, and matches
  // awaiting both full tuples.
  std::unordered_map<uint64_t, catalog::Tuple> row_registry_;
  uint64_t next_row_id_ = 1;
  struct PendingMatch {
    catalog::Tuple left, right;
    bool have_left = false, have_right = false;
  };
  std::unordered_map<uint64_t, PendingMatch> pending_matches_;
  uint64_t next_match_id_ = 1;

  // Bloom join: origin-side collectors, part accounting, and the
  // distributed union (absent => produce without suppression).
  std::unique_ptr<BloomFilter> collect_left_, collect_right_;
  std::unique_ptr<BloomFilter> dist_left_, dist_right_;
  std::set<uint32_t> part_senders_;  ///< origin: members unioned in-window
  bool wave_closed_ = false;         ///< origin: bloom_wait broadcast fired
  /// Phase 1's single scan pass caches the rows phase 2 publishes, so a
  /// Bloom join costs one scan, not two.
  std::vector<catalog::Tuple> cached_left_, cached_right_;
  bool scans_cached_ = false;
  /// Phase 2 ran (filters arrived or the fallback timer fired); guards
  /// against double production when both happen.
  bool produced_ = false;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_JOIN_STAGE_H_
