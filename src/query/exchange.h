// The Exchange layer: how tuples cross node boundaries between opgraph
// stages. Each ExchangeKind (see opgraph.h) has a runtime half here:
//
//   kRehash   -> RehashExchange: ships tuples to the DHT owner of the
//                consumer's key columns under a per-edge temp namespace
//                ("q<qid>.x<edge>"); the owner consumes arrivals. This is
//                the traffic that used to be inlined in the engine as
//                RehashTuple/OnTempArrival.
//   kTree     -> TreeCombiner: the per-epoch combine box an interior
//                dissemination-tree node runs over its children's partials
//                before forwarding one merged partial upward.
//   kToOrigin -> no object needed: StageHost::DeliverResultBatch/
//                DeliverPartialBatch route directly.
//
// Exchanges are owned by the per-query runtime and die with it; in-flight
// DHT tuples carry their own TTL (soft state all the way down).

#ifndef PIER_QUERY_EXCHANGE_H_
#define PIER_QUERY_EXCHANGE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "dht/local_store.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "query/ops/stage.h"
#include "query/opgraph.h"

namespace pier {
namespace query {

/// Send half of a kRehash edge. The edge id is the consuming graph node's
/// id, so every join input pair shares one namespace and tags tuples with
/// their input side.
class RehashExchange {
 public:
  RehashExchange(ops::StageHost* host, uint64_t qid, uint32_t edge_id);
  /// Custom-namespace variant (recursion's `q<id>.reach` reach relation).
  RehashExchange(ops::StageHost* host, uint64_t qid, std::string ns);

  static std::string NamespaceFor(uint64_t qid, uint32_t edge_id);
  const std::string& ns() const { return ns_; }

  /// Ships `t` to the owner of hash(t[key_cols]) tagged with `side`.
  void Publish(int side, const std::vector<int>& key_cols,
               const catalog::Tuple& t);
  /// Batch-plane rehash: buckets `rows` by owner resource and ships ONE
  /// column-major RowBatch frame per bucket (marker + side + batch) instead
  /// of one put per tuple. Single-row buckets use the legacy row frame —
  /// it is smaller. `schema` is the rows' layout (the producing scan's).
  void PublishBatch(int side, const std::vector<int>& key_cols,
                    const catalog::Schema& schema,
                    const std::vector<catalog::Tuple>& rows);
  /// Ships `t` under an explicit precomputed resource (key-projection
  /// shipping for the semi-join).
  void PublishAt(int side, const std::string& resource,
                 const catalog::Tuple& t);
  /// Ships pre-encoded bytes under `resource` with a fresh per-node
  /// instance id — the shared bottom half of every rehash put (untagged:
  /// consumers that use this decode the value themselves).
  void PublishValue(const std::string& resource, std::string value);

  /// Decodes one arrival payload ([side u8][tuple]); Corruption on garbage.
  static Status DecodeArrival(const dht::StoredItem& item, int* side,
                              catalog::Tuple* t);

  /// True when `item` holds a PublishBatch frame (legacy row frames start
  /// with side 0/1; batch frames with the 0x42 marker byte).
  static bool IsBatchFrame(const dht::StoredItem& item);
  /// Decodes a PublishBatch frame; Corruption on garbage.
  static Status DecodeBatchArrival(const dht::StoredItem& item, int* side,
                                   exec::RowBatch* out);

 private:
  ops::StageHost* host_;
  uint64_t qid_;
  std::string ns_;
  uint64_t seq_ = 1;
};

/// Drains a spent aggregation box into a vector (single-shot: the op dies
/// with its sink and is never emitted into again).
std::vector<catalog::Tuple> DrainGroupBy(std::unique_ptr<exec::GroupByOp> op);

/// The combine box of a kTree edge: partials in, one merged partial stream
/// out when flushed. Single-shot per epoch — open, push, flush, discard —
/// mirroring the decomposable-aggregate contract (exec/agg.h).
class TreeCombiner {
 public:
  TreeCombiner(std::vector<int> group_cols, std::vector<exec::AggSpec> aggs,
               uint64_t epoch);

  uint64_t epoch() const { return epoch_; }
  bool open() const { return op_ != nullptr; }
  void Push(const catalog::Tuple& partial);
  /// Drains the combined partials; the combiner is spent afterwards.
  std::vector<catalog::Tuple> Flush();

  sim::TimerId flush_timer = 0;  ///< owned by the stage that armed it

 private:
  uint64_t epoch_;
  std::unique_ptr<exec::GroupByOp> op_;
};

}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_EXCHANGE_H_
