// The Exchange layer: how rows cross node boundaries between opgraph
// stages. A row on the wire is always part of an exec::RowBatch frame,
// whichever edge carries it. Each ExchangeKind (see opgraph.h) has a
// runtime half here:
//
//   kRehash   -> RehashExchange: ships rows, as RowBatch frames, to the
//                DHT owner of the consumer's key columns under a per-edge
//                temp namespace ("q<qid>.x<edge>"); the owner consumes
//                arrivals.
//   kTree     -> TreeCombiner: the per-epoch combine box an interior
//                dissemination-tree node runs over its children's partials
//                before forwarding one merged partial upward.
//   kToOrigin -> no object needed: StageHost::DeliverResultBatch/
//                DeliverPartialBatch route directly.
//
// Exchanges are owned by the per-query runtime and die with it; in-flight
// DHT frames carry their own TTL (soft state all the way down).

#ifndef PIER_QUERY_EXCHANGE_H_
#define PIER_QUERY_EXCHANGE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/tuple.h"
#include "dht/local_store.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "query/ops/stage.h"
#include "query/opgraph.h"

namespace pier {
namespace query {

/// Send half of a kRehash edge. The edge id is the consuming graph node's
/// id, so every join input pair shares one namespace and tags rows with
/// their input side.
///
/// Every put carries one frame, [side u8][RowBatch]: join inputs, semi-join
/// key projections, chained-join output and recursion reach tuples alike.
class RehashExchange {
 public:
  RehashExchange(ops::StageHost* host, uint64_t qid, uint32_t edge_id);
  /// Custom-namespace variant (recursion's `q<id>.reach` reach relation).
  RehashExchange(ops::StageHost* host, uint64_t qid, std::string ns);

  static std::string NamespaceFor(uint64_t qid, uint32_t edge_id);
  const std::string& ns() const { return ns_; }

  /// Buckets the live rows of `rows` by the owner resource of
  /// hash(row[key_cols]) and ships ONE [side][RowBatch] put per bucket, the
  /// bucket's rows in their order in `rows`. Buckets go out in resource
  /// order.
  void Publish(int side, const std::vector<int>& key_cols,
               const exec::RowBatch& rows);

  /// Decodes one arrival frame; Corruption on garbage.
  static Status DecodeArrival(const dht::StoredItem& item, int* side,
                              exec::RowBatch* out);

 private:
  /// Ships one frame under `resource` with a fresh per-node instance id.
  void PublishValue(const std::string& resource, std::string value);

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
