#include "query/exchange.h"

#include <map>

#include "dht/key.h"

namespace pier {
namespace query {

using catalog::Tuple;

namespace {
/// First byte of a column-major exchange frame. Legacy row frames start
/// with the side byte (0 or 1), so the marker is unambiguous and old
/// decoders reject batch frames cleanly ("bad exchange side").
constexpr uint8_t kBatchFrameMarker = 0x42;
/// TTL on rehashed temp tuples (per-query exchange namespaces).
constexpr Duration kTempTtl = Seconds(90);
}  // namespace

RehashExchange::RehashExchange(ops::StageHost* host, uint64_t qid,
                               uint32_t edge_id)
    : host_(host), qid_(qid), ns_(NamespaceFor(qid, edge_id)) {}

RehashExchange::RehashExchange(ops::StageHost* host, uint64_t qid,
                               std::string ns)
    : host_(host), qid_(qid), ns_(std::move(ns)) {}

std::string RehashExchange::NamespaceFor(uint64_t qid, uint32_t edge_id) {
  return "q" + std::to_string(qid) + ".x" + std::to_string(edge_id);
}

void RehashExchange::Publish(int side, const std::vector<int>& key_cols,
                             const Tuple& t) {
  PublishAt(side, catalog::ResourceForCols(t, key_cols), t);
}

void RehashExchange::PublishAt(int side, const std::string& resource,
                               const Tuple& t) {
  // Per-query fan-out budget: a tripped query stops feeding the DHT and
  // degrades loudly (the engine flags Completeness) instead of flooding it.
  if (!host_->ChargeRehashPuts(qid_, 1)) return;
  Writer w;
  w.PutU8(static_cast<uint8_t>(side));
  catalog::SerializeTuple(t, &w);
  ++host_->mutable_stats()->rehash_puts;
  PublishValue(resource, w.Release());
}

void RehashExchange::PublishValue(const std::string& resource,
                                  std::string value) {
  uint64_t instance =
      (static_cast<uint64_t>(host_->self_host()) << 32) | seq_++;
  // Temp tuples skip replication: cheap to recreate, dead within the query.
  // The non-null callback makes the put acked and retried (the DHT's own
  // retry plane), so a single lost message no longer drops join state; the
  // owner-side arrival dedupe absorbs any retry duplicates.
  EngineStats* stats = host_->mutable_stats();
  host_->dht()->PutEx(dht::DhtKey{ns_, resource, instance}, std::move(value),
                      kTempTtl, /*replicate=*/false,
                      [stats](Status s) {
                        if (!s.ok()) ++stats->rehash_put_failures;
                      });
}

void RehashExchange::PublishBatch(int side, const std::vector<int>& key_cols,
                                  const catalog::Schema& schema,
                                  const std::vector<Tuple>& rows) {
  std::map<std::string, std::vector<const Tuple*>> buckets;
  for (const Tuple& t : rows) {
    buckets[catalog::ResourceForCols(t, key_cols)].push_back(&t);
  }
  for (const auto& [resource, bucket] : buckets) {
    if (bucket.size() == 1) {
      PublishAt(side, resource, *bucket[0]);
      continue;
    }
    // One batch frame is one DHT put regardless of row count, so it charges
    // one unit — the budget caps network operations, not rows.
    if (!host_->ChargeRehashPuts(qid_, 1)) continue;
    exec::RowBatchBuilder builder(schema);
    builder.Reserve(bucket.size());
    for (const Tuple* t : bucket) builder.Append(*t);
    exec::RowBatch batch = builder.Take();
    Writer w;
    w.PutU8(kBatchFrameMarker);
    w.PutU8(static_cast<uint8_t>(side));
    batch.Encode(&w);
    ++host_->mutable_stats()->rehash_puts;
    ++host_->mutable_stats()->batch_frames_sent;
    PublishValue(resource, w.Release());
  }
}

bool RehashExchange::IsBatchFrame(const dht::StoredItem& item) {
  return !item.value.empty() &&
         static_cast<uint8_t>(item.value[0]) == kBatchFrameMarker;
}

Status RehashExchange::DecodeBatchArrival(const dht::StoredItem& item,
                                          int* side, exec::RowBatch* out) {
  Reader r(item.value);
  uint8_t marker = 0, s = 0;
  PIER_RETURN_IF_ERROR(r.GetU8(&marker));
  if (marker != kBatchFrameMarker) {
    return Status::Corruption("not a batch frame");
  }
  PIER_RETURN_IF_ERROR(r.GetU8(&s));
  if (s > 1) return Status::Corruption("bad exchange side");
  PIER_RETURN_IF_ERROR(exec::RowBatch::Decode(&r, out));
  *side = s;
  return Status::OK();
}

Status RehashExchange::DecodeArrival(const dht::StoredItem& item, int* side,
                                     Tuple* t) {
  Reader r(item.value);
  uint8_t s = 0;
  PIER_RETURN_IF_ERROR(r.GetU8(&s));
  if (s > 1) return Status::Corruption("bad exchange side");
  PIER_RETURN_IF_ERROR(catalog::DeserializeTuple(&r, t));
  *side = s;
  return Status::OK();
}

TreeCombiner::TreeCombiner(std::vector<int> group_cols,
                           std::vector<exec::AggSpec> aggs, uint64_t epoch)
    : epoch_(epoch),
      op_(std::make_unique<exec::GroupByOp>(std::move(group_cols),
                                            std::move(aggs),
                                            exec::AggPhase::kCombine)) {}

void TreeCombiner::Push(const Tuple& partial) {
  if (op_ != nullptr) op_->Push(partial, 0);
}

std::vector<Tuple> TreeCombiner::Flush() {
  return DrainGroupBy(std::move(op_));
}

std::vector<Tuple> DrainGroupBy(std::unique_ptr<exec::GroupByOp> op) {
  std::vector<Tuple> out;
  if (op == nullptr) return out;
  exec::FnSink sink([&out](const Tuple& t) { out.push_back(t); });
  op->AddOutput(&sink);
  op->FlushAndReset();
  // `op` dies here, with its sink: a spent group-by is never reused.
  return out;
}

}  // namespace query
}  // namespace pier
