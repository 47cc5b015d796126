#include "query/exchange.h"

#include <map>

#include "dht/key.h"

namespace pier {
namespace query {

using catalog::Tuple;

namespace {
/// TTL on rehashed temp frames (per-query exchange namespaces).
constexpr Duration kTempTtl = Seconds(90);

/// catalog::ResourceForCols of physical row `row`, boxing only the key
/// columns into `scratch`.
std::string ResourceForRow(const exec::RowBatch& b, uint32_t row,
                           const std::vector<int>& key_cols, Tuple* scratch) {
  scratch->assign(b.num_columns(), Value::Null());
  for (int c : key_cols) {
    if (c >= 0 && static_cast<size_t>(c) < b.num_columns()) {
      (*scratch)[c] = b.column(c).ValueAt(row);
    }
  }
  return catalog::ResourceForCols(*scratch, key_cols);
}
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
                             const exec::RowBatch& rows) {
  std::map<std::string, std::vector<uint32_t>> buckets;
  Tuple scratch;
  for (size_t i = 0; i < rows.ActiveRows(); ++i) {
    uint32_t row = rows.RowId(i);
    buckets[ResourceForRow(rows, row, key_cols, &scratch)].push_back(row);
  }
  for (const auto& [resource, bucket] : buckets) {
    // Per-query fan-out budget: a tripped query stops feeding the DHT and
    // degrades loudly (the engine flags Completeness) instead of flooding
    // it. One frame is one DHT put regardless of row count, so it charges
    // one unit — the budget caps network operations, not rows.
    if (!host_->ChargeRehashPuts(qid_, 1)) continue;
    Writer w;
    w.PutU8(static_cast<uint8_t>(side));
    rows.Gather(bucket).Encode(&w);
    ++host_->mutable_stats()->rehash_puts;
    ++host_->mutable_stats()->batch_frames_sent;
    PublishValue(resource, w.Release());
  }
}

void RehashExchange::PublishValue(const std::string& resource,
                                  std::string value) {
  uint64_t instance =
      (static_cast<uint64_t>(host_->self_host()) << 32) | seq_++;
  // Temp frames skip replication: cheap to recreate, dead within the query.
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

Status RehashExchange::DecodeArrival(const dht::StoredItem& item, int* side,
                                     exec::RowBatch* out) {
  Reader r(item.value);
  uint8_t s = 0;
  PIER_RETURN_IF_ERROR(r.GetU8(&s));
  if (s > 1) return Status::Corruption("bad exchange side");
  PIER_RETURN_IF_ERROR(exec::RowBatch::Decode(&r, out));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after batch");
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
