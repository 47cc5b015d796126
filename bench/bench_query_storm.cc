// Query-storm bench: 1000 concurrent mixed queries over a 256-node overlay.
//
// The multi-tenant contract under test: a node serving many simultaneous
// queries multiplexes them through its query scheduler (round-robin quanta,
// shared store sweeps) instead of running each scan independently. The storm
// mixes the three access paths the engine supports:
//
//   ~500 PHT index range queries   (1% selectivity BETWEEN on the indexed col)
//   ~400 filtered broadcast scans  (equality-range on an unindexed col)
//   ~100 symmetric-hash joins      (small dimension tables, rehash exchange)
//
// issued one every 25 ms of virtual time from rotating origins, so dozens of
// queries are live at once on every node. Reported:
//
//   p50/p99      virtual time from Execute() to the answer batch, over all
//                1000 queries (answer latency under multi-tenant load);
//   bytes        network traffic for the whole storm;
//   shared scans sweep sharing across concurrent same-table scans — the
//                scheduler's headline: store sweeps must come out measurably
//                fewer than scan tasks;
//   idx rounds   mean critical path of an index scan in DHT round trips
//                (EngineStats::index_rounds / index_scans_run): a locate
//                seeded with a leaf depth the origin holds plus the window.
//
// The self-check gates the exit code: every query must answer with exactly
// its oracle row count (clean network, deterministic data), admission must
// never refuse (the storm runs with raised budgets), no per-query budget may
// trip, sweep sharing must actually engage, and every disseminated query
// must cost exactly one broadcast wave: the network-wide broadcasts
// initiated during the storm equal scans + joins + index fallbacks (one-shot
// queries end without a teardown wave), and an index scan must average at
// most kMaxIndexRounds round trips. All checks are virtual-time
// deterministic; wall clock is recorded but never gated.
//
// `--json[=path]` merges the metrics into the shared report (BENCH_PR10.json).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_json.h"
#include "core/network.h"
#include "planner/planner.h"

namespace pier {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;

constexpr size_t kNodes = 256;
constexpr int kRows = 2000;
constexpr int64_t kStep = 50;  // readings.v = i * kStep
constexpr int kSensors = 31;
constexpr int kZones = 8;
constexpr int kQueries = 1000;
constexpr Duration kStagger = Millis(25);
/// Gate on the mean index-scan critical path: the seeded locate reads the
/// first leaf in one round and the window the rest in one more; the
/// unseeded depth search alone took three.
constexpr double kMaxIndexRounds = 2.5;

TableDef ReadingsTable() {
  TableDef def;
  def.name = "readings";
  def.schema = Schema("readings", {{"sensor", ValueType::kInt64},
                                   {"v", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(7200);
  def.indexes = {catalog::IndexDef{1, 8}};
  return def;
}

TableDef SensorsTable() {
  TableDef def;
  def.name = "sensors";
  def.schema = Schema("sensors", {{"sensor", ValueType::kInt64},
                                  {"zone", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(7200);
  return def;
}

TableDef ZonesTable() {
  TableDef def;
  def.name = "zones";
  def.schema = Schema("zones", {{"zone", ValueType::kInt64},
                                {"region", ValueType::kInt64}});
  // Partitioned off the join key so the planner keeps the symmetric-hash
  // strategy: the storm must exercise rehash exchanges, not fetch-matches.
  def.partition_cols = {1};
  def.ttl = Seconds(7200);
  return def;
}

uint64_t TotalBytes(core::PierNetwork& net) {
  return net.TotalBytesOut(overlay::Proto::kOverlay) +
         net.TotalBytesOut(overlay::Proto::kDht) +
         net.TotalBytesOut(overlay::Proto::kQuery) +
         net.TotalBytesOut(overlay::Proto::kBroadcast);
}

/// Broadcast waves initiated so far, summed over every node.
uint64_t BroadcastsInitiated(core::PierNetwork& net) {
  uint64_t n = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    n += net.node(i)->broadcast()->stats().initiated;
  }
  return n;
}

/// One storm query's lifecycle record, filled in by its result callback.
struct QueryRecord {
  std::string sql;
  bool use_index = false;
  size_t expect = 0;
  TimePoint issued_at = 0;
  TimePoint answered_at = 0;  // 0 = never answered
  size_t rows = 0;
};

/// Rows with sensor == k among i in [0, kRows): i % kSensors == k.
size_t SensorRowCount(int k) {
  size_t count = 0;
  for (int i = k; i < kRows; i += kSensors) ++count;
  return count;
}

/// Builds the deterministic 1000-query mix. Query q's kind cycles through
/// the mix so index/scan/join load interleaves rather than arriving in
/// phases (phases would under-test concurrent sweep sharing).
std::vector<QueryRecord> BuildMix() {
  std::vector<QueryRecord> mix;
  mix.reserve(kQueries);
  int index_q = 0, scan_q = 0;
  for (int q = 0; q < kQueries; ++q) {
    QueryRecord rec;
    int slot = q % 10;  // per 10: 5 index, 4 scan, 1 join
    if (slot < 5) {
      // 1% selectivity: 20 consecutive rows, start rotating over the domain.
      int start = (index_q * 37) % (kRows - 20);
      int64_t lo = static_cast<int64_t>(start) * kStep;
      int64_t hi = lo + 20 * kStep - 1;
      rec.sql = "SELECT sensor, v FROM readings WHERE v BETWEEN " +
                std::to_string(lo) + " AND " + std::to_string(hi);
      rec.use_index = true;
      rec.expect = 20;
      ++index_q;
    } else if (slot < 9) {
      int k = scan_q % kSensors;
      rec.sql = "SELECT sensor, v FROM readings WHERE sensor BETWEEN " +
                std::to_string(k) + " AND " + std::to_string(k);
      rec.use_index = false;
      rec.expect = SensorRowCount(k);
      ++scan_q;
    } else {
      rec.sql = "SELECT s.sensor, z.region FROM sensors s, zones z "
                "WHERE s.zone = z.zone";
      rec.use_index = false;
      rec.expect = kSensors;  // every sensor's zone exists
    }
    mix.push_back(std::move(rec));
  }
  return mix;
}

struct StormResult {
  size_t answered = 0;
  size_t correct = 0;
  double p50_s = 0;
  double p99_s = 0;
  uint64_t bytes = 0;
  uint64_t scans_run = 0;
  uint64_t store_sweeps = 0;
  uint64_t shared_scan_hits = 0;
  uint64_t sched_rounds = 0;
  uint64_t index_scans = 0;
  uint64_t index_rounds = 0;
  double index_rounds_mean = 0;
  uint64_t admission_refusals = 0;
  uint64_t budget_trips = 0;
  uint64_t broadcasts = 0;            ///< waves initiated during the storm
  uint64_t disseminated_queries = 0;  ///< scans + joins + index fallbacks
  bool ok = false;
};

StormResult RunStorm() {
  core::PierNetworkOptions opts;
  opts.seed = 2027;
  opts.node.router_kind = core::RouterKind::kChord;
  opts.node.engine.result_wait = Seconds(10);
  // The storm keeps ~100+ queries live per node; raise the per-node
  // admission budgets so the gate never refuses (the bench measures
  // scheduling under load, not admission policy).
  opts.node.engine.max_live_queries = 2048;
  opts.node.engine.max_pending_result_bytes = 64ull << 20;
  opts.join_stagger = Millis(100);
  core::PierNetwork net(kNodes, opts);
  net.Boot(Seconds(60));

  for (size_t i = 0; i < net.size(); ++i) {
    (void)net.node(i)->catalog()->Register(ReadingsTable());
    (void)net.node(i)->catalog()->Register(SensorsTable());
    (void)net.node(i)->catalog()->Register(ZonesTable());
  }
  for (int i = 0; i < kRows; ++i) {
    (void)net.node(i % net.size())
        ->query_engine()
        ->Publish("readings", Tuple{Value::Int64(i % kSensors),
                                    Value::Int64(i * kStep)});
  }
  for (int s = 0; s < kSensors; ++s) {
    (void)net.node(static_cast<size_t>(s) % net.size())
        ->query_engine()
        ->Publish("sensors",
                  Tuple{Value::Int64(s), Value::Int64(s % kZones)});
  }
  for (int z = 0; z < kZones; ++z) {
    (void)net.node(static_cast<size_t>(z) % net.size())
        ->query_engine()
        ->Publish("zones", Tuple{Value::Int64(z), Value::Int64(z % 3)});
  }
  net.RunFor(Seconds(60));  // puts land, index forwards and splits settle

  std::vector<QueryRecord> mix = BuildMix();
  uint64_t bytes_before = TotalBytes(net);
  uint64_t broadcasts_before = BroadcastsInitiated(net);
  const TimePoint t0 = net.sim()->now();

  // Schedule every issue up front; the single RunUntil below then drives
  // the whole storm. Origins rotate so every node both originates and
  // serves.
  for (int q = 0; q < kQueries; ++q) {
    QueryRecord* rec = &mix[static_cast<size_t>(q)];
    core::PierNode* origin = net.node(static_cast<size_t>(q) % net.size());
    net.sim()->ScheduleAt(t0 + static_cast<Duration>(q) * kStagger,
                          [rec, origin, &net] {
                            rec->issued_at = net.sim()->now();
                            planner::PlannerOptions popts;
                            popts.use_index = rec->use_index;
                            auto r = planner::ExecuteSql(
                                origin->query_engine(), rec->sql,
                                [rec, &net](const query::ResultBatch& b) {
                                  rec->answered_at = net.sim()->now();
                                  rec->rows = b.rows.size();
                                },
                                popts);
                            if (!r.ok()) {
                              std::printf("issue failed: %s\n",
                                          r.status().ToString().c_str());
                            }
                          });
  }
  // Storm spans 25 s of issues; every result window is closed 15 s after
  // the last issue (result_wait 10 s + slack).
  net.sim()->RunUntil(t0 + static_cast<Duration>(kQueries) * kStagger +
                      Seconds(15));

  StormResult out;
  out.bytes = TotalBytes(net) - bytes_before;
  out.broadcasts = BroadcastsInitiated(net) - broadcasts_before;
  std::vector<double> latencies;
  latencies.reserve(mix.size());
  for (const QueryRecord& rec : mix) {
    if (!rec.use_index) ++out.disseminated_queries;
    if (rec.answered_at == 0) continue;
    ++out.answered;
    if (rec.rows == rec.expect) {
      ++out.correct;
    } else {
      std::printf("  wrong answer: %zu rows (expect %zu) for %s\n", rec.rows,
                  rec.expect, rec.sql.c_str());
    }
    latencies.push_back(ToSecondsF(rec.answered_at - rec.issued_at));
  }
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    out.p50_s = latencies[latencies.size() / 2];
    out.p99_s = latencies[(latencies.size() * 99) / 100];
  }
  for (size_t i = 0; i < net.size(); ++i) {
    const query::EngineStats& s = net.node(i)->query_engine()->stats();
    out.scans_run += s.scans_run;
    out.store_sweeps += s.store_sweeps;
    out.shared_scan_hits += s.shared_scan_hits;
    out.sched_rounds += s.sched_rounds;
    out.index_scans += s.index_scans_run;
    out.index_rounds += s.index_rounds;
    out.admission_refusals += s.admission_refusals;
    out.budget_trips += s.budget_trips;
    out.disseminated_queries += s.index_fallbacks;
  }
  if (out.index_scans > 0) {
    out.index_rounds_mean = static_cast<double>(out.index_rounds) /
                            static_cast<double>(out.index_scans);
  }
  out.ok = out.answered == kQueries && out.correct == kQueries &&
           out.admission_refusals == 0 && out.budget_trips == 0 &&
           out.shared_scan_hits > 0 && out.store_sweeps < out.scans_run &&
           out.broadcasts == out.disseminated_queries &&
           out.index_scans > 0 && out.index_rounds_mean <= kMaxIndexRounds;
  return out;
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  using namespace pier;
  bench::JsonOptions json = bench::ParseJsonFlag(argc, argv);
  std::printf("== query storm: %d mixed queries over %zu nodes ==\n",
              kQueries, kNodes);
  bench::WallTimer timer;
  StormResult r = RunStorm();
  double wall = timer.Seconds();
  std::printf(
      "answered %zu/%d (correct %zu)  p50 %.3fs  p99 %.3fs  %.1f MiB  "
      "idx rounds %.2f/scan over %" PRIu64 " scans (gate <= %.1f)\n"
      "scan tasks %" PRIu64 "  store sweeps %" PRIu64 "  shared hits %" PRIu64
      "  sched rounds %" PRIu64 "  broadcasts %" PRIu64
      " (disseminated queries %" PRIu64 ")\n"
      "admission refusals %" PRIu64 "  budget trips %" PRIu64
      "  wall %.2fs  self-check %s\n",
      r.answered, kQueries, r.correct, r.p50_s, r.p99_s,
      r.bytes / (1024.0 * 1024.0), r.index_rounds_mean, r.index_scans,
      kMaxIndexRounds, r.scans_run, r.store_sweeps, r.shared_scan_hits,
      r.sched_rounds, r.broadcasts, r.disseminated_queries,
      r.admission_refusals, r.budget_trips, wall,
      r.ok ? "OK" : "FAILED");
  if (json.enabled) {
    bench::JsonReport report("bench_query_storm");
    report.Metric("wall_clock", wall, "s");
    report.Metric("queries", static_cast<double>(kQueries), "count");
    report.Metric("answered", static_cast<double>(r.answered), "count");
    report.Metric("answer_p50", r.p50_s, "s");
    report.Metric("answer_p99", r.p99_s, "s");
    report.Metric("storm_bytes", static_cast<double>(r.bytes), "bytes");
    report.Metric("scan_tasks", static_cast<double>(r.scans_run), "count");
    report.Metric("store_sweeps", static_cast<double>(r.store_sweeps),
                  "count");
    report.Metric("shared_scan_hits",
                  static_cast<double>(r.shared_scan_hits), "count");
    report.Metric("broadcasts", static_cast<double>(r.broadcasts), "count");
    report.Metric("index_rounds_per_scan", r.index_rounds_mean, "count");
    if (!report.WriteMerged(json.path)) {
      std::printf("failed to write %s\n", json.path.c_str());
      return 1;
    }
    std::printf("merged metrics into %s\n", json.path.c_str());
  }
  return r.ok ? 0 : 1;
}
