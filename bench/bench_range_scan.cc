// Range-scan bench: PHT index scan vs. broadcast scan across a selectivity
// sweep (0.1% .. 100%) at 64 and 256 nodes.
//
// Both access paths answer the same SQL range predicate over the same
// published data; the planner picks the path (use_index on/off). We report,
// per (nodes, selectivity):
//
//   t.answer   virtual time from Execute() to the result batch — the index
//              closes one-shot answers when the cursor drains; a broadcast
//              scan closes when the origin certifies every covered member
//              reported loss-free (the reliable plane's early finalize;
//              before that landed it sat out the full result_wait window);
//   contacted  nodes that did data-plane work (served a DHT get or ran a
//              scan stage) — the index's headline claim: work scales with
//              the answer, not the overlay;
//   traffic    bytes sent network-wide during the query;
//   rounds     the index walk's longest chain of dependent DHT gets — its
//              critical path in round trips (EngineStats::index_rounds);
//   rows       answer size, self-checked against the expected count.
//
// `--json[=path]` runs the 1% point on both paths and the 10% index answer
// at 64 and 256 nodes, and merges machine-readable metrics (shared
// common/bench_json schema). The self-check gates the exit code: both paths
// must return the exact expected rows, the index must touch < 25% of the
// overlay while the scan touches all of it, both answers must close well
// inside the result window, the index must answer a 1% range before the
// broadcast scan does at both sizes, and a 10% range in under
// kWideRangeBound (all virtual-time, so the check is deterministic, never a
// wall-clock flake). The sweep applies the same row checks, the 1% latency
// gate and the 10% bound.

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

constexpr int kRows = 2000;
constexpr int64_t kDomain = 100000;  // values are i * (kDomain / kRows)
/// Virtual-time bound on the index answer at 10% selectivity: the
/// pipelined walk reads a 200-row range in a few round trips, where a
/// leaf-by-leaf walk needs one per leaf.
constexpr double kWideRangeBound = 2.0;

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

uint64_t TotalBytes(core::PierNetwork& net) {
  return net.TotalBytesOut(overlay::Proto::kOverlay) +
         net.TotalBytesOut(overlay::Proto::kDht) +
         net.TotalBytesOut(overlay::Proto::kQuery) +
         net.TotalBytesOut(overlay::Proto::kBroadcast);
}

struct QueryCost {
  bool ok = false;
  size_t rows = 0;
  double answer_s = 0;     // virtual time to the result batch
  size_t contacted = 0;    // nodes that served gets or ran scans
  uint64_t bytes = 0;
  uint64_t rounds = 0;     // index walk's critical path in DHT round trips
  bool used_index = false;
};

struct Deployment {
  std::unique_ptr<core::PierNetwork> net;

  explicit Deployment(size_t nodes) {
    core::PierNetworkOptions opts;
    opts.seed = 2027;
    opts.node.router_kind = core::RouterKind::kChord;
    opts.node.engine.result_wait = Seconds(10);
    opts.join_stagger = Millis(100);
    net = std::make_unique<core::PierNetwork>(nodes, opts);
    net->Boot(Seconds(60));
    TableDef def = ReadingsTable();
    for (size_t i = 0; i < net->size(); ++i) {
      (void)net->node(i)->catalog()->Register(def);
    }
    const int64_t step = kDomain / kRows;
    for (int i = 0; i < kRows; ++i) {
      (void)net->node(i % net->size())
          ->query_engine()
          ->Publish("readings", Tuple{Value::Int64(i % 31),
                                      Value::Int64(i * step)});
    }
    net->RunFor(Seconds(60));  // index forwards and splits settle
  }
};

/// Runs one range query (selectivity = hi/kDomain) through the chosen
/// access path and measures it.
QueryCost RunQuery(core::PierNetwork& net, double selectivity,
                   bool use_index) {
  const int64_t step = kDomain / kRows;
  int64_t hi = static_cast<int64_t>(selectivity * kDomain) - 1;
  size_t expect = std::min<size_t>(kRows, (hi / step) + 1);
  std::string sql = "SELECT sensor, v FROM readings WHERE v BETWEEN 0 AND " +
                    std::to_string(hi);

  std::vector<uint64_t> serve_before, scans_before;
  for (size_t i = 0; i < net.size(); ++i) {
    serve_before.push_back(net.node(i)->dht()->stats().serve_requests);
    scans_before.push_back(net.node(i)->query_engine()->stats().scans_run);
  }
  uint64_t bytes_before = TotalBytes(net);
  const query::EngineStats& origin = net.node(0)->query_engine()->stats();
  uint64_t idx_before = origin.index_scans_run;
  uint64_t rounds_before = origin.index_rounds;

  planner::PlannerOptions popts;
  popts.use_index = use_index;
  TimePoint t0 = net.sim()->now();
  QueryCost cost;
  TimePoint t_done = 0;
  auto r = planner::ExecuteSql(
      net.node(0)->query_engine(), sql,
      [&](const query::ResultBatch& b) {
        cost.rows = b.rows.size();
        t_done = net.sim()->now();
      },
      popts);
  if (!r.ok()) {
    std::printf("query failed: %s\n", r.status().ToString().c_str());
    return cost;
  }
  net.RunFor(Seconds(20));

  cost.answer_s = ToSecondsF(t_done - t0);
  cost.bytes = TotalBytes(net) - bytes_before;
  for (size_t i = 0; i < net.size(); ++i) {
    bool served =
        net.node(i)->dht()->stats().serve_requests > serve_before[i];
    bool scanned =
        net.node(i)->query_engine()->stats().scans_run > scans_before[i];
    if (served || scanned) ++cost.contacted;
  }
  cost.used_index = origin.index_scans_run > idx_before;
  cost.rounds = origin.index_rounds - rounds_before;
  cost.ok = t_done != 0 && cost.rows == expect;
  if (!cost.ok) {
    std::printf("  SELF-CHECK FAILED: rows=%zu expect=%zu done=%d\n",
                cost.rows, expect, t_done != 0);
  }
  return cost;
}

/// Applies the wide-range bound to an index answer at 10% selectivity.
bool WideRangeOk(const QueryCost& idx, size_t nodes) {
  bool ok = idx.ok && idx.used_index && idx.answer_s < kWideRangeBound;
  if (!ok) {
    std::printf("  SELF-CHECK FAILED: %zu nodes, 10%% index answer %.2fs "
                "(bound %.1fs)\n",
                nodes, idx.answer_s, kWideRangeBound);
  }
  return ok;
}

/// The index must beat the broadcast scan on a 1% range: its seeded locate
/// and window take two round trips where the scan waits for certification.
bool NarrowRangeOk(const QueryCost& idx, const QueryCost& scan,
                   size_t nodes) {
  bool ok = idx.ok && scan.ok && idx.used_index &&
            idx.answer_s < scan.answer_s;
  if (!ok) {
    std::printf("  SELF-CHECK FAILED: %zu nodes, 1%% index answer %.3fs "
                "not under the scan's %.3fs\n",
                nodes, idx.answer_s, scan.answer_s);
  }
  return ok;
}

bool SweepAt(size_t nodes) {
  Deployment d(nodes);
  bool ok = true;
  std::printf("\n== %zu nodes, %d rows ==\n", nodes, kRows);
  std::printf("%7s %7s %8s %10s %9s %12s %8s %9s %12s %9s\n", "sel.%",
              "rows", "idx.t.s", "idx.rounds", "idx.touch", "idx.KiB",
              "scan.t.s", "scan.touch", "scan.KiB", "speedup");
  for (double sel : {0.001, 0.01, 0.1, 1.0}) {
    QueryCost idx = RunQuery(*d.net, sel, /*use_index=*/true);
    QueryCost scan = RunQuery(*d.net, sel, /*use_index=*/false);
    ok = ok && idx.ok && scan.ok;
    if (sel == 0.01) ok = NarrowRangeOk(idx, scan, nodes) && ok;
    if (sel == 0.1) ok = WideRangeOk(idx, nodes) && ok;
    std::printf("%7.1f %7zu %8.2f %10" PRIu64
                " %6zu/%-2zu %12.1f %8.2f %7zu/%-2zu %12.1f %8.1fx\n",
                sel * 100, idx.rows, idx.answer_s, idx.rounds, idx.contacted,
                nodes, idx.bytes / 1024.0, scan.answer_s, scan.contacted,
                nodes, scan.bytes / 1024.0,
                idx.answer_s > 0 ? scan.answer_s / idx.answer_s : 0.0);
  }
  return ok;
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  using namespace pier;
  bench::JsonOptions json = bench::ParseJsonFlag(argc, argv);
  if (json.enabled) {
    // Perf-trajectory mode: 64 nodes at 1% selectivity.
    std::printf("== range scan perf run: nodes=64 selectivity=1%% ==\n");
    bench::WallTimer timer;
    Deployment d(64);
    QueryCost idx = RunQuery(*d.net, 0.01, /*use_index=*/true);
    QueryCost scan = RunQuery(*d.net, 0.01, /*use_index=*/false);
    QueryCost wide64 = RunQuery(*d.net, 0.1, /*use_index=*/true);
    Deployment d256(256);
    QueryCost idx256 = RunQuery(*d256.net, 0.01, /*use_index=*/true);
    QueryCost scan256 = RunQuery(*d256.net, 0.01, /*use_index=*/false);
    QueryCost wide256 = RunQuery(*d256.net, 0.1, /*use_index=*/true);
    double wall = timer.Seconds();
    double speedup = idx.answer_s > 0 ? scan.answer_s / idx.answer_s : 0.0;
    // The reliable plane's certified early finalize freed the broadcast
    // scan from the result window, so the index's old >=5x latency edge is
    // gone by design; speedup is recorded, no longer gated. What still
    // gates is the work contract — the index touches a sliver of the
    // overlay, the scan touches all of it — plus both paths closing well
    // inside the 10s window (the scan's early certification is itself a
    // gated behavior now). The 1% index answer must still come in under
    // the scan's at both sizes, and a 10% range must stay within a few
    // round trips of the 1% one.
    bool ok = idx.ok && scan.ok && idx.used_index && idx.contacted * 4 < 64 &&
              scan.contacted == 64 && idx.answer_s < 5.0 &&
              scan.answer_s < 5.0;
    ok = NarrowRangeOk(idx, scan, 64) && ok;
    ok = NarrowRangeOk(idx256, scan256, 256) && ok;
    ok = WideRangeOk(wide64, 64) && ok;
    ok = WideRangeOk(wide256, 256) && ok;
    std::printf(
        "index: %.3fs %" PRIu64 " rounds %zu nodes touched; scan: %.3fs %zu "
        "nodes touched; speedup %.1fx; 1%% @256: index %.3fs %" PRIu64
        " rounds, scan %.3fs; 10%% index: %.3fs @64 %.3fs @256; "
        "wall %.2fs; self-check %s\n",
        idx.answer_s, idx.rounds, idx.contacted, scan.answer_s,
        scan.contacted, speedup, idx256.answer_s, idx256.rounds,
        scan256.answer_s, wide64.answer_s, wide256.answer_s, wall,
        ok ? "OK" : "FAILED");
    bench::JsonReport report("bench_range_scan");
    report.Metric("wall_clock", wall, "s");
    report.Metric("index_answer_time", idx.answer_s, "s");
    report.Metric("index_rounds", static_cast<double>(idx.rounds), "count");
    report.Metric("index_answer_time_10pct_64", wide64.answer_s, "s");
    report.Metric("index_answer_time_10pct_256", wide256.answer_s, "s");
    report.Metric("scan_answer_time", scan.answer_s, "s");
    report.Metric("index_answer_time_256", idx256.answer_s, "s");
    report.Metric("index_rounds_256", static_cast<double>(idx256.rounds),
                  "count");
    report.Metric("scan_answer_time_256", scan256.answer_s, "s");
    report.Metric("speedup", speedup, "x");
    report.Metric("index_nodes_contacted",
                  static_cast<double>(idx.contacted), "nodes");
    report.Metric("scan_nodes_contacted",
                  static_cast<double>(scan.contacted), "nodes");
    report.Metric("index_bytes", static_cast<double>(idx.bytes), "bytes");
    report.Metric("scan_bytes", static_cast<double>(scan.bytes), "bytes");
    if (!report.WriteMerged(json.path)) {
      std::printf("failed to write %s\n", json.path.c_str());
      return 1;
    }
    std::printf("merged metrics into %s\n", json.path.c_str());
    return ok ? 0 : 1;
  }

  std::printf("== PHT range scan vs. broadcast scan ==\n");
  std::printf("selectivity sweep over %d rows; both paths answer the same "
              "BETWEEN predicate\n", kRows);
  bool ok = SweepAt(64);
  ok = SweepAt(256) && ok;
  std::printf("\nexpected shape: index answer time and touched nodes stay "
              "~flat with overlay size and grow with selectivity; the scan "
              "touches every node at any selectivity but closes early once "
              "the origin certifies every member reported loss-free\n");
  std::printf("self-check %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
