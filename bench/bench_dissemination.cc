// Ablation E: query dissemination trees vs. network size.
//
// Every PIER query starts with a broadcast over the overlay. The
// interval-partitioned tree should reach all nodes with O(n) messages,
// O(log n) depth, and few duplicates even though finger tables are only
// approximately consistent.
//
// One row per network size disseminates a single broadcast. The burst row
// then issues 200 back-to-back broadcasts from rotating origins over 256
// nodes: many waves in flight at once, the load the query storm puts on
// every node's dedupe table. Each row records deliveries per wall-second of
// the dissemination window (informational, never gated).
//
// Self-check (exit code): every broadcast reaches every node, at every size
// and in the burst. `--json[=path]` merges the metrics into the shared
// report (BENCH_PR10.json).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_json.h"
#include "core/network.h"

namespace pier {
namespace {

struct Row {
  std::string label;
  size_t nodes = 0;
  size_t broadcasts = 0;
  /// Broadcasts that reached every node.
  size_t full_reach = 0;
  /// Fewest nodes any one broadcast reached.
  size_t min_reached = 0;
  uint64_t deliveries = 0;
  uint64_t forwarded = 0;
  uint64_t duplicates = 0;
  int max_depth = 0;
  double wall_s = 0;

  bool ok() const { return full_reach == broadcasts; }
  double deliveries_per_wall_s() const {
    return wall_s > 0 ? static_cast<double>(deliveries) / wall_s : 0;
  }
};

/// Boots an `n`-node Chord ring, issues `broadcasts` broadcasts back to back
/// from rotating origins, and runs 20 s.
Row Run(std::string label, size_t n, size_t broadcasts) {
  core::PierNetworkOptions opts;
  opts.seed = 31337 + n;
  opts.node.router_kind = core::RouterKind::kChord;
  opts.join_stagger = Millis(100);
  core::PierNetwork net(n, opts);
  net.Boot(Seconds(60) + Millis(150) * static_cast<Duration>(n));

  // delivered[b][i]: deliveries of broadcast b at node i. The payload
  // carries b.
  std::vector<std::vector<int>> delivered(broadcasts, std::vector<int>(n, 0));
  Row row;
  row.label = std::move(label);
  row.nodes = n;
  row.broadcasts = broadcasts;
  for (size_t i = 0; i < n; ++i) {
    net.node(i)->broadcast()->SetHandler(
        [&delivered, &row, i](sim::HostId, uint64_t, sim::HostId, int depth,
                              const sim::Payload& p) {
          size_t b = std::stoul(p.ToString());
          ++delivered[b][i];
          if (depth > row.max_depth) row.max_depth = depth;
        });
  }

  bench::WallTimer wall;
  for (size_t b = 0; b < broadcasts; ++b) {
    net.node(b % n)->broadcast()->Broadcast(sim::Payload(std::to_string(b)));
  }
  net.RunFor(Seconds(20));
  row.wall_s = wall.Seconds();

  row.min_reached = n;
  for (size_t b = 0; b < broadcasts; ++b) {
    size_t reached = 0;
    for (size_t i = 0; i < n; ++i) {
      reached += delivered[b][i] > 0 ? 1 : 0;
      row.deliveries += static_cast<uint64_t>(delivered[b][i]);
    }
    row.full_reach += reached == n ? 1 : 0;
    row.min_reached = std::min(row.min_reached, reached);
  }
  for (size_t i = 0; i < n; ++i) {
    row.forwarded += net.node(i)->broadcast()->stats().forwarded;
    row.duplicates += net.node(i)->broadcast()->stats().duplicates;
  }
  std::printf("%-6s %6zu %6zu %9zu/%-6zu %9" PRIu64 " %8" PRIu64 " %7d %10.2f "
              "%12.0f\n",
              row.label.c_str(), n, broadcasts, row.min_reached, n,
              row.forwarded, row.duplicates, row.max_depth,
              static_cast<double>(row.forwarded) /
                  static_cast<double>(n * broadcasts),
              row.deliveries_per_wall_s());
  return row;
}

}  // namespace
}  // namespace pier

int main(int argc, char** argv) {
  using namespace pier;
  bench::JsonOptions json = bench::ParseJsonFlag(argc, argv);
  std::printf("== Ablation E: dissemination tree reach and cost ==\n\n");
  std::printf("%-6s %6s %6s %16s %9s %8s %7s %10s %12s\n", "row", "nodes",
              "bcasts", "min reached", "msgs", "dups", "depth", "msgs/node",
              "deliv/wall-s");
  std::vector<Row> rows;
  for (size_t n : {16, 32, 64, 128, 256, 512}) {
    rows.push_back(Run("single", n, 1));
  }
  rows.push_back(Run("burst", 256, 200));

  bool ok = true;
  for (const Row& r : rows) {
    if (!r.ok()) {
      std::printf("SELF-CHECK FAILED: %s/%zu: %zu of %zu broadcasts reached "
                  "every node (min %zu)\n",
                  r.label.c_str(), r.nodes, r.full_reach, r.broadcasts,
                  r.min_reached);
      ok = false;
    }
  }
  std::printf("\nexpected shape: full reach, ~1 message per node, depth "
              "~log2(n), few duplicates\n");
  std::printf("self-check: %s\n", ok ? "every broadcast reached every node"
                                     : "FAILED");

  if (json.enabled) {
    bench::JsonReport report("bench_dissemination");
    for (const Row& r : rows) {
      std::string p = r.label + "_n" + std::to_string(r.nodes) + "_";
      report.Metric(p + "reach_share",
                    static_cast<double>(r.full_reach) /
                        static_cast<double>(r.broadcasts),
                    "share");
      report.Metric(p + "msgs_per_node",
                    static_cast<double>(r.forwarded) /
                        static_cast<double>(r.nodes * r.broadcasts),
                    "msgs");
      report.Metric(p + "dup_ratio",
                    static_cast<double>(r.duplicates) /
                        static_cast<double>(r.deliveries),
                    "ratio");
      report.Metric(p + "max_depth", r.max_depth, "hops");
      report.Metric(p + "deliveries_per_wall_s", r.deliveries_per_wall_s(),
                    "1/s");
    }
    if (!report.WriteMerged(json.path)) {
      std::printf("failed to write %s\n", json.path.c_str());
      return 1;
    }
    std::printf("merged metrics into %s\n", json.path.c_str());
  }
  return ok ? 0 : 1;
}
