// The benchmark's workloads: each round builds a fresh PIER deployment from
// a seed, boots and loads it, measures an idle window, runs one query phase
// and checks every answer. Rounds touch the stack only through its public
// calls and read the layers' public stats.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace pierbench {

enum class Workload {
  kStorm,         ///< open loop, 40 queries/s of mixed index/scan/join
  kSerial,        ///< the storm's mix as a closed loop, one query at a time
  kTable1,        ///< Table 1 top-10 GROUP BY, closed loop, 300 nodes
  kMonitorLossy,  ///< Table 1 under 20% loss with periodic re-publishes
};

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Counters summed over every node at one instant. The difference of two
/// snapshots attributes work to the phase between them.
struct Counters {
  uint64_t events = 0;           ///< Simulation::executed()
  uint64_t msgs_lost = 0;        ///< NetworkStats lost + faulted
  uint64_t overlay_bytes = 0;    ///< TotalBytesOut(Proto::kOverlay)
  uint64_t dht_bytes = 0;        ///< ... kDht
  uint64_t broadcast_bytes = 0;  ///< ... kBroadcast
  uint64_t query_bytes = 0;      ///< ... kQuery
  // overlay (ChordStats)
  uint64_t lookups_failed = 0;
  uint64_t routes = 0, route_forwards = 0;
  // dht (DhtStats)
  uint64_t puts = 0, put_retries = 0, put_failures = 0;
  uint64_t gets = 0, get_failures = 0;
  // dht.broadcast (BroadcastStats)
  uint64_t bc_initiated = 0, bc_delivered = 0, bc_duplicates = 0;
  uint64_t bc_retransmits = 0, bc_edges_failed = 0;
  // index (EngineStats + PhtIndex::stats())
  uint64_t index_scans = 0, index_probes = 0, index_leaves = 0;
  uint64_t index_fallbacks = 0, index_early = 0, pht_splits = 0;
  // query (EngineStats)
  uint64_t scan_tasks = 0, store_sweeps = 0, shared_hits = 0;
  uint64_t sched_rounds = 0;
  uint64_t rehash_puts = 0, rehash_put_failures = 0, batch_frames = 0;
  uint64_t frames_sent = 0, frames_retx = 0, frames_lost = 0;
  uint64_t frame_dupes = 0, reliable_early = 0;
  uint64_t late_partials = 0, plans_shed = 0;
  // exec (EngineStats)
  uint64_t tuples_scanned = 0, batches = 0, vectorized_fallbacks = 0;

  uint64_t WireBytes() const {
    return overlay_bytes + dht_bytes + broadcast_bytes + query_bytes;
  }
  Counters& operator+=(const Counters& o);
  Counters& operator-=(const Counters& o);
  bool operator==(const Counters&) const = default;
};

/// One query of a round, as the client saw it.
struct QueryOutcome {
  std::string sql;
  uint64_t qid = 0;         ///< engine query id (0 when never issued)
  int64_t due_us = 0;       ///< virtual time the query was due
  int64_t answered_us = -1; ///< virtual arrival of its answer, -1 = none
  bool exact = false;       ///< Completeness claimed exact
  bool ok = false;          ///< answer passed the workload's check
  std::string failure;      ///< failure class ("" when ok)
  std::string detail;       ///< what exactly failed, for the report

  bool operator==(const QueryOutcome&) const = default;
};

struct RoundOptions {
  Workload workload = Workload::kStorm;
  uint64_t seed = 1;
  /// Overrides of the workload's query and node counts (0 = default);
  /// the tests shrink both.
  int queries = 0;
  size_t nodes = 0;
  Tracer* tracer = nullptr;  ///< null = untraced
};

struct RoundResult {
  size_t nodes = 0;
  // Host (wall) seconds.
  double setup_s = 0;   ///< build + boot + load + settle + idle window
  double boot_s = 0;
  double load_s = 0;
  double query_s = 0;   ///< the whole query phase
  double early_s = 0;   ///< issue window of the first half of the queries
  double late_s = 0;    ///< issue window of the second half
  int early_n = 0;
  int late_n = 0;
  // Virtual lengths (microseconds).
  int64_t converge_wait_us = 0;  ///< wait after Boot for a converged ring
  bool converged = false;        ///< the ring converged within the cap
  int64_t idle_us = 0;
  int64_t query_us = 0;
  int64_t end_us = 0;  ///< virtual time the query phase ended
  Counters idle;   ///< deltas over the idle window
  Counters query;  ///< deltas over the query phase
  std::vector<QueryOutcome> queries;
  uint64_t pht_splits = 0;    ///< PHT splits since boot, at the end
  uint64_t trace_digest = 0;  ///< sim::Network::trace_digest() at the end
};

/// Builds, runs and checks one round. Deterministic in everything but the
/// wall-clock fields: the same options give the same virtual results.
RoundResult RunRound(const RoundOptions& options);

}  // namespace pierbench

#endif  // PERFBENCH_WORKLOAD_H_
