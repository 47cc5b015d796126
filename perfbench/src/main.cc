// pierbench: the PIER reproduction's benchmark driver.
//
//   pierbench --workload <storm|serial|table1|monitor_lossy> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Runs whole rounds (fresh deployment, set-up, idle window, query phase,
// answer checks) back to back; the round count follows from --seconds and
// the workload's nominal round length, so it is the same on every commit.
// Prints a human-readable report, then one JSON line: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A traced
// run alternates untraced and traced rounds of the same inputs, takes
// per-layer numbers and span times from the traced ones, and reports the
// host-time difference as tracing overhead.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace pierbench {
namespace {

struct Args {
  Workload workload = Workload::kStorm;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      if (!ParseWorkload(val, &a->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else if (key == "--trace-out") {
      a->trace_out = val;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Host seconds one untraced round of the workload nominally takes
/// (set-up plus query phase on a 4-core x86 host). Fixes the round count
/// from --seconds without reading a clock, so both sides of a comparison
/// run the same rounds.
double NominalRoundSeconds(Workload w) {
  switch (w) {
    case Workload::kStorm:
      return 8.0;
    case Workload::kSerial:
      return 7.5;
    case Workload::kTable1:
      return 6.0;
    case Workload::kMonitorLossy:
      return 8.0;
  }
  return 8.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Totals and samples pooled over a set of rounds.
struct Pool {
  Counters idle, query;
  double idle_us = 0;
  double floor_overlay = 0, floor_dht = 0, floor_broadcast = 0;
  double floor_query = 0;
  size_t attempted = 0, answered = 0, ok = 0, exact = 0;
  std::vector<double> latency_s;  ///< failures count as their full wait
  /// failure class -> (count, first detail)
  std::map<std::string, std::pair<size_t, std::string>> failures;
  std::vector<double> setup_s, boot_s, load_s, ms_per_query;
  std::vector<double> early_ms, late_ms, events_per_wall_s;
  double converge_wait_s = 0;  ///< virt, summed over rounds
  size_t unconverged = 0;      ///< rounds whose ring never converged
  uint64_t pht_splits = 0;
  size_t rounds = 0, nodes = 0;

  void Add(const RoundResult& r) {
    ++rounds;
    nodes = r.nodes;
    idle += r.idle;
    query += r.query;
    idle_us += static_cast<double>(r.idle_us);
    converge_wait_s += static_cast<double>(r.converge_wait_us) / 1e6;
    if (!r.converged) ++unconverged;
    // Idle floor: the idle window's per-protocol rate over the query
    // phase's length.
    double scale = Ratio(static_cast<double>(r.query_us),
                         static_cast<double>(r.idle_us));
    floor_overlay += scale * static_cast<double>(r.idle.overlay_bytes);
    floor_dht += scale * static_cast<double>(r.idle.dht_bytes);
    floor_broadcast += scale * static_cast<double>(r.idle.broadcast_bytes);
    floor_query += scale * static_cast<double>(r.idle.query_bytes);
    for (const QueryOutcome& q : r.queries) {
      ++attempted;
      if (q.answered_us >= 0) ++answered;
      if (q.exact) ++exact;
      if (q.ok) {
        ++ok;
      } else {
        auto& f = failures[q.failure];
        if (f.first++ == 0) f.second = q.detail;
      }
      // An unanswered query waited at least until the phase ended.
      int64_t lat = (q.answered_us >= 0 ? q.answered_us : r.end_us) - q.due_us;
      latency_s.push_back(static_cast<double>(lat) / 1e6);
    }
    setup_s.push_back(r.setup_s);
    boot_s.push_back(r.boot_s);
    load_s.push_back(r.load_s);
    ms_per_query.push_back(1e3 * r.query_s /
                           static_cast<double>(r.queries.size()));
    early_ms.push_back(1e3 * r.early_s / std::max(1, r.early_n));
    late_ms.push_back(1e3 * r.late_s / std::max(1, r.late_n));
    events_per_wall_s.push_back(
        Ratio(static_cast<double>(r.query.events), r.query_s));
    pht_splits += r.pht_splits;
  }

  double PerQuery(double x) const {
    return Ratio(x, static_cast<double>(attempted));
  }
  double KiBPerQuery(uint64_t bytes, double floor) const {
    return PerQuery(static_cast<double>(bytes) - floor) / 1024.0;
  }
  double WireKiBPerQuery() const {
    return KiBPerQuery(query.WireBytes(), floor_overlay + floor_dht +
                                              floor_broadcast + floor_query);
  }

  /// Highest percentile with at least ten samples beyond it.
  bool Tail(double* pct, double* value) const {
    if (latency_s.size() < 11) return false;
    std::vector<double> v = latency_s;
    std::sort(v.begin(), v.end());
    size_t idx = v.size() - 11;
    *pct = 100.0 * static_cast<double>(idx + 1) /
           static_cast<double>(v.size());
    *value = v[idx];
    return true;
  }
};

std::vector<Metric> EndToEnd(const Pool& p) {
  return {
      {"answer_p50_s", Median(p.latency_s), "s"},
      {"certified_share",
       Ratio(static_cast<double>(p.exact), static_cast<double>(p.attempted)),
       "share"},
      {"wire_kib_per_query", p.WireKiBPerQuery(), "KiB/query"},
      {"host_ms_per_query", Median(p.ms_per_query), "ms"},
      {"setup_s", Median(p.setup_s), "s"},
      {"peak_rss_mib", PeakRssMiB(), "MiB"},
  };
}

std::vector<Metric> PerLayer(const Pool& untraced, const Pool& traced,
                             const Tracer& tracer) {
  const Pool& p = traced;
  const Counters& c = p.query;
  auto per_q = [&p](uint64_t x) {
    return p.PerQuery(static_cast<double>(x));
  };
  auto r = [](uint64_t a, uint64_t b) {
    return Ratio(static_cast<double>(a), static_cast<double>(b));
  };
  std::map<std::string, Tracer::Totals> spans = tracer.WallTotals();
  auto span_us = [&](const char* name) {
    auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0) return 0.0;
    return it->second.total_ns / 1e3 / static_cast<double>(it->second.count);
  };
  double early_finalized = static_cast<double>(c.index_early +
                                               c.reliable_early);
  return {
      {"sim.events", per_q(c.events), "count/query"},
      {"sim.events_per_wall_s", Median(untraced.events_per_wall_s), "1/s"},
      {"sim.msgs_lost", per_q(c.msgs_lost), "count/query"},
      // First hop plus forwards; a route delivered at its own node (1 in
      // N) counts one hop too.
      {"overlay.hops_per_route", 1.0 + r(c.route_forwards, c.routes),
       "hops"},
      {"overlay.maint_kib_per_node_s",
       Ratio(static_cast<double>(p.idle.overlay_bytes) / 1024.0,
             static_cast<double>(p.nodes) * p.idle_us / 1e6),
       "KiB/node/s"},
      {"overlay.kib", p.KiBPerQuery(c.overlay_bytes, p.floor_overlay),
       "KiB/query"},
      {"overlay.lookups_failed", per_q(c.lookups_failed), "count/query"},
      {"overlay.converge_wait_s",
       Ratio(p.converge_wait_s, static_cast<double>(p.rounds)), "s"},
      {"dht.puts", per_q(c.puts), "count/query"},
      {"dht.put_retries", per_q(c.put_retries), "count/query"},
      {"dht.put_failures", per_q(c.put_failures), "count/query"},
      {"dht.gets", per_q(c.gets), "count/query"},
      {"dht.get_failures", per_q(c.get_failures), "count/query"},
      {"dht.kib", p.KiBPerQuery(c.dht_bytes, p.floor_dht), "KiB/query"},
      {"dht.broadcast.initiated", per_q(c.bc_initiated), "count/query"},
      {"dht.broadcast.dup_ratio", r(c.bc_duplicates, c.bc_delivered),
       "ratio"},
      {"dht.broadcast.retransmits", per_q(c.bc_retransmits), "count/query"},
      {"dht.broadcast.edges_failed", per_q(c.bc_edges_failed),
       "count/query"},
      {"dht.broadcast.kib",
       p.KiBPerQuery(c.broadcast_bytes, p.floor_broadcast), "KiB/query"},
      {"index.probes_per_scan", r(c.index_probes, c.index_scans), "count"},
      {"index.leaves_per_scan", r(c.index_leaves, c.index_scans), "count"},
      {"index.fallbacks", per_q(c.index_fallbacks), "count/query"},
      {"index.splits",
       Ratio(static_cast<double>(p.pht_splits),
             static_cast<double>(p.rounds)),
       "count/round"},
      {"query.scheduler.scan_tasks", per_q(c.scan_tasks), "count/query"},
      {"query.scheduler.store_sweeps", per_q(c.store_sweeps), "count/query"},
      {"query.scheduler.share_ratio", r(c.shared_hits, c.scan_tasks),
       "ratio"},
      {"query.scheduler.rounds", per_q(c.sched_rounds), "count/query"},
      {"query.exchange.rehash_puts", per_q(c.rehash_puts), "count/query"},
      {"query.exchange.put_failures", per_q(c.rehash_put_failures),
       "count/query"},
      {"query.exchange.batch_frames", per_q(c.batch_frames), "count/query"},
      {"query.reliable.frames", per_q(c.frames_sent), "count/query"},
      {"query.reliable.retx_ratio", r(c.frames_retx, c.frames_sent),
       "ratio"},
      {"query.reliable.frames_lost", per_q(c.frames_lost), "count/query"},
      {"query.reliable.dupes_dropped", per_q(c.frame_dupes), "count/query"},
      {"query.kib", p.KiBPerQuery(c.query_bytes, p.floor_query),
       "KiB/query"},
      {"query.engine.timer_close_share",
       1.0 - Ratio(early_finalized, static_cast<double>(p.answered)),
       "share"},
      {"query.engine.late_partials", per_q(c.late_partials), "count/query"},
      {"query.engine.plans_shed", per_q(c.plans_shed), "count/query"},
      {"query.engine.execute_us", span_us("query.execute"), "us"},
      {"exec.tuples_scanned", per_q(c.tuples_scanned), "count/query"},
      {"exec.batches", per_q(c.batches), "count/query"},
      {"exec.vectorized_fallbacks", per_q(c.vectorized_fallbacks),
       "count/query"},
      {"sql.parse_us", span_us("sql.parse"), "us"},
      {"planner.plan_us", span_us("planner.plan"), "us"},
      {"core.boot_s", Median(untraced.boot_s), "s"},
      {"core.load_s", Median(untraced.load_s), "s"},
      {"host.ms_per_query_early", Median(untraced.early_ms), "ms"},
      {"host.ms_per_query_late", Median(untraced.late_ms), "ms"},
      {"answer.failed_share",
       Ratio(static_cast<double>(p.attempted - p.ok),
             static_cast<double>(p.attempted)),
       "share"},
      {"answer.certified_share",
       Ratio(static_cast<double>(p.exact), static_cast<double>(p.attempted)),
       "share"},
      {"trace.overhead_share",
       Median(traced.ms_per_query) / Median(untraced.ms_per_query) - 1.0,
       "share"},
  };
}

void PrintPool(const char* label, const Pool& p) {
  std::printf("-- %s: %zu rounds, %zu nodes, %zu queries --\n", label,
              p.rounds, p.nodes, p.attempted);
  std::printf("  answers      %zu/%zu answered, %zu passed the check, "
              "%zu claimed exact\n",
              p.answered, p.attempted, p.ok, p.exact);
  std::printf("  [virt] ring convergence wait after boot %.3f s per round, "
              "%zu round(s) never converged\n",
              Ratio(p.converge_wait_s, static_cast<double>(p.rounds)),
              p.unconverged);
  for (const auto& [why, f] : p.failures) {
    std::printf("  failed       %zu x %s%s%s\n", f.first, why.c_str(),
                f.second.empty() ? "" : ", first: ", f.second.c_str());
  }
  double pct = 0, tail = 0;
  std::printf("  [virt] answer p50 %.6f s", Median(p.latency_s));
  if (p.Tail(&pct, &tail)) {
    std::printf(", tail p%.2f %.6f s (%zu samples, 10 beyond)", pct, tail,
                p.latency_s.size());
  }
  std::printf("\n  [virt] wire %.3f KiB/query net of the idle floor "
              "(overlay %.3f, dht %.3f, broadcast %.3f, query %.3f)\n",
              p.WireKiBPerQuery(),
              p.KiBPerQuery(p.query.overlay_bytes, p.floor_overlay),
              p.KiBPerQuery(p.query.dht_bytes, p.floor_dht),
              p.KiBPerQuery(p.query.broadcast_bytes, p.floor_broadcast),
              p.KiBPerQuery(p.query.query_bytes, p.floor_query));
  std::printf("  [wall] setup %.4f s (median), host %.4f ms/query "
              "(median; early half %.4f, late half %.4f)\n",
              Median(p.setup_s), Median(p.ms_per_query), Median(p.early_ms),
              Median(p.late_ms));
}

void PrintJson(bool correct, const Pool& p,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", p.attempted, p.attempted - p.ok);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pierbench --workload <storm|serial|table1|"
                 "monitor_lossy> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n");
    return 2;
  }
  const char* name = WorkloadName(args.workload);
  int rounds = std::max(
      3, static_cast<int>(std::lround(args.seconds /
                                      NominalRoundSeconds(args.workload))));
  if (args.trace) rounds = std::max(2, (rounds + 1) / 2);  // traced pairs
  std::printf("== pierbench %s seed=%llu %s=%d ==\n", name,
              static_cast<unsigned long long>(args.seed),
              args.trace ? "untraced/traced round pairs" : "rounds", rounds);

  Pool untraced, traced;
  Tracer tracer;
  bool correct = true;
  for (int i = 0; i < rounds; ++i) {
    RoundOptions o;
    o.workload = args.workload;
    // Distinct per (seed, round); RunRound hashes it into its inputs.
    o.seed = args.seed * 1000003ull + static_cast<uint64_t>(i);
    RoundResult plain = RunRound(o);
    untraced.Add(plain);
    std::printf("round %d: setup %.3f s (ring wait %.0f s virt), query "
                "phase %.3f s wall / %.1f s virt, digest %016llx\n",
                i, plain.setup_s,
                static_cast<double>(plain.converge_wait_us) / 1e6,
                plain.query_s, static_cast<double>(plain.query_us) / 1e6,
                static_cast<unsigned long long>(plain.trace_digest));
    if (!args.trace) continue;
    o.tracer = &tracer;
    RoundResult t = RunRound(o);
    traced.Add(t);
    // Spans are host-side only: the simulated run must not change.
    if (t.trace_digest != plain.trace_digest || t.queries != plain.queries) {
      std::printf("round %d: traced run diverged from the untraced run\n", i);
      correct = false;
    }
  }
  PrintPool("untraced", untraced);
  if (args.trace) {
    PrintPool("traced", traced);
    std::printf("-- span totals (wall ms: total / self) --\n");
    for (const auto& [span, t] : tracer.WallTotals()) {
      std::printf("  %-20s %8llu spans %12.3f / %12.3f\n", span.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                  t.self_ns / 1e6);
    }
    if (!args.trace_out.empty()) {
      if (tracer.WriteJson(args.trace_out)) {
        std::printf("spans written to %s\n", args.trace_out.c_str());
      } else {
        std::printf("could not write %s\n", args.trace_out.c_str());
        correct = false;
      }
    }
  }
  correct = correct && untraced.ok == untraced.attempted &&
            untraced.unconverged == 0;
  const Pool& reported = args.trace ? traced : untraced;
  std::vector<Metric> metrics =
      args.trace ? PerLayer(untraced, traced, tracer) : EndToEnd(untraced);
  std::fflush(stdout);
  PrintJson(correct, reported, metrics);
  return 0;
}

}  // namespace
}  // namespace pierbench

int main(int argc, char** argv) { return pierbench::Main(argc, argv); }
