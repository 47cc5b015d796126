// The benchmark's own tests: a small round is a pure function of its seed.
// Two runs with one seed give identical virtual results (answers, latencies,
// per-layer counters, trace digest); another seed changes the digest; and
// recording spans leaves the simulated run untouched.

#include <cstdio>

#include "trace.h"
#include "workload.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

bool SameVirtual(const pierbench::RoundResult& a,
                 const pierbench::RoundResult& b) {
  return a.trace_digest == b.trace_digest && a.queries == b.queries &&
         a.idle == b.idle && a.query == b.query && a.idle_us == b.idle_us &&
         a.converge_wait_us == b.converge_wait_us &&
         a.query_us == b.query_us && a.pht_splits == b.pht_splits;
}

}  // namespace

int main() {
  using pierbench::RoundOptions;
  using pierbench::RunRound;
  using pierbench::Workload;
  for (Workload w : {Workload::kStorm, Workload::kTable1}) {
    RoundOptions o;
    o.workload = w;
    o.seed = 7;
    o.nodes = 24;
    o.queries = 10;
    pierbench::RoundResult first = RunRound(o);
    pierbench::RoundResult again = RunRound(o);
    std::printf("-- %s --\n", pierbench::WorkloadName(w));
    Check(first.queries.size() == 10, "every query was attempted");
    bool all_ok = true;
    for (const auto& q : first.queries) all_ok = all_ok && q.ok;
    Check(all_ok, "every answer matches the oracle");
    Check(SameVirtual(first, again), "same seed, same virtual results");

    o.seed = 8;
    Check(RunRound(o).trace_digest != first.trace_digest,
          "another seed changes the trace digest");

    pierbench::Tracer tracer;
    o.seed = 7;
    o.tracer = &tracer;
    Check(SameVirtual(RunRound(o), first), "tracing leaves the run unchanged");
    Check(!tracer.WallTotals().empty() && tracer.WallTotals().count(
                                              "query.execute") == 1,
          "spans were recorded around Execute");
  }
  std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
