#include "workload.h"

#include <cstdio>
#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <utility>

#include "common/bench_json.h"
#include "core/network.h"
#include "planner/planner.h"
#include "sim/fault_plane.h"
#include "sql/parser.h"
#include "testkit/invariants.h"
#include "testkit/oracle.h"
#include "workload/workloads.h"

namespace pierbench {

using pier::Duration;
using pier::Millis;
using pier::Seconds;
using pier::TimePoint;
using pier::Value;
using pier::catalog::Schema;
using pier::catalog::TableDef;
using pier::catalog::Tuple;

namespace {

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// splitmix64: the benchmark's only source of input randomness, so inputs
/// depend on --seed alone.
class Rand {
 public:
  explicit Rand(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

struct Row {
  size_t node;  ///< publishing node
  std::string table;
  Tuple tuple;
  uint64_t instance;  ///< stable per-node id for versioned re-publishes
};

struct QuerySpec {
  std::string sql;
  size_t origin;
  bool use_index;
};

/// One workload's deployment, data and query list, all derived from a seed.
struct Plan {
  size_t nodes = 0;
  pier::core::PierNetworkOptions net;
  Duration boot_settle = 0;
  Duration load_settle = 0;
  std::vector<TableDef> tables;
  std::vector<Row> rows;
  std::vector<QuerySpec> queries;
  bool open_loop = false;
  Duration stagger = 0;       ///< open loop: gap between issues
  Duration drain = 0;         ///< open loop: run-out after the last issue
  double loss = 0;            ///< link loss from the idle window on
  Duration republish = 0;     ///< period of versioned re-publishes (0 = off)
  /// rule_id -> true network-wide SUM(hits), for the soundness check.
  std::map<int64_t, int64_t> truth;
};

constexpr Duration kIdleWindow = Seconds(20);
// Boot's fixed settle leaves the ring unconverged on some seeds; set-up then
// waits in these steps, up to the cap (see RunRound).
constexpr Duration kConvergeStep = Seconds(1);
constexpr Duration kConvergeCap = Seconds(600);
constexpr Duration kClosedStep = Millis(10);

// The sensor deployment shared by storm and serial.
constexpr int kReadings = 2000;
constexpr int64_t kStep = 50;  // readings.v lies in [i*kStep, (i+1)*kStep)
constexpr int kSensors = 31;
constexpr int kZones = 8;

TableDef ReadingsTable() {
  TableDef def;
  def.name = "readings";
  def.schema = Schema("readings", {{"sensor", pier::ValueType::kInt64},
                                   {"v", pier::ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(7200);
  def.indexes = {pier::catalog::IndexDef{1, 8}};
  return def;
}

TableDef SensorsTable() {
  TableDef def;
  def.name = "sensors";
  def.schema = Schema("sensors", {{"sensor", pier::ValueType::kInt64},
                                  {"zone", pier::ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(7200);
  return def;
}

TableDef ZonesTable() {
  TableDef def;
  def.name = "zones";
  def.schema = Schema("zones", {{"zone", pier::ValueType::kInt64},
                                {"region", pier::ValueType::kInt64}});
  // Partitioned off the join key, so the planner keeps the symmetric-hash
  // strategy and the join exercises rehash exchanges.
  def.partition_cols = {1};
  def.ttl = Seconds(7200);
  return def;
}

Plan SensorPlan(Rand& rng, size_t nodes, int queries, bool open_loop) {
  Plan p;
  p.nodes = nodes;
  p.net.seed = rng.Next();
  p.net.node.router_kind = pier::core::RouterKind::kChord;
  p.net.node.engine.result_wait = Seconds(10);
  // Dozens of queries are live per node during the storm; raise the
  // admission budgets so the gate never refuses (refusals would count as
  // failures, and admission policy is not what this workload measures).
  p.net.node.engine.max_live_queries = 2048;
  p.net.node.engine.max_pending_result_bytes = 64ull << 20;
  p.net.join_stagger = Millis(100);
  p.boot_settle = Seconds(60);
  p.load_settle = Seconds(60);
  p.tables = {ReadingsTable(), SensorsTable(), ZonesTable()};
  for (int i = 0; i < kReadings; ++i) {
    int64_t v = i * kStep + static_cast<int64_t>(rng.Below(kStep));
    p.rows.push_back({rng.Below(nodes), "readings",
                      Tuple{Value::Int64(static_cast<int64_t>(
                                rng.Below(kSensors))),
                            Value::Int64(v)},
                      0});
  }
  for (int s = 0; s < kSensors; ++s) {
    p.rows.push_back(
        {rng.Below(nodes), "sensors",
         Tuple{Value::Int64(s),
               Value::Int64(static_cast<int64_t>(rng.Below(kZones)))},
         0});
  }
  for (int z = 0; z < kZones; ++z) {
    p.rows.push_back({rng.Below(nodes), "zones",
                      Tuple{Value::Int64(z),
                            Value::Int64(static_cast<int64_t>(rng.Below(3)))},
                      0});
  }
  // Per 10 queries: 5 PHT index ranges at 1% selectivity, 4 filtered
  // broadcast scans, 1 symmetric-hash join; kinds interleave so the three
  // access paths overlap in time. Origins rotate from a seeded offset.
  size_t origin0 = rng.Below(nodes);
  for (int q = 0; q < queries; ++q) {
    QuerySpec spec;
    spec.origin = (origin0 + static_cast<size_t>(q)) % nodes;
    int slot = q % 10;
    if (slot < 5) {
      int64_t start = static_cast<int64_t>(rng.Below(kReadings - 20));
      spec.sql = "SELECT sensor, v FROM readings WHERE v BETWEEN " +
                 std::to_string(start * kStep) + " AND " +
                 std::to_string((start + 20) * kStep - 1);
      spec.use_index = true;
    } else if (slot < 9) {
      std::string k = std::to_string(rng.Below(kSensors));
      spec.sql = "SELECT sensor, v FROM readings WHERE sensor BETWEEN " + k +
                 " AND " + k;
      spec.use_index = false;
    } else {
      spec.sql =
          "SELECT s.sensor, z.region FROM sensors s, zones z "
          "WHERE s.zone = z.zone";
      spec.use_index = false;
    }
    p.queries.push_back(std::move(spec));
  }
  p.open_loop = open_loop;
  p.stagger = Millis(25);  // 40 queries/s
  p.drain = Seconds(15);   // result_wait + 5 s
  return p;
}

Plan Table1Plan(Rand& rng, size_t nodes, int queries, bool lossy) {
  Plan p;
  p.nodes = nodes;
  p.net.seed = rng.Next();
  p.net.node.router_kind = pier::core::RouterKind::kChord;
  p.net.node.engine.result_wait = Seconds(12);
  p.net.node.engine.agg_hold_base = Millis(800);
  p.net.join_stagger = Millis(100);
  p.boot_settle = Seconds(90);
  p.load_settle = Seconds(15);
  p.tables = {pier::workload::SnortAlertsTable()};
  // The paper's ten rules with their exact totals, plus decoys below the
  // tenth, each total split over the nodes by seeded random weights.
  struct Rule {
    int64_t id;
    std::string descr;
    int64_t total;
  };
  std::vector<Rule> rules;
  for (const auto& r : pier::workload::PaperTable1Rules()) {
    rules.push_back({r.rule_id, r.description, r.total_hits});
  }
  for (int d = 0; d < 8; ++d) {
    rules.push_back({3000 + d, "decoy rule " + std::to_string(d),
                     500 + static_cast<int64_t>(rng.Below(5000))});
  }
  std::vector<uint64_t> next_instance(nodes, 1);
  for (const Rule& rule : rules) {
    std::vector<double> w(nodes);
    double sum = 0;
    for (double& x : w) {
      x = 0.2 + rng.Unit();
      sum += x;
    }
    std::vector<int64_t> share(nodes);
    int64_t assigned = 0;
    for (size_t i = 0; i < nodes; ++i) {
      share[i] = static_cast<int64_t>(static_cast<double>(rule.total) * w[i] /
                                      sum);
      assigned += share[i];
    }
    for (size_t i = 0; assigned < rule.total; i = (i + 1) % nodes) {
      ++share[i];
      ++assigned;
    }
    for (size_t i = 0; i < nodes; ++i) {
      if (share[i] == 0) continue;
      p.rows.push_back({i, "snort_alerts",
                        Tuple{Value::Int64(rule.id), Value::String(rule.descr),
                              Value::Int64(share[i])},
                        next_instance[i]++});
    }
    p.truth[rule.id] = rule.total;
  }
  size_t origin0 = rng.Below(nodes);
  for (int q = 0; q < queries; ++q) {
    p.queries.push_back(
        {"SELECT rule_id, descr, SUM(hits) AS hits FROM snort_alerts "
         "GROUP BY rule_id, descr ORDER BY hits DESC LIMIT 10",
         (origin0 + static_cast<size_t>(q) * 7) % nodes, false});
  }
  if (lossy) {
    p.loss = 0.2;
    p.republish = Seconds(30);
  }
  return p;
}

Plan MakePlan(const RoundOptions& o) {
  Rand rng(o.seed);
  auto pick = [](auto override_value, auto fallback) {
    return override_value != 0 ? override_value : fallback;
  };
  switch (o.workload) {
    case Workload::kStorm:
      return SensorPlan(rng, pick(o.nodes, size_t{256}), pick(o.queries, 200),
                        true);
    case Workload::kSerial:
      return SensorPlan(rng, pick(o.nodes, size_t{256}), pick(o.queries, 100),
                        false);
    case Workload::kTable1:
      return Table1Plan(rng, pick(o.nodes, size_t{300}), pick(o.queries, 20),
                        false);
    case Workload::kMonitorLossy:
      return Table1Plan(rng, pick(o.nodes, size_t{300}), pick(o.queries, 20),
                        true);
  }
  return Plan{};
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

Counters Snapshot(pier::core::PierNetwork& net) {
  using pier::overlay::Proto;
  Counters c;
  c.events = net.sim()->executed();
  const pier::sim::NetworkStats& ns = net.net()->stats();
  c.msgs_lost = ns.messages_lost + ns.messages_faulted;
  c.overlay_bytes = net.TotalBytesOut(Proto::kOverlay);
  c.dht_bytes = net.TotalBytesOut(Proto::kDht);
  c.broadcast_bytes = net.TotalBytesOut(Proto::kBroadcast);
  c.query_bytes = net.TotalBytesOut(Proto::kQuery);
  for (size_t i = 0; i < net.size(); ++i) {
    pier::core::PierNode* node = net.node(i);
    if (node->chord() != nullptr) {
      const auto& cs = node->chord()->stats();
      c.lookups_failed += cs.lookups_failed;
      c.routes += cs.routes_initiated;
      c.route_forwards += cs.messages_forwarded;
    }
    const auto& ds = node->dht()->stats();
    c.puts += ds.puts_sent;
    c.put_retries += ds.put_retries;
    c.put_failures += ds.put_failures;
    c.gets += ds.gets_sent;
    c.get_failures += ds.get_failures;
    const auto& bs = node->broadcast()->stats();
    c.bc_initiated += bs.initiated;
    c.bc_delivered += bs.delivered;
    c.bc_duplicates += bs.duplicates;
    c.bc_retransmits += bs.retransmits;
    c.bc_edges_failed += bs.edges_failed;
    const auto& es = node->query_engine()->stats();
    c.index_scans += es.index_scans_run;
    c.index_probes += es.index_probes;
    c.index_leaves += es.index_leaves;
    c.index_fallbacks += es.index_fallbacks;
    c.index_early += es.index_early_finalizes;
    c.scan_tasks += es.scans_run;
    c.store_sweeps += es.store_sweeps;
    c.shared_hits += es.shared_scan_hits;
    c.sched_rounds += es.sched_rounds;
    c.rehash_puts += es.rehash_puts;
    c.rehash_put_failures += es.rehash_put_failures;
    c.batch_frames += es.batch_frames_sent;
    c.frames_sent += es.frames_sent;
    c.frames_retx += es.frames_retransmitted;
    c.frames_lost += es.frames_lost;
    c.frame_dupes += es.frame_dupes_dropped;
    c.reliable_early += es.reliable_early_finalizes;
    c.late_partials += es.late_partials;
    c.plans_shed += es.plans_shed;
    c.tuples_scanned += es.tuples_scanned;
    c.batches += es.batches_scanned;
    c.vectorized_fallbacks += es.vectorized_fallbacks;
    if (node->index_manager() != nullptr) {
      const pier::index::PhtIndex* pht =
          node->index_manager()->Find("readings", 1);
      if (pht != nullptr) c.pht_splits += pht->stats().splits;
    }
  }
  return c;
}

/// Multiset equality of the answer and the oracle's rows.
bool SameRows(const std::vector<Tuple>& oracle,
              const std::vector<Tuple>& answer) {
  pier::testkit::OracleScore s = pier::testkit::ScoreAnswer(oracle, answer);
  return s.matched == s.oracle_rows && s.matched == s.answer_rows;
}

/// "<n> rows vs <m>; missing <row>; extra <row>": how an answer differs.
std::string Difference(const std::vector<Tuple>& oracle,
                       const std::vector<Tuple>& answer) {
  auto sorted = [](const std::vector<Tuple>& rows) {
    std::vector<std::string> v;
    for (const Tuple& t : rows) v.push_back(pier::catalog::TupleToString(t));
    std::sort(v.begin(), v.end());
    return v;
  };
  std::vector<std::string> want = sorted(oracle), got = sorted(answer);
  std::vector<std::string> missing, extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  std::string out = std::to_string(got.size()) + " rows vs " +
                    std::to_string(want.size());
  if (!missing.empty()) out += "; missing " + missing[0];
  if (!extra.empty()) out += "; extra " + extra[0];
  return out;
}

/// Soundness of a Table 1 answer (rule_id, descr, SUM(hits)): every group
/// exists and no group exceeds its true total. Sets `rec`'s failure.
void CheckSound(const std::map<int64_t, int64_t>& truth,
                const std::vector<Tuple>& answer, QueryOutcome* rec) {
  for (const Tuple& row : answer) {
    int64_t rule = row[0].int64_value();
    auto it = truth.find(rule);
    if (it == truth.end()) {
      rec->failure = "phantom group";
      rec->detail = "rule " + std::to_string(rule);
      return;
    }
    if (row[2].int64_value() > it->second) {
      rec->failure = "group above its truth";
      rec->detail = "rule " + std::to_string(rule) + ": " +
                    std::to_string(row[2].int64_value()) + " > " +
                    std::to_string(it->second);
      return;
    }
  }
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kStorm, Workload::kSerial, Workload::kTable1,
                     Workload::kMonitorLossy}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kStorm:
      return "storm";
    case Workload::kSerial:
      return "serial";
    case Workload::kTable1:
      return "table1";
    case Workload::kMonitorLossy:
      return "monitor_lossy";
  }
  return "?";
}

namespace {

/// Applies `f` to each pair of corresponding fields (all uint64_t).
template <typename F>
void ForEachField(Counters& a, const Counters& b, F f) {
  f(a.events, b.events);
  f(a.msgs_lost, b.msgs_lost);
  f(a.overlay_bytes, b.overlay_bytes);
  f(a.dht_bytes, b.dht_bytes);
  f(a.broadcast_bytes, b.broadcast_bytes);
  f(a.query_bytes, b.query_bytes);
  f(a.lookups_failed, b.lookups_failed);
  f(a.routes, b.routes);
  f(a.route_forwards, b.route_forwards);
  f(a.puts, b.puts);
  f(a.put_retries, b.put_retries);
  f(a.put_failures, b.put_failures);
  f(a.gets, b.gets);
  f(a.get_failures, b.get_failures);
  f(a.bc_initiated, b.bc_initiated);
  f(a.bc_delivered, b.bc_delivered);
  f(a.bc_duplicates, b.bc_duplicates);
  f(a.bc_retransmits, b.bc_retransmits);
  f(a.bc_edges_failed, b.bc_edges_failed);
  f(a.index_scans, b.index_scans);
  f(a.index_probes, b.index_probes);
  f(a.index_leaves, b.index_leaves);
  f(a.index_fallbacks, b.index_fallbacks);
  f(a.index_early, b.index_early);
  f(a.pht_splits, b.pht_splits);
  f(a.scan_tasks, b.scan_tasks);
  f(a.store_sweeps, b.store_sweeps);
  f(a.shared_hits, b.shared_hits);
  f(a.sched_rounds, b.sched_rounds);
  f(a.rehash_puts, b.rehash_puts);
  f(a.rehash_put_failures, b.rehash_put_failures);
  f(a.batch_frames, b.batch_frames);
  f(a.frames_sent, b.frames_sent);
  f(a.frames_retx, b.frames_retx);
  f(a.frames_lost, b.frames_lost);
  f(a.frame_dupes, b.frame_dupes);
  f(a.reliable_early, b.reliable_early);
  f(a.late_partials, b.late_partials);
  f(a.plans_shed, b.plans_shed);
  f(a.tuples_scanned, b.tuples_scanned);
  f(a.batches, b.batches);
  f(a.vectorized_fallbacks, b.vectorized_fallbacks);
}

}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  ForEachField(*this, o, [](uint64_t& x, uint64_t y) { x += y; });
  return *this;
}

Counters& Counters::operator-=(const Counters& o) {
  ForEachField(*this, o, [](uint64_t& x, uint64_t y) { x -= y; });
  return *this;
}

RoundResult RunRound(const RoundOptions& options) {
  Plan plan = MakePlan(options);
  Tracer* tr = options.tracer;
  RoundResult out;
  out.nodes = plan.nodes;
  ScopedSpan round_span(tr, "bench.round");

  // -- set-up: build, boot, load, settle, idle window ------------------------
  pier::bench::WallTimer setup_timer;
  std::unique_ptr<pier::core::PierNetwork> net_owner;
  {
    ScopedSpan span(tr, "core.boot");
    net_owner = std::make_unique<pier::core::PierNetwork>(plan.nodes, plan.net);
    net_owner->Boot(plan.boot_settle);
  }
  pier::core::PierNetwork& net = *net_owner;
  pier::sim::Simulation* sim = net.sim();
  {
    // Rows published while a node lacks a predecessor are stored there as
    // if it owned the whole keyspace, and stay there after the ring
    // converges: the index, whose trie lives at the true owners, then
    // misses them. Loading starts on a converged ring.
    ScopedSpan span(tr, "core.converge");
    pier::testkit::RoutingConvergenceChecker ring;
    pier::testkit::CheckContext ctx;
    ctx.net = &net;
    const TimePoint t0 = sim->now();
    out.converged = ring.Check(ctx).ok();
    while (!out.converged && sim->now() - t0 < kConvergeCap) {
      sim->RunUntil(sim->now() + kConvergeStep);
      out.converged = ring.Check(ctx).ok();
    }
    out.converge_wait_us = sim->now() - t0;
  }
  out.boot_s = setup_timer.Seconds();
  {
    ScopedSpan span(tr, "core.load");
    for (size_t i = 0; i < net.size(); ++i) {
      for (const TableDef& def : plan.tables) {
        (void)net.node(i)->catalog()->Register(def);
      }
    }
    for (const Row& row : plan.rows) {
      pier::query::QueryEngine* engine = net.node(row.node)->query_engine();
      (void)(plan.republish > 0
                 ? engine->PublishVersioned(row.table, row.tuple, row.instance)
                 : engine->Publish(row.table, row.tuple));
    }
    sim->RunUntil(sim->now() + plan.load_settle);
  }
  out.load_s = setup_timer.Seconds() - out.boot_s;

  // Loss covers the idle window too, so the floor subtracted from the query
  // phase is measured under the same link conditions.
  pier::sim::FaultPlane plane(sim->rng().Fork(0x6c6f7373ull));
  if (plan.loss > 0) {
    net.net()->SetFaultPlane(&plane);
    plane.Loss({}, {}, plan.loss, sim->now(), sim->now() + Seconds(100000));
  }
  {
    ScopedSpan span(tr, "core.idle");
    Counters before = Snapshot(net);
    const TimePoint t0 = sim->now();
    sim->RunUntil(t0 + kIdleWindow);
    out.idle = Snapshot(net);
    out.idle -= before;
    out.idle_us = sim->now() - t0;
  }
  out.setup_s = setup_timer.Seconds();

  // -- query phase -----------------------------------------------------------
  // Periodic monitoring writes: every node re-publishes its rows under
  // stable instance ids, so the stored truth never changes.
  std::vector<std::unique_ptr<pier::sim::PeriodicTask>> publishers;
  if (plan.republish > 0) {
    std::vector<std::vector<const Row*>> by_node(plan.nodes);
    for (const Row& row : plan.rows) by_node[row.node].push_back(&row);
    for (size_t i = 0; i < plan.nodes; ++i) {
      auto task = std::make_unique<pier::sim::PeriodicTask>();
      Duration phase = plan.republish * static_cast<Duration>(i) /
                       static_cast<Duration>(plan.nodes);
      task->Start(sim, phase, plan.republish,
                  [&net, i, rows = by_node[i]] {
                    pier::query::QueryEngine* e = net.node(i)->query_engine();
                    for (const Row* r : rows) {
                      (void)e->PublishVersioned(r->table, r->tuple,
                                                r->instance);
                    }
                  });
      publishers.push_back(std::move(task));
    }
  }

  const size_t n = plan.queries.size();
  out.queries.resize(n);
  std::vector<std::vector<Tuple>> answers(n);
  std::vector<pier::query::Completeness> claims(n);
  // First planned copy of each distinct statement, for the oracle.
  std::map<std::string, pier::query::QueryPlan> oracle_plans;

  auto issue = [&](size_t q) {
    const QuerySpec& spec = plan.queries[q];
    QueryOutcome& rec = out.queries[q];
    rec.sql = spec.sql;
    rec.due_us = sim->now();
    ScopedSpan issue_span(tr, "bench.issue");
    pier::core::PierNode* origin = net.node(spec.origin);
    pier::Result<pier::sql::Statement> stmt = [&] {
      ScopedSpan span(tr, "sql.parse");
      return pier::sql::Parse(spec.sql);
    }();
    if (!stmt.ok()) {
      rec.failure = "parse error";
      rec.detail = stmt.status().ToString();
      return;
    }
    pier::planner::PlannerOptions popts;
    popts.use_index = spec.use_index;
    pier::Result<pier::query::QueryPlan> planned = [&] {
      ScopedSpan span(tr, "planner.plan");
      return pier::planner::PlanStatement(stmt.value(), *origin->catalog(),
                                          popts);
    }();
    if (!planned.ok()) {
      rec.failure = "plan error";
      rec.detail = planned.status().ToString();
      return;
    }
    oracle_plans.try_emplace(spec.sql, planned.value());
    ScopedSpan span(tr, "query.execute");
    pier::Result<uint64_t> qid = origin->query_engine()->Execute(
        std::move(planned).value(),
        [&rec, &rows = answers[q], &claim = claims[q],
         sim](const pier::query::ResultBatch& b) {
          if (rec.answered_us >= 0) return;  // one-shot: first batch only
          rec.answered_us = sim->now();
          rec.exact = b.completeness.exact;
          rows = b.rows;
          claim = b.completeness;
        });
    if (!qid.ok()) {
      rec.failure = "refused";
      rec.detail = qid.status().ToString();
      return;
    }
    rec.qid = qid.value();
    span.SetQuery(rec.qid);
    issue_span.SetQuery(rec.qid);
  };

  const Counters before = Snapshot(net);
  const TimePoint phase_start = sim->now();
  pier::bench::WallTimer phase_timer;
  const size_t half = n / 2;
  double wall_half = 0;
  double wall_issued = 0;
  {
    ScopedSpan phase_span(tr, "bench.query_phase");
    uint64_t last_qid = 0;
    for (size_t q = 0; q < n; ++q) {
      if (q == half) wall_half = phase_timer.Seconds();
      if (plan.open_loop) {
        {
          ScopedSpan span(tr, "sim.run_until", last_qid);
          sim->RunUntil(phase_start + static_cast<Duration>(q) * plan.stagger);
        }
        issue(q);
        last_qid = out.queries[q].qid;
        continue;
      }
      // Closed loop: the next query is due once this one's answer arrived
      // (or, for one that never answers, once its wait is over).
      issue(q);
      QueryOutcome& rec = out.queries[q];
      if (rec.qid == 0) continue;
      const TimePoint give_up =
          rec.due_us + plan.net.node.engine.result_wait + Seconds(10);
      ScopedSpan span(tr, "sim.run_until", rec.qid);
      while (rec.answered_us < 0 && sim->now() < give_up) {
        sim->RunUntil(sim->now() + kClosedStep);
      }
    }
    wall_issued = phase_timer.Seconds();
    if (plan.open_loop) {
      ScopedSpan span(tr, "sim.run_until", last_qid);
      sim->RunUntil(sim->now() + plan.drain);
    }
  }
  out.query_s = phase_timer.Seconds();
  out.early_s = wall_half;
  out.late_s = wall_issued - wall_half;
  out.early_n = static_cast<int>(half);
  out.late_n = static_cast<int>(n - half);
  out.query_us = sim->now() - phase_start;
  out.end_us = sim->now();
  out.query = Snapshot(net);
  out.pht_splits = out.query.pht_splits;
  out.query -= before;
  for (auto& task : publishers) task->Stop();

  // -- checks (untimed) ------------------------------------------------------
  std::map<std::string, pier::Result<std::vector<Tuple>>> oracle;
  for (const auto& [sql, p] : oracle_plans) {
    oracle.emplace(sql, pier::testkit::OracleEvaluate(net, p));
  }
  for (size_t q = 0; q < n; ++q) {
    QueryOutcome& rec = out.queries[q];
    if (rec.qid == 0) continue;  // failure already recorded
    if (tr != nullptr && rec.answered_us >= 0) {
      tr->Virtual("query.answer", rec.qid, rec.due_us, rec.answered_us);
    }
    if (rec.answered_us < 0) {
      rec.failure = "never answered";
      continue;
    }
    const auto& truth_rows = oracle.at(rec.sql);
    if (!truth_rows.ok()) {
      rec.failure = "oracle error";
      rec.detail = truth_rows.status().ToString();
      continue;
    }
    bool same = SameRows(truth_rows.value(), answers[q]);
    if (plan.loss == 0) {
      // Clean network: every answer must equal the oracle's.
      if (!same) {
        rec.failure = "differs from oracle";
        rec.detail = Difference(truth_rows.value(), answers[q]) + " (" +
                     claims[q].ToString() + ") for " + rec.sql;
      }
    } else {
      // Lossy network: degraded answers may miss rows but must stay sound,
      // and an exact claim must be true.
      CheckSound(plan.truth, answers[q], &rec);
      if (rec.failure.empty() && rec.exact && !same) {
        rec.failure = "exact claim differs from oracle";
      }
    }
    rec.ok = rec.failure.empty();
  }

  out.trace_digest = net.net()->trace_digest();
  net.net()->SetFaultPlane(nullptr);
  return out;
}

}  // namespace pierbench
