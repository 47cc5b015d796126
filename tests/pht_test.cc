// Property tests for the Prefix-Hash-Tree index subsystem (src/index/):
//
//   - the binary key encoding is order-preserving for signed ints and
//     strings (the property every range scan rests on);
//   - random insert workloads preserve the trie invariants after
//     quiescence: every key reachable through a full-range cursor walk,
//     leaf occupancy bounded by the split threshold, no key lost across
//     splits (including the adjacent-key cascade and the >B-duplicates
//     max-depth bucket);
//   - seed-replay determinism: the same seed rebuilds the same trie and
//     returns the same rows, logged via Rng::seed() SCOPED_TRACE like the
//     other fuzz suites;
//   - the cursor's pipelined walk over an in-memory trie answered in
//     discrete rounds: exact answers on uniform, skewed, one-leaf,
//     residual-bearing and damaged tries, with bounds on round trips and
//     probes.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/network.h"
#include "index/index_manager.h"
#include "index/key_codec.h"
#include "index/pht.h"
#include "index/pht_cursor.h"

namespace pier {
namespace index {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;
using core::PierNetwork;
using core::PierNetworkOptions;
using core::RouterKind;

// ---------------------------------------------------------------------------
// Key codec
// ---------------------------------------------------------------------------

TEST(KeyCodecTest, Int64EncodingIsOrderPreserving) {
  Rng rng(2026);
  SCOPED_TRACE("seed " + std::to_string(rng.seed()));
  std::vector<int64_t> probes = {std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::min() + 1,
                                 -1, 0, 1,
                                 std::numeric_limits<int64_t>::max() - 1,
                                 std::numeric_limits<int64_t>::max()};
  for (int i = 0; i < 2000; ++i) {
    probes.push_back(static_cast<int64_t>(rng.Next()));
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    for (size_t j = 0; j < probes.size(); ++j) {
      ASSERT_EQ(probes[i] < probes[j],
                EncodeInt64(probes[i]) < EncodeInt64(probes[j]))
          << probes[i] << " vs " << probes[j];
    }
  }
}

TEST(KeyCodecTest, StringEncodingIsMonotone) {
  Rng rng(2027);
  SCOPED_TRACE("seed " + std::to_string(rng.seed()));
  std::vector<std::string> probes = {"", "a", "ab", "abc", "b",
                                     "longer-than-eight-bytes",
                                     "longer-than-eight-bytes-too",
                                     std::string(1, '\x01'),
                                     std::string(3, '\xff')};
  for (int i = 0; i < 500; ++i) {
    std::string s;
    size_t n = rng.NextBelow(12);
    for (size_t k = 0; k < n; ++k) {
      s.push_back(static_cast<char>('a' + rng.NextBelow(26)));
    }
    probes.push_back(std::move(s));
  }
  for (const std::string& a : probes) {
    for (const std::string& b : probes) {
      // Truncation to 8 bytes makes the encoding monotone but not strict:
      // a < b must imply Enc(a) <= Enc(b), and Enc(a) < Enc(b) must imply
      // a < b. (Strings sharing an 8-byte prefix may collide.)
      if (a < b) {
        ASSERT_LE(EncodeString(a), EncodeString(b)) << a << "|" << b;
      }
      if (EncodeString(a) < EncodeString(b)) {
        ASSERT_LT(a, b) << a << "|" << b;
      }
    }
  }
}

TEST(KeyCodecTest, DoubleBoundsWidenOnIntColumns) {
  uint64_t lo = 0, hi = 0;
  // lo 5.5 floors to 5, hi 7.2 ceils to 8: every int in [5.5, 7.2] — 6 and
  // 7 — lies inside the widened [5, 8].
  ASSERT_TRUE(EncodeValue(Value::Double(5.5), ValueType::kInt64,
                          BoundSide::kLower, &lo));
  ASSERT_TRUE(EncodeValue(Value::Double(7.2), ValueType::kInt64,
                          BoundSide::kUpper, &hi));
  EXPECT_EQ(lo, EncodeInt64(5));
  EXPECT_EQ(hi, EncodeInt64(8));
  // Type-incoherent bounds refuse to encode (index selection skips them).
  uint64_t junk = 0;
  EXPECT_FALSE(EncodeValue(Value::Bool(true), ValueType::kInt64,
                           BoundSide::kLower, &junk));
  EXPECT_FALSE(EncodeValue(Value::Int64(5), ValueType::kString,
                           BoundSide::kLower, &junk));
}

TEST(KeyCodecTest, PrefixAndSuccessorArithmetic) {
  uint64_t key = EncodeInt64(0);  // 0x8000...: "1000..."
  EXPECT_EQ(Prefix(key, 0), "");
  EXPECT_EQ(Prefix(key, 4), "1000");
  uint64_t next = 0;
  ASSERT_TRUE(NextKeyAfterPrefix("1000", &next));
  EXPECT_EQ(Prefix(next, 4), "1001");
  EXPECT_EQ(next & ((1ull << 60) - 1), 0ull);  // zero-padded below
  EXPECT_FALSE(NextKeyAfterPrefix("1111", &next));
  EXPECT_FALSE(NextKeyAfterPrefix("", &next));
}

// ---------------------------------------------------------------------------
// Trie invariants over a live deployment
// ---------------------------------------------------------------------------

TableDef PointsTable(int bucket = 8) {
  TableDef def;
  def.name = "points";
  def.schema = Schema("points", {{"v", ValueType::kInt64},
                                 {"tag", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(3600);
  def.indexes = {catalog::IndexDef{0, bucket}};
  return def;
}

struct Deployment {
  std::unique_ptr<PierNetwork> net;
  TableDef def;

  explicit Deployment(size_t nodes, uint64_t seed, int bucket = 8) {
    PierNetworkOptions opts;
    opts.seed = seed;
    opts.node.router_kind = RouterKind::kOneHop;
    net = std::make_unique<PierNetwork>(nodes, opts);
    net->Boot(Seconds(5));
    def = PointsTable(bucket);
    for (size_t i = 0; i < net->size(); ++i) {
      EXPECT_TRUE(net->node(i)->catalog()->Register(def).ok());
    }
  }
};

/// Drives a PhtCursor straight over node 0's Dht (no query engine) and
/// collects every in-range tuple. Returns false on cursor failure.
bool CursorCollect(PierNetwork* net, const std::string& ns, uint64_t lo,
                   uint64_t hi, std::vector<Tuple>* rows,
                   PhtCursor::Outcome* outcome_out = nullptr) {
  dht::Dht* dht = net->node(0)->dht();
  PhtCursor cursor(
      [dht, ns](const std::string& resource, PhtCursor::GetCb cb) {
        dht->Get(ns, resource, std::move(cb));
      },
      lo, hi);
  bool done = false;
  PhtCursor::Outcome outcome = PhtCursor::Outcome::kError;
  cursor.Run(
      [&](const PhtEntry& entry) {
        Tuple t;
        if (catalog::TupleFromBytes(entry.tuple_bytes, &t).ok()) {
          rows->push_back(std::move(t));
        }
        return true;
      },
      [&](PhtCursor::Outcome o, Status) {
        outcome = o;
        done = true;
      });
  net->RunFor(Seconds(30));
  if (outcome_out != nullptr) *outcome_out = outcome;
  return done && outcome == PhtCursor::Outcome::kOk;
}

/// Checks the post-quiescence trie invariants across every node's primary
/// slice: leaf occupancy bounded (below max depth), and entries only at
/// leaves (no entry strands above an internal marker).
void CheckTrieInvariants(PierNetwork* net, const std::string& ns,
                         int bucket) {
  std::map<std::string, size_t> entries_per_prefix;
  std::set<std::string> internal_prefixes;
  for (size_t i = 0; i < net->size(); ++i) {
    if (!net->node(i)->alive()) continue;
    net->node(i)->dht()->ForEachLocal(ns, [&](const dht::StoredItem& item) {
      if (item.replica) return true;  // primaries define the trie
      if (item.key.instance == kMarkerInstance) {
        Reader r(item.value);
        PhtNodeRecord rec;
        if (PhtNodeRecord::Deserialize(&r, &rec).ok() && rec.internal) {
          internal_prefixes.insert(item.key.resource);
        }
      } else {
        ++entries_per_prefix[item.key.resource];
      }
      return true;
    });
  }
  for (const auto& [prefix, count] : entries_per_prefix) {
    EXPECT_EQ(internal_prefixes.count(prefix), 0u)
        << "entries stranded at internal node " << prefix;
    if (prefix.size() < static_cast<size_t>(kKeyBits)) {
      EXPECT_LE(count, static_cast<size_t>(bucket))
          << "leaf " << prefix << " over the split threshold";
    }
  }
}

std::multiset<int64_t> FirstCols(const std::vector<Tuple>& rows) {
  std::multiset<int64_t> out;
  for (const Tuple& t : rows) out.insert(t[0].int64_value());
  return out;
}

TEST(PhtTrieTest, RandomInsertsPreserveInvariantsAndReachability) {
  Rng rng(515151);
  SCOPED_TRACE("seed " + std::to_string(rng.seed()));
  Deployment d(6, rng.seed());

  std::multiset<int64_t> published;
  for (int i = 0; i < 150; ++i) {
    int64_t v = rng.UniformInt(-1000000, 1000000);
    published.insert(v);
    ASSERT_TRUE(d.net->node(i % d.net->size())
                    ->query_engine()
                    ->Publish("points",
                              Tuple{Value::Int64(v), Value::Int64(i)})
                    .ok());
    if (i % 25 == 24) d.net->RunFor(Seconds(2));  // interleave with splits
  }
  d.net->RunFor(Seconds(30));  // quiesce: all splits and forwards settle

  const std::string ns = PhtIndex::NamespaceFor("points", 0);
  CheckTrieInvariants(d.net.get(), ns, 8);

  // Every key reachable: a full-range walk finds the exact multiset.
  std::vector<Tuple> rows;
  ASSERT_TRUE(CursorCollect(d.net.get(), ns, 0,
                            std::numeric_limits<uint64_t>::max(), &rows));
  EXPECT_EQ(FirstCols(rows), published);

  // Sub-range walk agrees with a local filter of the published multiset.
  std::vector<Tuple> sub;
  ASSERT_TRUE(CursorCollect(d.net.get(), ns, EncodeInt64(-5000),
                            EncodeInt64(250000), &sub));
  std::multiset<int64_t> expect;
  for (int64_t v : published) {
    if (v >= -5000 && v <= 250000) expect.insert(v);
  }
  EXPECT_EQ(FirstCols(sub), expect);
}

TEST(PhtTrieTest, AdjacentKeyCascadeLosesNothing) {
  // 0..39 share the top ~58 encoded bits: the first split cascades dozens
  // of levels before keys separate — the stress case for split re-puts.
  Rng rng(616161);
  SCOPED_TRACE("seed " + std::to_string(rng.seed()));
  Deployment d(4, rng.seed());
  std::multiset<int64_t> published;
  for (int i = 0; i < 40; ++i) {
    published.insert(i);
    ASSERT_TRUE(d.net->node(i % d.net->size())
                    ->query_engine()
                    ->Publish("points",
                              Tuple{Value::Int64(i), Value::Int64(i)})
                    .ok());
  }
  d.net->RunFor(Seconds(40));

  const std::string ns = PhtIndex::NamespaceFor("points", 0);
  CheckTrieInvariants(d.net.get(), ns, 8);
  std::vector<Tuple> rows;
  ASSERT_TRUE(CursorCollect(d.net.get(), ns, 0,
                            std::numeric_limits<uint64_t>::max(), &rows));
  EXPECT_EQ(FirstCols(rows), published);
}

TEST(PhtTrieTest, DuplicateKeysOverflowMaxDepthBucketSafely) {
  // More than bucket-size rows with the IDENTICAL key: no amount of
  // splitting separates them, so they must accumulate in the depth-64
  // bucket instead of split-cascading forever.
  Deployment d(4, 717171, /*bucket=*/4);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(d.net->node(i % d.net->size())
                    ->query_engine()
                    ->Publish("points",
                              Tuple{Value::Int64(77), Value::Int64(i)})
                    .ok());
  }
  d.net->RunFor(Seconds(40));

  const std::string ns = PhtIndex::NamespaceFor("points", 0);
  CheckTrieInvariants(d.net.get(), ns, 4);
  std::vector<Tuple> rows;
  ASSERT_TRUE(CursorCollect(d.net.get(), ns, EncodeInt64(77),
                            EncodeInt64(77), &rows));
  EXPECT_EQ(rows.size(), 12u);
}

TEST(PhtTrieTest, RenewalsDoNotSplitFullLeaves) {
  // A leaf at exactly the bucket threshold is legal; soft-state renewals
  // (same publisher-scoped instance, replaced in place) must not count as
  // growth — else every full leaf splits on its next refresh cycle.
  Deployment d(4, 434343, /*bucket=*/8);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(d.net->node(0)
                      ->query_engine()
                      ->PublishVersioned(
                          "points",
                          Tuple{Value::Int64(i), Value::Int64(round)},
                          static_cast<uint64_t>(i))
                      .ok());
    }
    d.net->RunFor(Seconds(10));
  }
  uint64_t splits = 0;
  for (size_t i = 0; i < d.net->size(); ++i) {
    const PhtIndex* idx = d.net->node(i)->index_manager()->Find("points", 0);
    if (idx != nullptr) splits += idx->stats().splits;
  }
  EXPECT_EQ(splits, 0u);
  std::vector<Tuple> rows;
  ASSERT_TRUE(CursorCollect(d.net.get(),
                            PhtIndex::NamespaceFor("points", 0), 0,
                            std::numeric_limits<uint64_t>::max(), &rows));
  EXPECT_EQ(rows.size(), 8u);  // renewed, not accumulated
}

TEST(PhtTrieTest, EmptyIndexReportsCold) {
  Deployment d(4, 818181);
  const std::string ns = PhtIndex::NamespaceFor("points", 0);
  std::vector<Tuple> rows;
  PhtCursor::Outcome outcome;
  EXPECT_FALSE(CursorCollect(d.net.get(), ns, 0,
                             std::numeric_limits<uint64_t>::max(), &rows,
                             &outcome));
  EXPECT_EQ(outcome, PhtCursor::Outcome::kColdIndex);
  EXPECT_TRUE(rows.empty());
}

TEST(PhtTrieTest, SeedReplayIsDeterministic) {
  auto run = [](uint64_t seed) {
    Rng rng(seed);
    Deployment d(5, seed);
    std::vector<int64_t> keys;
    for (int i = 0; i < 60; ++i) {
      int64_t v = rng.UniformInt(0, 100000);
      keys.push_back(v);
      EXPECT_TRUE(d.net->node(i % d.net->size())
                      ->query_engine()
                      ->Publish("points",
                                Tuple{Value::Int64(v), Value::Int64(i)})
                      .ok());
    }
    d.net->RunFor(Seconds(25));
    std::vector<Tuple> rows;
    EXPECT_TRUE(CursorCollect(d.net.get(),
                              PhtIndex::NamespaceFor("points", 0), 0,
                              std::numeric_limits<uint64_t>::max(), &rows));
    // Splits/forwards observed by any node, for shape comparison.
    uint64_t splits = 0;
    for (size_t i = 0; i < d.net->size(); ++i) {
      const PhtIndex* idx =
          d.net->node(i)->index_manager()->Find("points", 0);
      if (idx != nullptr) splits += idx->stats().splits;
    }
    return std::make_pair(FirstCols(rows), splits);
  };
  const uint64_t seed = 919191;
  SCOPED_TRACE("seed " + std::to_string(seed));
  auto first = run(seed);
  auto second = run(seed);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// ---------------------------------------------------------------------------
// PhtCursor over an in-memory trie
// ---------------------------------------------------------------------------

/// An in-memory PHT: prefix -> the items a get of it returns. Gets queue
/// up and are answered in discrete rounds (every get sent while a round's
/// replies are handled lands in the next round), so a test reads the walk's
/// critical path in round trips with no network.
class FakeTrie {
 public:
  /// The trie a bucket-`bucket` PHT converges to for `keys`.
  void Build(const std::vector<uint64_t>& keys, int bucket,
             const std::string& prefix = "") {
    if (keys.size() <= static_cast<size_t>(bucket) ||
        prefix.size() == static_cast<size_t>(kKeyBits)) {
      AddMarker(prefix, /*internal=*/false);
      for (uint64_t k : keys) AddEntry(prefix, k);
      return;
    }
    AddMarker(prefix, /*internal=*/true);
    std::vector<uint64_t> side[2];
    for (uint64_t k : keys) {
      side[Bit(k, static_cast<int>(prefix.size()))].push_back(k);
    }
    Build(side[0], bucket, prefix + "0");
    Build(side[1], bucket, prefix + "1");
  }

  void AddMarker(const std::string& prefix, bool internal) {
    Writer w;
    PhtNodeRecord rec;
    rec.internal = internal;
    rec.Serialize(&w);
    nodes_[prefix].push_back(Item(prefix, kMarkerInstance, w.Release()));
  }

  /// Stores `key` at `prefix` under `instance` (0 = a fresh instance).
  void AddEntry(const std::string& prefix, uint64_t key,
                uint64_t instance = 0) {
    if (instance == 0) {
      instance = ++last_instance_;
      instance_of_[key] = instance;
      keys_.push_back(key);
    }
    Writer w;
    PhtEntry{key, "row"}.Serialize(&w);
    nodes_[prefix].push_back(Item(prefix, instance, w.Release()));
  }

  /// The instance `key` was last stored under as a fresh entry.
  uint64_t InstanceOf(uint64_t key) const { return instance_of_.at(key); }

  void Erase(const std::string& prefix) { nodes_.erase(prefix); }

  PhtCursor::GetFn GetFn() {
    return [this](const std::string& resource, PhtCursor::GetCb cb) {
      pending_.emplace_back(resource, std::move(cb));
    };
  }

  /// Answers queued gets round by round until none is left.
  uint64_t Drain() {
    uint64_t rounds = 0;
    while (!pending_.empty()) {
      ++rounds;
      std::deque<std::pair<std::string, PhtCursor::GetCb>> round;
      round.swap(pending_);
      for (auto& [resource, cb] : round) {
        auto it = nodes_.find(resource);
        cb(Status::OK(), it == nodes_.end() ? std::vector<dht::DhtItem>{}
                                            : it->second);
      }
    }
    return rounds;
  }

  /// Brute force: every stored key (one per instance) inside [lo, hi].
  std::multiset<uint64_t> Expect(uint64_t lo, uint64_t hi) const {
    std::multiset<uint64_t> out;
    for (uint64_t k : keys_) {
      if (k >= lo && k <= hi) out.insert(k);
    }
    return out;
  }

 private:
  static dht::DhtItem Item(const std::string& prefix, uint64_t instance,
                           std::string value) {
    dht::DhtItem item;
    item.key = dht::DhtKey{"#idx.t.0", prefix, instance};
    item.value = std::move(value);
    return item;
  }

  std::map<std::string, std::vector<dht::DhtItem>> nodes_;
  std::deque<std::pair<std::string, PhtCursor::GetCb>> pending_;
  std::vector<uint64_t> keys_;
  std::map<uint64_t, uint64_t> instance_of_;
  uint64_t last_instance_ = 0;
};

struct Walk {
  bool done = false;
  PhtCursor::Outcome outcome = PhtCursor::Outcome::kError;
  std::multiset<uint64_t> keys;
  PhtCursor::Stats stats;
  uint64_t rounds = 0;  ///< rounds the fake trie answered
};

Walk WalkRange(FakeTrie* trie, uint64_t lo, uint64_t hi) {
  Walk w;
  PhtCursor cursor(trie->GetFn(), lo, hi);
  cursor.Run(
      [&](const PhtEntry& entry) {
        w.keys.insert(entry.key);
        return true;
      },
      [&](PhtCursor::Outcome o, Status) {
        w.outcome = o;
        w.done = true;
      });
  w.rounds = trie->Drain();
  w.stats = cursor.stats();
  EXPECT_TRUE(w.done);
  EXPECT_EQ(w.stats.rounds, w.rounds) << "Stats::rounds is the critical path";
  return w;
}

/// 1024 keys spaced 2^54 apart: with bucket 8 every leaf sits at depth 7
/// and holds keys UniformKey(8j) .. UniformKey(8j + 7).
uint64_t UniformKey(uint64_t i) { return i << 54; }

std::vector<uint64_t> UniformKeys() {
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 1024; ++i) keys.push_back(UniformKey(i));
  return keys;
}

TEST(PhtCursorTest, RangeInsideOneLeafCostsOnlyTheLocate) {
  FakeTrie trie;
  trie.Build(UniformKeys(), 8);
  // Keys 161..166 all sit in leaf 20 (keys 160..167).
  Walk w = WalkRange(&trie, UniformKey(161), UniformKey(166));
  EXPECT_EQ(w.outcome, PhtCursor::Outcome::kOk);
  EXPECT_EQ(w.keys, trie.Expect(UniformKey(161), UniformKey(166)));
  EXPECT_EQ(w.keys.size(), 6u);
  // Depth search over [0, 64]: 32 (empty), 15 (empty), 7 (leaf).
  EXPECT_EQ(w.stats.probes, 3u);
  EXPECT_EQ(w.stats.rounds, 3u);
  EXPECT_EQ(w.stats.leaves, 1u);
}

TEST(PhtCursorTest, UniformTrieReadsTheRangeInOneWindow) {
  FakeTrie trie;
  trie.Build(UniformKeys(), 8);
  Walk one = WalkRange(&trie, UniformKey(161), UniformKey(166));
  // Leaves 20..31: the locate plus eleven more leaves, all in one round.
  Walk w = WalkRange(&trie, UniformKey(163), UniformKey(250));
  EXPECT_EQ(w.outcome, PhtCursor::Outcome::kOk);
  EXPECT_EQ(w.keys, trie.Expect(UniformKey(163), UniformKey(250)));
  EXPECT_EQ(w.keys.size(), 88u);
  EXPECT_LE(w.stats.rounds, one.stats.rounds + 2);
  EXPECT_EQ(w.stats.rounds, one.stats.rounds + 1);
  EXPECT_EQ(w.stats.probes, one.stats.probes + 11);
  EXPECT_EQ(w.stats.leaves, 12u);

  // The whole table: 128 leaves through a 16-wide window.
  Walk all = WalkRange(&trie, 0, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(all.outcome, PhtCursor::Outcome::kOk);
  EXPECT_EQ(all.keys.size(), 1024u);
  EXPECT_EQ(all.stats.leaves, 128u);
  EXPECT_EQ(all.stats.probes, one.stats.probes + 127);
  EXPECT_LE(all.stats.rounds, one.stats.rounds + (127 + 15) / 16);
}

TEST(PhtCursorTest, SkewedTrieFindsShallowLeavesByBinarySearch) {
  // A dense run of 64 adjacent keys at the top of the "0" half splits down
  // to depth 61; the "1" half holds three sparse keys in one depth-1 leaf.
  // A range from the dense run's last leaf to the top of the keyspace
  // meets leaves at depths 61, 58, 57 and 1.
  std::vector<uint64_t> keys;
  const uint64_t dense = 0x7FFFFFFFFFFFFF00ull;
  for (uint64_t i = 0; i < 64; ++i) keys.push_back(dense + i);
  for (uint64_t k : {0x8000000000000005ull, 0xA000000000000000ull,
                     0xFFFFFFFFFFFFFFF0ull}) {
    keys.push_back(k);
  }
  FakeTrie trie;
  trie.Build(keys, 8);
  const uint64_t lo = dense + 0x30;
  const uint64_t hi = std::numeric_limits<uint64_t>::max();
  Walk w = WalkRange(&trie, lo, hi);
  EXPECT_EQ(w.outcome, PhtCursor::Outcome::kOk);
  EXPECT_EQ(w.keys, trie.Expect(lo, hi));
  EXPECT_EQ(w.keys.size(), 19u);
  // Climbing one level per round from depth 61 to the depth-1 leaf would
  // take 60 rounds; the depth searches take a handful each.
  EXPECT_LE(w.stats.rounds, 14u);
  EXPECT_LE(w.stats.probes, 56u);
  EXPECT_EQ(w.stats.leaves, 5u);
}

TEST(PhtCursorTest, ResidualEntriesAtInternalNodesAreReadOnce) {
  // Leaf 25 (keys 200..207) overflows: eight more keys split it into two
  // depth-8 leaves. One moved entry also stays readable at the parent as a
  // residual (its move not yet acked), one stranded key lives only there.
  std::vector<uint64_t> keys = UniformKeys();
  for (uint64_t i = 200; i < 208; ++i) {
    keys.push_back(UniformKey(i) + (1ull << 53));
  }
  FakeTrie trie;
  trie.Build(keys, 8);
  const std::string p25 = Prefix(UniformKey(200), 7);
  const uint64_t moved = UniformKey(203);
  trie.AddEntry(p25, moved, trie.InstanceOf(moved));
  const uint64_t stranded = UniformKey(205) + 7;
  trie.AddEntry(p25, stranded);

  Walk w = WalkRange(&trie, UniformKey(190), UniformKey(215));
  EXPECT_EQ(w.outcome, PhtCursor::Outcome::kOk);
  EXPECT_EQ(w.keys, trie.Expect(UniformKey(190), UniformKey(215)));
  EXPECT_EQ(w.keys.count(moved), 1u);
  EXPECT_EQ(w.keys.count(stranded), 1u);
  // Leaves 23, 24, 26 at depth 7; leaf 25 is internal, its children are
  // one round further.
  EXPECT_EQ(w.stats.leaves, 5u);
  Walk one = WalkRange(&trie, UniformKey(161), UniformKey(166));
  EXPECT_EQ(w.stats.rounds, one.stats.rounds + 2);
}

TEST(PhtCursorTest, MissingChildOfKnownInternalNodeIsAnError) {
  {
    // Leaf 21's marker and entries vanish: the depth search for the leaf
    // covering it finds only ancestors of leaf 20.
    FakeTrie trie;
    trie.Build(UniformKeys(), 8);
    trie.Erase(Prefix(UniformKey(168), 7));
    Walk w = WalkRange(&trie, UniformKey(163), UniformKey(250));
    EXPECT_EQ(w.outcome, PhtCursor::Outcome::kError);
  }
  {
    // Leaf 25 split into two depth-8 leaves; one of them vanishes. The
    // window reads 25 as internal, so its missing child is damage.
    std::vector<uint64_t> keys = UniformKeys();
    for (uint64_t i = 200; i < 208; ++i) {
      keys.push_back(UniformKey(i) + (1ull << 53));
    }
    FakeTrie trie;
    trie.Build(keys, 8);
    trie.Erase(Prefix(UniformKey(204), 8));
    Walk w = WalkRange(&trie, UniformKey(190), UniformKey(215));
    EXPECT_EQ(w.outcome, PhtCursor::Outcome::kError);
    EXPECT_EQ(w.stats.leaves, 4u);  // 23, 24, 26 and 25's left child
  }
}

TEST(PhtCursorTest, SilentRootIsAColdIndex) {
  FakeTrie trie;
  Walk w = WalkRange(&trie, 0, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(w.outcome, PhtCursor::Outcome::kColdIndex);
  EXPECT_TRUE(w.keys.empty());
  // The depth search over [0, 64] converges on nothing: 7 probes at most.
  EXPECT_LE(w.stats.probes, 7u);
}

TEST(PhtCursorTest, ProbeCapStopsARunawayWalk) {
  // 8192 empty leaves at depth 13: a full-range walk needs more gets than
  // the cap allows.
  FakeTrie trie;
  std::function<void(const std::string&)> grow = [&](const std::string& p) {
    if (p.size() == 13) {
      trie.AddMarker(p, /*internal=*/false);
      return;
    }
    trie.AddMarker(p, /*internal=*/true);
    grow(p + "0");
    grow(p + "1");
  };
  grow("");
  Walk w = WalkRange(&trie, 0, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(w.outcome, PhtCursor::Outcome::kError);
  EXPECT_EQ(w.stats.probes, PhtCursor::kMaxProbes);
}

}  // namespace
}  // namespace index
}  // namespace pier
