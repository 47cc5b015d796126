// PhtCursor: the client-side range reader of the Prefix Hash Tree.
//
// For a closed encoded-key range [lo, hi] the cursor
//
//   1. locates the leaf covering `lo` by the PHT "doubly binary" search — a
//      binary search over prefix DEPTH, where each probe is one DHT get at
//      prefix(key, depth) and classifies the trie node from the items that
//      come back (internal marker / leaf marker or entries / nothing).
//      A caller that knows a likely leaf depth (PhtIndex::LeafDepthNear:
//      the depth of a leaf this node holds near `lo`) passes it as
//      `start_depth`, and the search probes that depth first. A leaf there
//      ends the locate in one round trip. Otherwise the search runs its
//      usual midpoints over [0, 64], and the seed's class answers every
//      midpoint it implies without a get: internal at d means internal at
//      every depth <= d on the path, empty at d means empty at every depth
//      >= d. So a wrong seed costs at most one probe and one round more
//      than the unseeded search, and no seed is exactly the unseeded one;
//   2. reads the rest of the range as one pipelined window: every next
//      prefix at that first leaf's depth d, up to the one holding `hi`, is
//      generated lazily and fetched with at most kWindow gets in flight.
//      Each reply resolves on its own:
//        leaf      its in-range entries are emitted;
//        internal  its residual entries are emitted and its in-range
//                  children join the window;
//        empty     the prefix lies under a shallower leaf, found by a
//                  binary search over depth bounded above by the empty
//                  prefix's depth; prefixes a found leaf covers are never
//                  fetched. Once the generator jumps past such a leaf, the
//                  next depth-d prefix goes out alone, and the window
//                  refills only after its reply: past one shallow leaf the
//                  next depth-d prefixes are likely empty too.
//
// Sibling leaves cluster at similar depths, so a range of L leaves costs
// the O(log kKeyBits) locate (one get with a right seed) plus about L gets,
// but only one or two more round trips on the critical path instead of one
// per leaf.
//
// The cursor is deliberately transport-agnostic: it speaks through a GetFn
// so the query runtime can interpose its query-lifetime re-entry guard
// (StageHost::PostToStage) and tests can drive a bare Dht or an in-memory
// trie. Every terminal outcome is reported exactly once through DoneFn:
//
//   kOk         range exhausted (or the row callback stopped early);
//   kColdIndex  the trie root is empty — nothing was ever inserted or the
//               index decayed; the caller should fall back to scanning;
//   kError      a probe failed (owner unreachable after DHT retries), a
//               known-internal node lost a child, or the walk exceeded its
//               probe budget mid-churn.

#ifndef PIER_INDEX_PHT_CURSOR_H_
#define PIER_INDEX_PHT_CURSOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dht/storage.h"
#include "index/key_codec.h"
#include "index/pht.h"

namespace pier {
namespace index {

class PhtCursor {
 public:
  enum class Outcome {
    kOk,         ///< range exhausted (or the row callback stopped early)
    kColdIndex,  ///< trie root empty: fall back to scanning
    kError,      ///< probe failed / walk over budget / missing leaf
  };

  struct Stats {
    uint64_t probes = 0;          ///< DHT gets sent
    /// Longest chain of dependent probes: a get sent while handling a
    /// round-r reply is in round r + 1. The critical path in round trips.
    uint64_t rounds = 0;
    uint64_t leaves = 0;          ///< leaves read
    uint64_t entries_seen = 0;    ///< entries decoded at visited nodes
    uint64_t entries_emitted = 0; ///< entries inside [lo, hi]
  };

  /// Gets in flight at once.
  static constexpr size_t kWindow = 16;
  /// Hard cap on probes per cursor: a walk that exceeds it is churn debris
  /// (or hostile trie state) and reports kError instead of spinning.
  static constexpr uint64_t kMaxProbes = 4096;

  using GetCb = std::function<void(Status, std::vector<dht::DhtItem>)>;
  /// Sends one DHT get for `resource` in the index namespace.
  using GetFn = std::function<void(const std::string& resource, GetCb cb)>;
  /// Receives one in-range entry; each instance is emitted once. Return
  /// false to stop the walk early.
  using RowFn = std::function<bool(const PhtEntry& entry)>;
  using DoneFn = std::function<void(Outcome, Status)>;

  /// Closed encoded range; `lo` > `hi` completes immediately with kOk.
  /// `start_depth` in [0, kKeyBits] seeds the locate's first probe; any
  /// other value (-1: no seed) leaves the search unseeded.
  PhtCursor(GetFn get, uint64_t lo, uint64_t hi, int start_depth = -1);

  /// Starts the walk. Callbacks fire from GetFn continuations; the cursor
  /// must stay alive until DoneFn runs (drop the continuations to abort).
  void Run(RowFn row, DoneFn done);

  const Stats& stats() const { return stats_; }

 private:
  enum class NodeClass { kInternal, kLeaf, kEmpty };

  /// One trie prefix by its first key and depth.
  struct Node {
    uint64_t first = 0;
    int depth = 0;
    uint64_t last() const;
  };
  /// Binary search over depth for the leaf covering [first, last].
  struct Search {
    uint64_t first = 0;
    uint64_t last = 0;
    int lo_depth = 0;
    int hi_depth = kKeyBits;
    /// Depth probed before any midpoint (-1: none or already probed).
    int seed_depth = -1;
    /// What the seed's class implies for the path: every depth up to
    /// internal_to is internal, every depth from empty_from on is empty.
    int internal_to = -1;
    int empty_from = kKeyBits + 1;
    bool open = true;  ///< not yet settled by a found leaf or a failure
  };
  /// One get in flight. A range prefix (generated or a child) resolves by
  /// its class; searches waiting on it re-step from the cached class.
  struct Probe {
    Node node;
    uint64_t round = 0;
    bool range = false;
    std::vector<size_t> searches;
  };

  /// Sends gets until the window is full or no work is left.
  void Pump();
  /// Advances search `s` through cached classes. Returns true when it needs
  /// the prefix in `*need` from the network; false when it is settled.
  bool Step(size_t s, Node* need);
  void Send(const Node& node, bool range, size_t search);
  void OnReply(const std::string& prefix, Status s,
               std::vector<dht::DhtItem> items);
  /// A range prefix's own consequences: children, or a search.
  void OnRange(const Node& node, NodeClass cls);
  /// Next depth-d prefix not already covered by a found leaf.
  bool NextGenerated(Node* out);
  void Emit(const std::vector<dht::DhtItem>& items);
  bool Covered(uint64_t first, uint64_t last) const;
  void Cover(const Node& leaf);
  void Finish(Outcome outcome, Status s);

  static NodeClass Classify(const std::vector<dht::DhtItem>& items);

  GetFn get_;
  uint64_t lo_;
  uint64_t hi_;
  RowFn row_;
  DoneFn done_;
  Stats stats_;
  bool finished_ = false;
  bool saw_trie_state_ = false;  ///< any probe ever classified non-empty

  std::vector<Search> searches_;
  std::deque<size_t> ready_searches_;
  std::deque<Node> children_;
  std::unordered_map<std::string, Probe> inflight_;
  /// Round of the reply being handled (0 before the first reply).
  uint64_t cur_round_ = 0;

  /// The lazy depth-d generator; depth -1 until the first leaf is found.
  int gen_depth_ = -1;
  uint64_t gen_next_ = 0;
  bool gen_done_ = false;
  /// Set by a jump past a leaf shallower than gen_depth_: the next prefix
  /// goes out alone (gen_waiting_) and the generator holds until it replies.
  bool gen_solo_ = false;
  bool gen_waiting_ = false;
  uint64_t gen_wait_first_ = 0;

  /// Classified prefixes: internal nodes stay internal and empty prefixes
  /// stay empty for a walk, so searches share them without the network.
  std::unordered_set<std::string> known_internal_;
  std::unordered_set<std::string> known_empty_;
  /// Key ranges of the leaves found so far (first -> last). Trie prefixes
  /// nest or are disjoint, so only outermost ranges are kept.
  std::map<uint64_t, uint64_t> covered_;
  /// Entry instances already emitted. Split moves are acked, so an entry
  /// can transiently exist at BOTH the parent (residual awaiting ack) and
  /// the child, and replica failovers can resurface parent-level ghosts;
  /// instance ids are globally unique per base tuple, so deduping here
  /// keeps the answer an exact multiset.
  std::unordered_set<uint64_t> emitted_instances_;
};

}  // namespace index
}  // namespace pier

#endif  // PIER_INDEX_PHT_CURSOR_H_
