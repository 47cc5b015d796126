#include "index/pht_cursor.h"

#include <algorithm>

namespace pier {
namespace index {

namespace {

/// Bits of a key a depth-`depth` prefix fixes.
uint64_t Mask(int depth) {
  return depth == 0 ? 0 : ~0ull << (kKeyBits - depth);
}

}  // namespace

uint64_t PhtCursor::Node::last() const { return first | ~Mask(depth); }

PhtCursor::PhtCursor(GetFn get, uint64_t lo, uint64_t hi, int start_depth)
    : get_(std::move(get)), lo_(lo), hi_(hi) {
  // Search 0 locates the leaf covering lo.
  if (start_depth < 0 || start_depth > kKeyBits) start_depth = -1;
  searches_.push_back(Search{lo_, lo_, 0, kKeyBits, start_depth});
  ready_searches_.push_back(0);
}

void PhtCursor::Run(RowFn row, DoneFn done) {
  row_ = std::move(row);
  done_ = std::move(done);
  if (lo_ > hi_) {
    Finish(Outcome::kOk, Status::OK());
    return;
  }
  Pump();
}

void PhtCursor::Pump() {
  // Searches first (each one gates a whole region), then children of
  // internal nodes, then the lazily generated depth-d prefixes.
  while (!finished_ && inflight_.size() < kWindow) {
    Node node;
    if (!ready_searches_.empty()) {
      size_t s = ready_searches_.front();
      ready_searches_.pop_front();
      if (Step(s, &node)) Send(node, /*range=*/false, s);
    } else if (!children_.empty()) {
      node = children_.front();
      children_.pop_front();
      if (!Covered(node.first, node.last())) Send(node, /*range=*/true, 0);
    } else if (NextGenerated(&node)) {
      Send(node, /*range=*/true, 0);
    } else {
      break;
    }
  }
  if (!finished_ && gen_done_ && inflight_.empty() &&
      ready_searches_.empty() && children_.empty()) {
    Finish(Outcome::kOk, Status::OK());
  }
}

bool PhtCursor::Step(size_t s, Node* need) {
  Search& se = searches_[s];
  while (!Covered(se.first, se.last)) {
    if (se.lo_depth > se.hi_depth) {
      // No leaf anywhere on this key's path. In a healthy trie that cannot
      // happen: splits materialize BOTH children, so every path ends at a
      // leaf marker (possibly with zero entries). Converging on nothing
      // below an internal ancestor means the trie lost nodes mid-churn —
      // report an error so the query layer falls back to a broadcast scan
      // rather than pass damage off as an empty region. Converging on an
      // entirely silent trie means the index is cold.
      se.open = false;
      if (!saw_trie_state_) {
        Finish(Outcome::kColdIndex, Status::OK());
      } else {
        Finish(Outcome::kError,
               Status::Unavailable("pht path lost its leaf (churn)"));
      }
      return false;
    }
    const bool seeded = se.seed_depth >= 0;
    int depth = seeded ? se.seed_depth : (se.lo_depth + se.hi_depth) / 2;
    Node node{se.first & Mask(depth), depth};
    std::string prefix = Prefix(se.first, depth);
    // A prefix above a found leaf is internal: no get needed.
    auto below = covered_.lower_bound(node.first);
    bool internal = depth <= se.internal_to ||
                    known_internal_.count(prefix) > 0 ||
                    (below != covered_.end() && below->first <= node.last());
    bool empty = !internal && (depth >= se.empty_from ||
                               known_empty_.count(prefix) > 0);
    if (!internal && !empty) {
      *need = node;
      return true;
    }
    if (seeded) {
      // The seed bounds the midpoints without moving them.
      se.seed_depth = -1;
      if (internal) {
        se.internal_to = depth;
      } else {
        se.empty_from = depth;
      }
    } else if (internal) {
      se.lo_depth = depth + 1;
    } else {
      se.hi_depth = depth - 1;
    }
  }
  se.open = false;
  return false;  // a found leaf covers this search's region
}

void PhtCursor::Send(const Node& node, bool range, size_t search) {
  std::string prefix = Prefix(node.first, node.depth);
  auto it = inflight_.find(prefix);
  if (it != inflight_.end()) {
    // Adjacent empty prefixes search the same upper path: share the get.
    if (range) {
      it->second.range = true;
    } else {
      it->second.searches.push_back(search);
    }
    return;
  }
  if (stats_.probes >= kMaxProbes) {
    Finish(Outcome::kError, Status::Unavailable("pht walk exceeded budget"));
    return;
  }
  ++stats_.probes;
  Probe& probe = inflight_[prefix];
  probe.node = node;
  probe.round = cur_round_ + 1;
  probe.range = range;
  if (!range) probe.searches.push_back(search);
  stats_.rounds = std::max(stats_.rounds, probe.round);
  get_(prefix, [this, prefix](Status s, std::vector<dht::DhtItem> items) {
    OnReply(prefix, std::move(s), std::move(items));
  });
}

PhtCursor::NodeClass PhtCursor::Classify(
    const std::vector<dht::DhtItem>& items) {
  bool has_entries = false;
  for (const dht::DhtItem& item : items) {
    if (item.key.instance == kMarkerInstance) {
      Reader r(item.value);
      PhtNodeRecord rec;
      // An internal marker overrules any entries still decaying here from
      // before the node split.
      if (PhtNodeRecord::Deserialize(&r, &rec).ok() && rec.internal) {
        return NodeClass::kInternal;
      }
      has_entries = true;  // leaf marker counts as presence
    } else {
      has_entries = true;
    }
  }
  return has_entries ? NodeClass::kLeaf : NodeClass::kEmpty;
}

void PhtCursor::OnReply(const std::string& prefix, Status s,
                        std::vector<dht::DhtItem> items) {
  if (finished_) return;
  auto it = inflight_.find(prefix);
  if (it == inflight_.end()) return;
  Probe probe = std::move(it->second);
  inflight_.erase(it);
  if (!s.ok()) {
    Finish(Outcome::kError, std::move(s));
    return;
  }
  cur_round_ = probe.round;
  if (gen_waiting_ && probe.range && probe.node.depth == gen_depth_ &&
      probe.node.first == gen_wait_first_) {
    // The lone prefix after a jump replied. A leaf or an internal node
    // refills the window; an empty one opens a search that holds it.
    gen_waiting_ = false;
  }
  NodeClass cls = Classify(items);
  switch (cls) {
    case NodeClass::kInternal:
      saw_trie_state_ = true;
      known_internal_.insert(prefix);
      // Internal nodes can hold residual entries: moves awaiting (or
      // denied) their child ack during a partition, or failover ghosts.
      // Reading them is what makes "no key lost across a split" hold under
      // arbitrary fault timing; the instance dedup keeps exactness.
      Emit(items);
      break;
    case NodeClass::kLeaf:
      saw_trie_state_ = true;
      if (!Covered(probe.node.first, probe.node.last())) {
        ++stats_.leaves;
        Cover(probe.node);
        if (gen_depth_ < 0) {
          // The leaf covering `lo`: the window walks its depth.
          gen_depth_ = probe.node.depth;
          uint64_t last = probe.node.last();
          gen_done_ = last >= hi_;
          gen_next_ = last + 1;
        }
        Emit(items);
      }
      break;
    case NodeClass::kEmpty:
      known_empty_.insert(prefix);
      break;
  }
  if (finished_) return;
  if (probe.range) OnRange(probe.node, cls);
  if (finished_) return;
  for (size_t s : probe.searches) ready_searches_.push_back(s);
  Pump();
}

void PhtCursor::OnRange(const Node& node, NodeClass cls) {
  switch (cls) {
    case NodeClass::kLeaf:
      return;
    case NodeClass::kInternal: {
      if (node.depth >= kKeyBits) {
        Finish(Outcome::kError,
               Status::Corruption("pht internal node at max depth"));
        return;
      }
      for (uint64_t bit : {0ull, 1ull}) {
        Node child{node.first | (bit << (kKeyBits - 1 - node.depth)),
                   node.depth + 1};
        if (child.first <= hi_ && child.last() >= lo_) {
          children_.push_back(child);
        }
      }
      return;
    }
    case NodeClass::kEmpty: {
      if (Covered(node.first, node.last())) return;  // a search got there
      // Splits materialize both children: an empty child of a node known
      // to be internal is lost trie state, not an empty region.
      if (known_internal_.count(Prefix(node.first, node.depth - 1)) > 0) {
        Finish(Outcome::kError,
               Status::Unavailable("pht internal node lost a child (churn)"));
        return;
      }
      // A shallower leaf covers this prefix: search the depths above it.
      searches_.push_back(Search{node.first, node.last(), 0, node.depth - 1});
      ready_searches_.push_back(searches_.size() - 1);
      return;
    }
  }
}

bool PhtCursor::NextGenerated(Node* out) {
  while (gen_depth_ >= 0 && !gen_done_ && !gen_waiting_) {
    Node node{gen_next_, gen_depth_};
    // An open search's leaf lies under prefix(first, lo_depth) and may
    // cover this prefix too: hold the generator until it settles rather
    // than fetch prefixes that are likely empty.
    for (const Search& se : searches_) {
      if (se.open && node.first <= (se.first | ~Mask(se.lo_depth))) {
        return false;
      }
    }
    uint64_t last = node.last();
    // A found leaf covering this prefix covers a whole aligned run of
    // depth-d prefixes: jump past its range instead of stepping through.
    auto it = covered_.upper_bound(node.first);
    bool covered = it != covered_.begin() && std::prev(it)->second >= last;
    if (covered) {
      // A range wider than one depth-d prefix is a shallower leaf.
      if (std::prev(it)->second > last) gen_solo_ = true;
      last = std::prev(it)->second;
    }
    gen_done_ = last >= hi_;
    gen_next_ = last + 1;
    if (!covered) {
      if (gen_solo_) {
        gen_solo_ = false;
        gen_waiting_ = true;
        gen_wait_first_ = node.first;
      }
      *out = node;
      return true;
    }
  }
  return false;
}

void PhtCursor::Emit(const std::vector<dht::DhtItem>& items) {
  for (const dht::DhtItem& item : items) {
    if (item.key.instance == kMarkerInstance) continue;
    PhtEntry entry;
    Reader r(item.value);
    if (!PhtEntry::Deserialize(&r, &entry).ok()) continue;
    ++stats_.entries_seen;
    if (entry.key < lo_ || entry.key > hi_) continue;
    if (!emitted_instances_.insert(item.key.instance).second) continue;
    ++stats_.entries_emitted;
    if (!row_(entry)) {
      Finish(Outcome::kOk, Status::OK());
      return;
    }
  }
}

bool PhtCursor::Covered(uint64_t first, uint64_t last) const {
  auto it = covered_.upper_bound(first);
  return it != covered_.begin() && std::prev(it)->second >= last;
}

void PhtCursor::Cover(const Node& leaf) {
  // Prefix ranges nest or are disjoint: a new range either sits inside a
  // kept one (Covered) or encloses every kept range starting within it.
  uint64_t last = leaf.last();
  auto it = covered_.lower_bound(leaf.first);
  while (it != covered_.end() && it->first <= last) it = covered_.erase(it);
  covered_[leaf.first] = last;
}

void PhtCursor::Finish(Outcome outcome, Status s) {
  if (finished_) return;
  finished_ = true;
  if (done_) done_(outcome, std::move(s));
}

}  // namespace index
}  // namespace pier
