#include "index/pht.h"

#include <iterator>

#include "common/backoff.h"

namespace pier {
namespace index {

// ---------------------------------------------------------------------------
// Wire records
// ---------------------------------------------------------------------------

namespace {
// Marker wire tags. A one-byte record keeps trie metadata cheap to renew.
constexpr uint8_t kTagLeaf = 1;
constexpr uint8_t kTagInternal = 2;
}  // namespace

void PhtNodeRecord::Serialize(Writer* w) const {
  w->PutU8(internal ? kTagInternal : kTagLeaf);
}

Status PhtNodeRecord::Deserialize(Reader* r, PhtNodeRecord* out) {
  uint8_t tag = 0;
  PIER_RETURN_IF_ERROR(r->GetU8(&tag));
  if (tag != kTagLeaf && tag != kTagInternal) {
    return Status::Corruption("bad pht marker tag");
  }
  out->internal = tag == kTagInternal;
  return Status::OK();
}

void PhtEntry::Serialize(Writer* w) const {
  w->PutFixed64(key);
  w->PutString(tuple_bytes);
}

Status PhtEntry::Deserialize(Reader* r, PhtEntry* out) {
  PIER_RETURN_IF_ERROR(r->GetFixed64(&out->key));
  return r->GetString(&out->tuple_bytes);
}

// ---------------------------------------------------------------------------
// PhtIndex
// ---------------------------------------------------------------------------

namespace {

bool ValidPrefix(const std::string& p) {
  if (p.size() > static_cast<size_t>(kKeyBits)) return false;
  for (char c : p) {
    if (c != '0' && c != '1') return false;
  }
  return true;
}

std::string MarkerBytes(bool internal) {
  Writer w;
  PhtNodeRecord rec;
  rec.internal = internal;
  rec.Serialize(&w);
  return w.Release();
}

}  // namespace

std::string PhtIndex::NamespaceFor(const std::string& table, int col) {
  return "#idx." + table + "." + std::to_string(col);
}

PhtIndex::PhtIndex(dht::Dht* dht, sim::Simulation* sim, std::string ns,
                   PhtOptions options)
    : dht_(dht), sim_(sim), ns_(std::move(ns)), options_(options) {
  dht_->SubscribeArrivals(ns_, [this](const dht::StoredItem& item) {
    return OnArrival(item);
  });
  // Markers replicated here seed cursor locates as well as owned ones.
  dht_->ObserveReplicas(ns_, [this](const dht::StoredItem& item) {
    if (item.key.instance != kMarkerInstance ||
        !ValidPrefix(item.key.resource)) {
      return;
    }
    Reader r(item.value);
    PhtNodeRecord rec;
    if (PhtNodeRecord::Deserialize(&r, &rec).ok()) {
      NoteMarker(item.key.resource, rec.internal);
    }
  });
  // Deterministic (node, namespace) phase/period spread: without it every
  // node booted at t=0 fires its sweep on the same tick, and the repair
  // traffic arrives in synchronized bursts.
  uint64_t salt = MixHash64(HashBytes(ns_) ^
                            (static_cast<uint64_t>(dht_->self()) << 32));
  auto jittered = [&](Duration base, uint64_t lane) {
    double j = options_.repair_jitter;
    if (j <= 0) return base;
    uint64_t h = MixHash64(salt ^ (lane << 56));
    double f = 1.0 + j * (2.0 * (static_cast<double>(h >> 11) /
                                 static_cast<double>(1ull << 53)) -
                          1.0);
    Duration d = static_cast<Duration>(static_cast<double>(base) * f);
    return d < Millis(1) ? Millis(1) : d;
  };
  repair_task_.Start(sim_, jittered(options_.repair_interval, 1),
                     jittered(options_.repair_interval, 2),
                     [this] { RepairSweep(); });
  attached_ = true;
}

PhtIndex::~PhtIndex() { Detach(); }

void PhtIndex::Detach() {
  if (attached_) {
    dht_->UnsubscribeArrivals(ns_);
    dht_->ObserveReplicas(ns_, nullptr);
    repair_task_.Stop();
    attached_ = false;
  }
}

void PhtIndex::RepairSweep() {
  // Residuals — entries parked at an internal prefix because their move
  // could not ack (partition, churn) or because a failover resurfaced a
  // replica — are re-driven one level down until they land or expire.
  struct Residual {
    std::string prefix;
    PhtEntry entry;
    Duration ttl;
    uint64_t instance;
  };
  std::vector<Residual> residuals;
  TimePoint now = sim_->now();
  dht_->local_store()->ForEach(ns_, now, [&](const dht::StoredItem& item) {
    if (item.key.instance == kMarkerInstance) return true;
    if (static_cast<int>(item.key.resource.size()) >= kKeyBits) return true;
    if (!LocalMarkerInternal(item.key.resource)) return true;
    PhtEntry e;
    Reader r(item.value);
    if (PhtEntry::Deserialize(&r, &e).ok()) {
      residuals.push_back({item.key.resource, std::move(e),
                           item.expires_at - now, item.key.instance});
    }
    return true;
  });
  for (const Residual& res : residuals) {
    ++stats_.repairs_driven;
    MoveEntryDown(res.prefix, res.entry, res.ttl, res.instance);
  }
}

void PhtIndex::Insert(const PhtEntry& entry, Duration ttl,
                      uint64_t instance) {
  // Descend through the levels this node already knows are internal; the
  // owners forward the rest of the way (and teach us nothing — only splits
  // and forwards we perform ourselves populate the cache, so a node that
  // never owns trie state simply pays the extra forwarding hops).
  std::string prefix;
  while (static_cast<int>(prefix.size()) < kKeyBits &&
         known_internal_.count(prefix) > 0) {
    prefix.push_back(Bit(entry.key, static_cast<int>(prefix.size())) != 0
                         ? '1'
                         : '0');
  }
  ++stats_.inserts;
  PutEntryAt(prefix, entry, ttl, instance);
}

void PhtIndex::PutEntryAt(const std::string& prefix, const PhtEntry& entry,
                          Duration ttl, uint64_t instance) {
  Writer w;
  entry.Serialize(&w);
  dht_->Put(dht::DhtKey{ns_, prefix, instance}, w.Release(), ttl, nullptr);
}

bool PhtIndex::LocalMarkerInternal(const std::string& prefix) const {
  bool internal = false;
  dht_->local_store()->ForEachAt(
      ns_, prefix, sim_->now(), [&](const dht::StoredItem& item) {
        if (item.key.instance != kMarkerInstance) return false;  // sorted
        Reader r(item.value);
        PhtNodeRecord rec;
        if (PhtNodeRecord::Deserialize(&r, &rec).ok()) {
          internal = rec.internal;
        }
        return false;
      });
  return internal;
}

int PhtIndex::LeafDepthNear(uint64_t key) const {
  if (leaves_.empty()) return -1;
  auto after = leaves_.upper_bound(key);
  if (after == leaves_.begin()) return after->second;
  auto at = std::prev(after);
  if (after == leaves_.end()) return at->second;
  // `at` starts at or before `key`: it covers it, or ends left of it.
  int depth = at->second;
  uint64_t last = at->first | (depth == 0 ? ~0ull : ~0ull >> depth);
  if (key <= last || key - last <= after->first - key) return depth;
  return after->second;
}

void PhtIndex::NoteMarker(const std::string& prefix, bool internal) {
  uint64_t first = PrefixFirstKey(prefix);
  int depth = static_cast<int>(prefix.size());
  if (!internal) {
    leaves_[first] = depth;
    return;
  }
  auto it = leaves_.find(first);
  if (it != leaves_.end() && it->second == depth) leaves_.erase(it);
}

void PhtIndex::TouchMarker(const std::string& prefix, bool internal) {
  NoteMarker(prefix, internal);
  dht::StoredItem marker;
  marker.key = dht::DhtKey{ns_, prefix, kMarkerInstance};
  marker.value = MarkerBytes(internal);
  marker.expires_at = sim_->now() + options_.marker_ttl;
  marker.stored_at = sim_->now();
  marker.replica = false;
  dht_->local_store()->Put(std::move(marker));
}

bool PhtIndex::OnArrival(const dht::StoredItem& item) {
  const std::string& prefix = item.key.resource;
  if (!ValidPrefix(prefix)) return true;  // alien resource: store inertly
  if (item.key.instance == kMarkerInstance) {
    Reader r(item.value);
    PhtNodeRecord rec;
    if (!PhtNodeRecord::Deserialize(&r, &rec).ok()) return false;
    if (rec.internal) {
      known_internal_.insert(prefix);
    } else if (LocalMarkerInternal(prefix)) {
      // A split's child-leaf marker racing this node's own later split:
      // the owner's internal transition is authoritative, a stale leaf
      // marker must not downgrade it and orphan the subtree.
      return false;
    }
    NoteMarker(prefix, rec.internal);
    return true;
  }

  PhtEntry entry;
  {
    Reader r(item.value);
    if (!PhtEntry::Deserialize(&r, &entry).ok()) return false;  // drop junk
  }
  const int depth = static_cast<int>(prefix.size());

  if (depth < kKeyBits && LocalMarkerInternal(prefix)) {
    // Past an interior node: relay one level toward the key's leaf. The
    // marker refresh is what keeps a live trie's shape from expiring. The
    // relay is acked — if the child's owner is unreachable the entry comes
    // back as a residual here instead of vanishing into the cut.
    TouchMarker(prefix, /*internal=*/true);
    known_internal_.insert(prefix);
    Duration ttl = item.expires_at - sim_->now();
    if (ttl > 0) {
      MoveEntryDown(prefix, entry, ttl, item.key.instance);
      ++stats_.entries_forwarded;
    }
    return false;  // consumed: never stored (or replicated) here
  }

  // Leaf (or max-depth bucket, which never splits: keys with identical
  // 64-bit encodings must be allowed to exceed the threshold). A renewal —
  // an instance already stored here — replaces its copy in place and must
  // not count as growth, or every full leaf would split on its next
  // soft-state refresh.
  bool renewal = false;
  size_t occupancy = 1;  // the arriving entry
  dht_->local_store()->ForEachAt(ns_, prefix, sim_->now(),
                                 [&](const dht::StoredItem& stored) {
                                   if (stored.key.instance ==
                                       kMarkerInstance) {
                                     return true;
                                   }
                                   renewal |= stored.key.instance ==
                                              item.key.instance;
                                   ++occupancy;
                                   return true;
                                 });
  if (renewal) --occupancy;
  if (depth < kKeyBits &&
      occupancy > static_cast<size_t>(options_.bucket_size)) {
    Split(prefix, item);
    return false;  // incoming entry re-routed by the split
  }
  TouchMarker(prefix, /*internal=*/false);
  ++stats_.entries_stored;
  return true;
}

void PhtIndex::Split(const std::string& prefix,
                     const dht::StoredItem& incoming) {
  ++stats_.splits;
  known_internal_.insert(prefix);
  // Immediate local transition so every subsequent arrival forwards, then a
  // routed self-put so the internal marker is replicated like any item.
  TouchMarker(prefix, /*internal=*/true);
  dht_->Put(dht::DhtKey{ns_, prefix, kMarkerInstance},
            MarkerBytes(/*internal=*/true), options_.marker_ttl, nullptr);
  // Materialize BOTH children: every internal node's children exist (as
  // leaf markers at their owners, possibly with zero entries). This is the
  // trie-consistency signal cursors rely on — a probe finding NOTHING
  // directly below an internal node means the trie lost state mid-churn,
  // and the query layer falls back to a broadcast scan instead of
  // mistaking the damage for an empty region.
  for (char bit : {'0', '1'}) {
    std::string child = prefix;
    child.push_back(bit);
    dht_->Put(dht::DhtKey{ns_, child, kMarkerInstance},
              MarkerBytes(/*internal=*/false), options_.marker_ttl, nullptr);
  }

  // Materialize the bucket before issuing moves: the re-puts below can loop
  // back into OnArrival and must not race a live iteration. Parent copies
  // stay in the store until each move acks (MoveEntryDown).
  struct Moved {
    PhtEntry entry;
    Duration ttl;
    uint64_t instance;
  };
  std::vector<Moved> bucket;
  TimePoint now = sim_->now();
  dht_->local_store()->ForEachAt(
      ns_, prefix, now, [&](const dht::StoredItem& item) {
        if (item.key.instance == kMarkerInstance) return true;
        PhtEntry e;
        Reader r(item.value);
        if (PhtEntry::Deserialize(&r, &e).ok() && item.expires_at > now) {
          bucket.push_back({std::move(e), item.expires_at - now,
                            item.key.instance});
        }
        return true;
      });
  {
    // The overflow-triggering arrival was consumed (never stored), so a
    // failed move RESTORES it at the parent rather than erasing it.
    PhtEntry e;
    Reader r(incoming.value);
    if (PhtEntry::Deserialize(&r, &e).ok() &&
        incoming.expires_at > now) {
      std::string parent = prefix;
      Duration ttl = incoming.expires_at - now;
      uint64_t instance = incoming.key.instance;
      RestoreAtParent(parent, e, ttl, instance);
      bucket.push_back({std::move(e), ttl, instance});
    }
  }
  for (const Moved& m : bucket) {
    MoveEntryDown(prefix, m.entry, m.ttl, m.instance);
    ++stats_.split_moves;
  }
}

void PhtIndex::MoveEntryDown(const std::string& parent,
                             const PhtEntry& entry, Duration ttl,
                             uint64_t instance) {
  std::string child = parent;
  child.push_back(Bit(entry.key, static_cast<int>(parent.size())) != 0
                      ? '1'
                      : '0');
  Writer w;
  entry.Serialize(&w);
  PhtEntry keep = entry;
  dht_->Put(dht::DhtKey{ns_, child, instance}, w.Release(), ttl,
            [this, parent, keep, ttl, instance](Status s) {
              if (s.ok()) {
                ++stats_.moves_acked;
                dht_->local_store()->Erase(ns_, parent, instance);
              } else {
                // Unreachable child (partition, churn): keep the parent
                // copy readable — cursors visit internal-node residuals.
                ++stats_.moves_failed;
                RestoreAtParent(parent, keep, ttl, instance);
              }
            });
}

void PhtIndex::RestoreAtParent(const std::string& parent,
                               const PhtEntry& entry, Duration ttl,
                               uint64_t instance) {
  if (ttl <= 0) return;
  dht::StoredItem item;
  item.key = dht::DhtKey{ns_, parent, instance};
  Writer w;
  entry.Serialize(&w);
  item.value = w.Release();
  item.expires_at = sim_->now() + ttl;
  item.stored_at = sim_->now();
  item.replica = false;
  dht_->local_store()->Put(std::move(item));
}

}  // namespace index
}  // namespace pier
