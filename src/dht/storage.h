// Dht: the node-level storage API PIER runs on — asynchronous Put/Get/Renew
// against the ring plus local scans, with soft-state TTLs, bounded retries,
// and successor replication.
//
// Writes and reads are routed to the key's owner via the overlay Router;
// acks and responses return directly to the requester (one hop). Everything
// is idempotent so retries after loss or churn are safe.

#ifndef PIER_DHT_STORAGE_H_
#define PIER_DHT_STORAGE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dht/key.h"
#include "dht/local_store.h"
#include "overlay/router.h"
#include "overlay/rpc.h"
#include "overlay/transport.h"
#include "sim/event_queue.h"

namespace pier {
namespace dht {

/// Route-mux app tags owned by the DHT layer.
inline constexpr uint8_t kPutTag = 1;
inline constexpr uint8_t kGetTag = 2;

/// One item in a Get response.
struct DhtItem {
  DhtKey key;
  std::string value;
};

struct DhtOptions {
  /// Lifetime applied when the caller does not specify one.
  Duration default_ttl = Seconds(120);
  /// Extra copies pushed to ring successors (0 = owner only).
  int replicas = 1;
  /// Acked-put retry policy.
  Duration put_timeout = Seconds(2);
  int put_retries = 2;
  /// Get retry policy.
  Duration get_timeout = Seconds(2);
  int get_retries = 2;
  /// Expired-item reclamation period.
  Duration sweep_interval = Seconds(5);
};

struct DhtStats {
  uint64_t puts_sent = 0;
  uint64_t puts_acked = 0;
  uint64_t put_retries = 0;
  uint64_t put_failures = 0;
  uint64_t gets_sent = 0;
  uint64_t gets_ok = 0;
  uint64_t get_retries = 0;
  uint64_t get_failures = 0;
  uint64_t store_requests = 0;   ///< puts arriving at this node as owner
  uint64_t serve_requests = 0;   ///< gets served by this node as owner
  uint64_t replicas_pushed = 0;
  uint64_t replicas_received = 0;
  uint64_t items_swept = 0;
};

/// Per-node DHT component.
class Dht {
 public:
  using PutCallback = std::function<void(Status)>;
  using GetCallback = std::function<void(Status, std::vector<DhtItem>)>;

  /// `transport`, `router`, and `mux` must outlive this object. Registers
  /// handlers for Proto::kDht and the kPutTag/kGetTag route tags.
  Dht(overlay::Transport* transport, overlay::Router* router,
      overlay::RouteMux* mux, DhtOptions options);

  /// Starts the sweep timer.
  void Start();
  /// Stops timers and outstanding requests (node shutdown/crash).
  void Stop();

  /// Stores `value` under `key` for `ttl` (default_ttl when ttl==0).
  /// `done` may be null for fire-and-forget; when set, the put is acked by
  /// the owner and retried on timeout.
  void Put(const DhtKey& key, std::string value, Duration ttl,
           PutCallback done);

  /// Put with per-item replication control. Query-temporary tuples
  /// (rehashed join state) skip replication: they are cheap to recreate and
  /// expire within the query anyway.
  void PutEx(const DhtKey& key, std::string value, Duration ttl,
             bool replicate, PutCallback done);

  /// Registers `fn` to observe every item arriving at THIS node as owner
  /// under `ns` (owner-routed puts only, not replica pushes). This is how
  /// dataflow operators at a rendezvous node consume rehashed tuples as
  /// they arrive, and how the PHT index runs its owner-side split/forward
  /// protocol. The subscriber returns true to store the item normally;
  /// returning false CONSUMES it — the item is neither stored nor
  /// replicated here (it was relayed elsewhere or dropped), though the
  /// publisher's ack still fires: consumption is an ownership decision,
  /// not a failure. One subscriber per namespace; re-subscribing replaces.
  using ArrivalFn = std::function<bool(const StoredItem&)>;
  void SubscribeArrivals(const std::string& ns, ArrivalFn fn);
  void UnsubscribeArrivals(const std::string& ns);

  /// Registers `fn` to observe every replica copy pushed to THIS node under
  /// `ns` as it is stored; an observer cannot refuse a copy. The PHT
  /// index learns the trie markers it holds as a replica this way. One
  /// observer per namespace; an empty `fn` removes it.
  using ReplicaFn = std::function<void(const StoredItem&)>;
  void ObserveReplicas(const std::string& ns, ReplicaFn fn);

  /// Re-publishes (identical to Put; renewal is just an idempotent re-put
  /// that extends the expiry — the soft-state heartbeat).
  void Renew(const DhtKey& key, std::string value, Duration ttl,
             PutCallback done) {
    Put(key, std::move(value), ttl, std::move(done));
  }

  /// Fetches all live instances under (ns, resource) from the owner.
  void Get(const std::string& ns, const std::string& resource,
           GetCallback cb);

  /// PIER's "lscan": visits this node's local slice of a namespace in
  /// place (no value copies); `fn(const StoredItem&)` returns false to
  /// stop early. The hot path for every ScanStage pass and join catch-up.
  template <typename Fn>
  void ForEachLocal(std::string_view ns, Fn&& fn) const {
    store_.ForEach(ns, sim_->now(), std::forward<Fn>(fn));
  }

  /// Visits this node's *readable* slice: primary copies always, replica
  /// copies only when this node has become responsible for their key — the
  /// scan-side replica failover matching OnRoutedGet's "after a failover,
  /// the replicas are the surviving data". A replica whose owner is alive
  /// is skipped (the owner reports it), so nothing double-counts on a
  /// converged ring.
  template <typename Fn>
  void ForEachLocalReadable(std::string_view ns, Fn&& fn) const {
    store_.ForEach(ns, sim_->now(), [&](const StoredItem& item) {
      if (item.replica &&
          !router_->IsResponsibleFor(item.key.RoutingKey())) {
        return true;
      }
      return fn(item);
    });
  }

  /// Copying variant of the local scan (tests, diagnostics).
  std::vector<StoredItem> LocalScan(std::string_view ns) const {
    return store_.Scan(ns, sim_->now());
  }

  /// Direct access for operators colocated with the store.
  LocalStore* local_store() { return &store_; }
  const LocalStore& local_store() const { return store_; }

  const DhtStats& stats() const { return stats_; }
  DhtOptions* mutable_options() { return &options_; }
  sim::HostId self() const { return transport_->self(); }

 private:
  // Direct (non-routed) message types under Proto::kDht.
  enum class MsgType : uint8_t {
    kPutAck = 1,
    kGetResp = 2,
    kReplicate = 3,
  };

  void OnRoutedPut(const overlay::RoutedMessage& m);
  void OnRoutedGet(const overlay::RoutedMessage& m);
  void OnDirect(sim::HostId from, Reader* r);
  void SendPutOnce(const DhtKey& key, const std::string& value, Duration ttl,
                   bool replicate, PutCallback done, int attempt);
  void SendGetOnce(const std::string& ns, const std::string& resource,
                   GetCallback cb, int attempt);
  void ReplicateOut(const StoredItem& item);

  overlay::Transport* transport_;
  overlay::Router* router_;
  sim::Simulation* sim_;
  DhtOptions options_;
  LocalStore store_;
  overlay::RpcManager rpc_;
  sim::PeriodicTask sweep_task_;
  bool running_ = false;
  DhtStats stats_;
  std::unordered_map<std::string, ArrivalFn> arrival_subscribers_;
  std::unordered_map<std::string, ReplicaFn> replica_observers_;
};

/// Keeps a set of items alive by re-putting them every ttl/2 — the
/// publisher side of soft state. Base tables (file indexes, node stats)
/// stay in the DHT only while their publisher keeps renewing.
class RenewingPublisher {
 public:
  RenewingPublisher(Dht* dht, sim::Simulation* sim, Duration ttl);

  /// Adds/updates an item under management and puts it immediately.
  void Publish(const DhtKey& key, std::string value);
  /// Stops renewing (item will expire within one TTL).
  void Withdraw(const DhtKey& key);
  void Start();
  void Stop();
  size_t item_count() const { return items_.size(); }

 private:
  void RenewAll();

  Dht* dht_;
  sim::Simulation* sim_;
  Duration ttl_;
  std::vector<std::pair<DhtKey, std::string>> items_;
  sim::PeriodicTask renew_task_;
};

}  // namespace dht
}  // namespace pier

#endif  // PIER_DHT_STORAGE_H_
