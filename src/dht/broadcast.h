// BroadcastService: O(log n)-depth dissemination trees over the overlay.
//
// PIER pushes query plans to every node ("query dissemination") and needs
// namespace-wide scans to start everywhere. The algorithm is the classic
// interval-partitioned DHT broadcast: a node responsible for the ring
// interval (self, limit) splits it among its routing neighbors, giving each
// neighbor the sub-interval up to the next neighbor. Every node is reached
// once on a stabilized ring; duplicates arising from imperfect neighbor
// views are suppressed by a seen-cache.
//
// The tree is success-tolerant: every tree edge is acked and retransmitted
// with jittered backoff (a lost kPlan/kCancel never silently excludes a
// subtree), and a "cover wave" flows back up the tree — each node reports
// its subtree's delivered-node count and a complete flag once all children
// have covered or conclusively failed. The origin's
// coverage callback is how the query engine learns members_expected /
// coverage_complete for its Completeness accounting.

#ifndef PIER_DHT_BROADCAST_H_
#define PIER_DHT_BROADCAST_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "overlay/router.h"
#include "overlay/transport.h"
#include "sim/event_queue.h"

namespace pier {
namespace dht {

struct BroadcastOptions {
  /// First retransmit after this long; exponential backoff (x2) up to
  /// ack_max, jittered +/-25% per attempt (deterministic hash jitter).
  Duration ack_timeout = Millis(400);
  Duration ack_max = Seconds(2);
  /// Send attempts per edge (and per cover report) before giving up.
  int retries = 6;
  /// A relay forces its cover upward after this long even if some children
  /// never covered (they are marked failed; the wave reports incomplete).
  Duration cover_timeout = Seconds(6);
};

struct BroadcastStats {
  uint64_t initiated = 0;
  uint64_t delivered = 0;   ///< local deliveries (once per broadcast)
  uint64_t forwarded = 0;   ///< first sends downstream
  uint64_t duplicates = 0;  ///< suppressed re-deliveries
  uint64_t retransmits = 0; ///< data + cover retry sends
  uint64_t acks_received = 0;
  uint64_t covers_received = 0;
  uint64_t edges_failed = 0;  ///< edges abandoned after the retry budget
  int max_depth_seen = 0;
};

/// Per-node broadcast component; registers for Proto::kBroadcast.
class BroadcastService {
 public:
  /// Delivery upcall: `origin` initiated broadcast `seq`; `parent` is the
  /// node that forwarded it to us (self at the origin) — the edge of the
  /// dissemination tree, which aggregation re-uses in reverse; `depth` is
  /// the tree depth at this node. The payload is the origin's buffer,
  /// shared (not copied) across the whole tree.
  using Handler =
      std::function<void(sim::HostId origin, uint64_t seq, sim::HostId parent,
                         int depth, const sim::Payload& payload)>;
  /// Cover-wave upcall at the origin: broadcast `seq` reached `members`
  /// nodes (self included); `complete` means every subtree reported in —
  /// no edge was abandoned and no cover was forced by timeout.
  using CoverageFn =
      std::function<void(uint64_t seq, uint64_t members, bool complete)>;

  BroadcastService(overlay::Transport* transport, overlay::Router* router,
                   BroadcastOptions options = BroadcastOptions());
  ~BroadcastService();

  void SetHandler(Handler handler) { handler_ = std::move(handler); }
  void SetCoverageHandler(CoverageFn fn) { coverage_fn_ = std::move(fn); }

  /// Disseminates `payload` to every reachable node, including this one.
  /// The payload is serialized exactly once (by the caller); every relay
  /// hop re-frames only the small tree header. Returns the broadcast
  /// sequence number.
  uint64_t Broadcast(sim::Payload payload);

  void Start() { running_ = true; }
  void Stop() { running_ = false; }

  const BroadcastStats& stats() const { return stats_; }
  const BroadcastOptions& options() const { return options_; }

 private:
  /// Leading kind byte of every Proto::kBroadcast frame.
  enum Kind : uint8_t { kData = 1, kAck = 2, kCover = 3 };
  enum AckWhat : uint8_t { kAckData = 1, kAckCover = 2 };

  /// One downstream edge of a relayed broadcast.
  struct ChildEdge {
    sim::HostId host = 0;
    Id160 sub_limit;
    int depth = 0;
    int attempts = 0;
    bool acked = false;
    bool covered = false;
    bool failed = false;
    uint64_t cover_count = 0;
    bool cover_complete = true;
  };
  /// Per-(origin, seq) relay bookkeeping while the wave is in flight.
  struct RelayState {
    sim::HostId parent = 0;
    bool is_origin = false;
    sim::Payload payload;
    std::vector<ChildEdge> children;
    bool cover_sent = false;
    bool cover_acked = false;
    int cover_attempts = 0;
    uint64_t cover_count = 0;
    bool cover_complete = true;
    TimePoint expires = 0;
  };
  using RelayKey = std::pair<sim::HostId, uint64_t>;

  void OnMessage(sim::HostId from, Reader* r, const sim::Payload& body);
  void OnData(sim::HostId from, Reader* r, const sim::Payload& body);
  void OnAck(sim::HostId from, Reader* r);
  void OnCover(sim::HostId from, Reader* r);
  /// Forwards into (self, limit), splitting among neighbors, and records
  /// each edge in `state` for ack tracking.
  void Relay(RelayState& state, sim::HostId origin, uint64_t seq,
             const Id160& limit, int depth, const sim::Payload& payload);
  void SendDataEdge(sim::HostId origin, uint64_t seq, ChildEdge* edge,
                    const sim::Payload& payload);
  void ScheduleEdgeRetry(sim::HostId origin, uint64_t seq, sim::HostId child);
  void SendCoverOnce(sim::HostId origin, uint64_t seq, RelayState* state);
  void ScheduleCoverRetry(sim::HostId origin, uint64_t seq);
  void SendAck(sim::HostId to, sim::HostId origin, uint64_t seq,
               AckWhat what);
  /// Fires the cover (or the origin callback) once every child has either
  /// covered or conclusively failed.
  void MaybeFinishCover(sim::HostId origin, uint64_t seq, RelayState* state);
  void ArmCoverDeadline(sim::HostId origin, uint64_t seq);
  RelayState* FindRelay(sim::HostId origin, uint64_t seq);
  void Deliver(sim::HostId origin, uint64_t seq, sim::HostId parent,
               int depth, const sim::Payload& payload);
  bool AlreadySeen(sim::HostId origin, uint64_t seq);
  sim::TimerId ScheduleTimer(Duration delay, std::function<void()> fn);

  overlay::Transport* transport_;
  overlay::Router* router_;
  BroadcastOptions options_;
  Handler handler_;
  CoverageFn coverage_fn_;
  bool running_ = true;
  uint64_t next_seq_ = 1;
  /// (origin, seq) -> expiry of the dedup entry.
  std::map<RelayKey, TimePoint> seen_;
  std::map<RelayKey, RelayState> relays_;
  std::vector<sim::TimerId> timers_;
  BroadcastStats stats_;

  static constexpr int kMaxDepth = 64;
  static constexpr Duration kSeenTtl = Seconds(120);
};

}  // namespace dht
}  // namespace pier

#endif  // PIER_DHT_BROADCAST_H_
