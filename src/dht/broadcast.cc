#include "dht/broadcast.h"

#include <algorithm>
#include <vector>

#include "common/backoff.h"

namespace pier {
namespace dht {

BroadcastService::BroadcastService(overlay::Transport* transport,
                                   overlay::Router* router,
                                   BroadcastOptions options)
    : transport_(transport), router_(router), options_(options) {
  transport_->RegisterHandler(
      overlay::Proto::kBroadcast,
      [this](sim::HostId from, Reader* r, const sim::Payload& body) {
        OnMessage(from, r, body);
      });
}

BroadcastService::~BroadcastService() {
  running_ = false;
  for (sim::TimerId id : timers_) transport_->simulation()->Cancel(id);
}

sim::TimerId BroadcastService::ScheduleTimer(Duration delay,
                                             std::function<void()> fn) {
  sim::TimerId id = transport_->simulation()->ScheduleAfter(
      delay, [this, fn = std::move(fn)] {
        if (!running_) return;
        fn();
      });
  timers_.push_back(id);
  return id;
}

uint64_t BroadcastService::Broadcast(sim::Payload payload) {
  if (!running_) return 0;
  uint64_t seq = next_seq_++;
  ++stats_.initiated;
  sim::HostId self = transport_->self();
  AlreadySeen(self, seq);  // mark, so loops back to us are suppressed
  Deliver(self, seq, /*parent=*/self, 0, payload);
  RelayState& state = relays_[{self, seq}];
  state.parent = self;
  state.is_origin = true;
  state.payload = payload;
  state.expires = transport_->simulation()->now() + kSeenTtl;
  // Whole ring: limit == own id (the interval (self, self) wraps all the
  // way around).
  Relay(state, self, seq, router_->self().id, 0, payload);
  ArmCoverDeadline(self, seq);
  MaybeFinishCover(self, seq, &state);  // leaf origin: fire immediately
  return seq;
}

void BroadcastService::Relay(RelayState& state, sim::HostId origin,
                             uint64_t seq, const Id160& limit, int depth,
                             const sim::Payload& payload) {
  if (depth >= kMaxDepth) return;
  const Id160 self_id = router_->self().id;
  std::vector<overlay::NodeInfo> neighbors = router_->RoutingNeighbors();
  // Keep only neighbors strictly inside (self, limit), sorted clockwise.
  std::vector<overlay::NodeInfo> in_range;
  for (const auto& n : neighbors) {
    if (limit == self_id || n.id.InIntervalOpenOpen(self_id, limit)) {
      in_range.push_back(n);
    }
  }
  std::sort(in_range.begin(), in_range.end(),
            [&](const overlay::NodeInfo& a, const overlay::NodeInfo& b) {
              return self_id.DistanceTo(a.id) < self_id.DistanceTo(b.id);
            });
  in_range.erase(std::unique(in_range.begin(), in_range.end(),
                             [](const overlay::NodeInfo& a,
                                const overlay::NodeInfo& b) {
                               return a.host == b.host;
                             }),
                 in_range.end());
  for (size_t i = 0; i < in_range.size(); ++i) {
    // Neighbor i covers up to the next neighbor (or our limit for the last).
    const Id160& sub_limit =
        (i + 1 < in_range.size()) ? in_range[i + 1].id : limit;
    state.children.emplace_back();
    ChildEdge& edge = state.children.back();
    edge.host = in_range[i].host;
    edge.sub_limit = sub_limit;
    edge.depth = depth + 1;
    SendDataEdge(origin, seq, &edge, payload);
    ScheduleEdgeRetry(origin, seq, edge.host);
  }
}

void BroadcastService::SendDataEdge(sim::HostId origin, uint64_t seq,
                                    ChildEdge* edge,
                                    const sim::Payload& payload) {
  // Only this small tree header is rebuilt per edge; the payload buffer is
  // shared down the entire dissemination tree.
  Writer w;
  w.PutU8(kData);
  w.PutFixed32(origin);
  w.PutVarint64(seq);
  edge->sub_limit.Serialize(&w);
  w.PutVarint32(static_cast<uint32_t>(edge->depth));
  transport_->SendWithBody(edge->host, overlay::Proto::kBroadcast, w, payload);
  if (edge->attempts == 0) {
    ++stats_.forwarded;
  } else {
    ++stats_.retransmits;
  }
  ++edge->attempts;
}

void BroadcastService::ScheduleEdgeRetry(sim::HostId origin, uint64_t seq,
                                         sim::HostId child) {
  RelayState* state = FindRelay(origin, seq);
  if (state == nullptr) return;
  ChildEdge* edge = nullptr;
  for (auto& e : state->children) {
    if (e.host == child) edge = &e;
  }
  if (edge == nullptr) return;
  uint64_t salt = MixHash64(
      (static_cast<uint64_t>(origin) << 32) ^ seq ^
      (static_cast<uint64_t>(child) << 17) ^ transport_->self());
  Duration delay = RetryDelay(options_.ack_timeout, options_.ack_max,
                                     0.25, salt, edge->attempts);
  ScheduleTimer(delay, [this, origin, seq, child] {
    RelayState* s = FindRelay(origin, seq);
    if (s == nullptr || s->cover_sent) return;
    ChildEdge* e = nullptr;
    for (auto& c : s->children) {
      if (c.host == child) e = &c;
    }
    if (e == nullptr || e->acked || e->covered || e->failed) return;
    if (e->attempts >= options_.retries) {
      e->failed = true;
      ++stats_.edges_failed;
      MaybeFinishCover(origin, seq, s);
      return;
    }
    SendDataEdge(origin, seq, e, s->payload);
    ScheduleEdgeRetry(origin, seq, child);
  });
}

void BroadcastService::OnMessage(sim::HostId from, Reader* r,
                                 const sim::Payload& body) {
  uint8_t kind = 0;
  if (!r->GetU8(&kind).ok()) return;
  if (!running_) return;
  switch (static_cast<Kind>(kind)) {
    case kData:
      OnData(from, r, body);
      break;
    case kAck:
      OnAck(from, r);
      break;
    case kCover:
      OnCover(from, r);
      break;
    default:
      break;
  }
}

void BroadcastService::OnData(sim::HostId from, Reader* r,
                              const sim::Payload& body) {
  uint32_t origin = 0, depth = 0;
  uint64_t seq = 0;
  Id160 limit;
  if (!r->GetFixed32(&origin).ok() || !r->GetVarint64(&seq).ok() ||
      !Id160::Deserialize(r, &limit).ok() || !r->GetVarint32(&depth).ok()) {
    return;
  }
  SendAck(from, origin, seq, kAckData);
  if (AlreadySeen(origin, seq)) {
    ++stats_.duplicates;
    // A second parent picked us up. Its subtree count must not double-count
    // ours (the first parent accounts for it), so cover it with zero
    // additional members — delivered, nothing new underneath.
    //
    // Our OWN parent retransmitting (its ack got lost) must NOT get that
    // zero-cover: it is the one accounting for our subtree, and a zero that
    // races ahead of the real cover would erase the subtree from the
    // origin's count while leaving the wave marked complete. The ack above
    // already stops its retries; the real cover has its own retry loop.
    RelayState* state = FindRelay(origin, seq);
    if (state == nullptr || state->parent != from) {
      Writer w;
      w.PutU8(kCover);
      w.PutFixed32(origin);
      w.PutVarint64(seq);
      w.PutVarint64(0);
      w.PutU8(1);
      transport_->Send(from, overlay::Proto::kBroadcast, w);
    }
    return;
  }
  stats_.max_depth_seen =
      std::max(stats_.max_depth_seen, static_cast<int>(depth));
  Deliver(origin, seq, from, static_cast<int>(depth), body);
  RelayState& state = relays_[{origin, seq}];
  state.parent = from;
  state.payload = body;
  state.expires = transport_->simulation()->now() + kSeenTtl;
  Relay(state, origin, seq, limit, static_cast<int>(depth), body);
  ArmCoverDeadline(origin, seq);
  MaybeFinishCover(origin, seq, &state);  // leaf: cover immediately
}

void BroadcastService::OnAck(sim::HostId from, Reader* r) {
  uint32_t origin = 0;
  uint64_t seq = 0;
  uint8_t what = 0;
  if (!r->GetFixed32(&origin).ok() || !r->GetVarint64(&seq).ok() ||
      !r->GetU8(&what).ok()) {
    return;
  }
  RelayState* state = FindRelay(origin, seq);
  if (state == nullptr) return;
  ++stats_.acks_received;
  if (what == kAckCover) {
    state->cover_acked = true;
    return;
  }
  for (auto& e : state->children) {
    if (e.host == from) e.acked = true;
  }
}

void BroadcastService::OnCover(sim::HostId from, Reader* r) {
  uint32_t origin = 0;
  uint64_t seq = 0, count = 0;
  uint8_t complete = 0;
  if (!r->GetFixed32(&origin).ok() || !r->GetVarint64(&seq).ok() ||
      !r->GetVarint64(&count).ok() || !r->GetU8(&complete).ok()) {
    return;
  }
  // Always ack, even when our state is gone — the child keeps retrying
  // otherwise.
  SendAck(from, origin, seq, kAckCover);
  RelayState* state = FindRelay(origin, seq);
  if (state == nullptr) return;
  for (auto& e : state->children) {
    if (e.host == from && !e.covered) {
      e.covered = true;
      e.cover_count = count;
      e.cover_complete = complete != 0;
      ++stats_.covers_received;
    }
  }
  MaybeFinishCover(origin, seq, state);
}

void BroadcastService::SendAck(sim::HostId to, sim::HostId origin,
                               uint64_t seq, AckWhat what) {
  Writer w;
  w.PutU8(kAck);
  w.PutFixed32(origin);
  w.PutVarint64(seq);
  w.PutU8(static_cast<uint8_t>(what));
  transport_->Send(to, overlay::Proto::kBroadcast, w);
}

void BroadcastService::MaybeFinishCover(sim::HostId origin, uint64_t seq,
                                        RelayState* state) {
  if (state->cover_sent) return;
  uint64_t count = 1;  // self
  bool complete = true;
  for (const auto& e : state->children) {
    if (!e.covered && !e.failed) return;  // still waiting
    if (e.covered) {
      count += e.cover_count;
      complete = complete && e.cover_complete;
    } else {
      complete = false;
    }
  }
  state->cover_sent = true;
  state->cover_count = count;
  state->cover_complete = complete;
  if (state->is_origin) {
    // Deferred a tick: a childless origin finishes its cover synchronously
    // inside Broadcast(), and the caller registers interest in `seq` only
    // after Broadcast returns it.
    if (coverage_fn_) {
      ScheduleTimer(0, [this, seq, count, complete] {
        if (coverage_fn_) coverage_fn_(seq, count, complete);
      });
    }
    return;
  }
  SendCoverOnce(origin, seq, state);
  ScheduleCoverRetry(origin, seq);
}

void BroadcastService::SendCoverOnce(sim::HostId origin, uint64_t seq,
                                     RelayState* state) {
  Writer w;
  w.PutU8(kCover);
  w.PutFixed32(origin);
  w.PutVarint64(seq);
  w.PutVarint64(state->cover_count);
  w.PutU8(state->cover_complete ? 1 : 0);
  transport_->Send(state->parent, overlay::Proto::kBroadcast, w);
  if (state->cover_attempts > 0) ++stats_.retransmits;
  ++state->cover_attempts;
}

void BroadcastService::ScheduleCoverRetry(sim::HostId origin, uint64_t seq) {
  RelayState* state = FindRelay(origin, seq);
  if (state == nullptr) return;
  uint64_t salt = MixHash64((static_cast<uint64_t>(origin) << 32) ^
                                   seq ^ (~0u - transport_->self()));
  Duration delay = RetryDelay(options_.ack_timeout, options_.ack_max,
                                     0.25, salt, state->cover_attempts);
  ScheduleTimer(delay, [this, origin, seq] {
    RelayState* s = FindRelay(origin, seq);
    if (s == nullptr || s->cover_acked) return;
    if (s->cover_attempts >= options_.retries) return;  // give up quietly
    SendCoverOnce(origin, seq, s);
    ScheduleCoverRetry(origin, seq);
  });
}

void BroadcastService::ArmCoverDeadline(sim::HostId origin, uint64_t seq) {
  ScheduleTimer(options_.cover_timeout, [this, origin, seq] {
    RelayState* s = FindRelay(origin, seq);
    if (s == nullptr || s->cover_sent) return;
    // Children that never covered are abandoned; the wave goes up marked
    // incomplete rather than stalling the origin forever.
    for (auto& e : s->children) {
      if (!e.covered && !e.failed) {
        e.failed = true;
        ++stats_.edges_failed;
      }
    }
    MaybeFinishCover(origin, seq, s);
  });
}

BroadcastService::RelayState* BroadcastService::FindRelay(sim::HostId origin,
                                                          uint64_t seq) {
  auto it = relays_.find({origin, seq});
  return it == relays_.end() ? nullptr : &it->second;
}

void BroadcastService::Deliver(sim::HostId origin, uint64_t seq,
                               sim::HostId parent, int depth,
                               const sim::Payload& payload) {
  ++stats_.delivered;
  if (handler_) handler_(origin, seq, parent, depth, payload);
}

bool BroadcastService::AlreadySeen(sim::HostId origin, uint64_t seq) {
  TimePoint now = transport_->simulation()->now();
  for (auto it = seen_.begin(); it != seen_.end();) {
    if (it->second <= now) {
      it = seen_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = relays_.begin(); it != relays_.end();) {
    if (it->second.expires <= now) {
      it = relays_.erase(it);
    } else {
      ++it;
    }
  }
  auto [it, inserted] = seen_.emplace(std::make_pair(origin, seq),
                                      now + kSeenTtl);
  (void)it;
  return !inserted;
}

}  // namespace dht
}  // namespace pier
