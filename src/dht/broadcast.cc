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
  timers_.CancelAll(transport_->simulation());
}

sim::TimerId BroadcastService::ScheduleTimer(Duration delay,
                                             std::function<void()> fn) {
  sim::TimerId id = transport_->simulation()->ScheduleAfter(
      delay, [this, fn = std::move(fn)] {
        if (!running_) return;
        fn();
      });
  timers_.Add(*transport_->simulation(), id);
  return id;
}

uint64_t BroadcastService::Broadcast(sim::Payload payload) {
  if (!running_) return 0;
  uint64_t seq = next_seq_++;
  ++stats_.initiated;
  sim::HostId self = transport_->self();
  // Marked before delivery, so loops back to us are suppressed.
  RelayState& state = *MarkSeen(self, seq);
  Deliver(self, seq, /*parent=*/self, 0, payload);
  state.parent = self;
  state.is_origin = true;
  state.payload = payload;
  // Whole ring: limit == own id (the interval (self, self) wraps all the
  // way around).
  Relay(state, self, seq, router_->self().id, 0, payload);
  MaybeFinishCover(self, seq, &state);  // leaf origin: fire immediately
  if (!state.cover_sent) ArmCoverDeadline(self, seq, &state);
  return seq;
}

void BroadcastService::Relay(RelayState& state, sim::HostId origin,
                             uint64_t seq, const Id160& limit, int depth,
                             const sim::Payload& payload) {
  if (depth >= kMaxDepth) return;
  const Id160 self_id = router_->self().id;
  std::vector<overlay::NodeInfo> neighbors = router_->RoutingNeighbors();
  // Keep only neighbors strictly inside (self, limit), sorted clockwise on
  // their distance from self, computed once per neighbor.
  std::vector<std::pair<Id160, overlay::NodeInfo>> in_range;
  in_range.reserve(neighbors.size());
  for (const auto& n : neighbors) {
    if (limit == self_id || n.id.InIntervalOpenOpen(self_id, limit)) {
      in_range.emplace_back(self_id.DistanceTo(n.id), n);
    }
  }
  std::sort(in_range.begin(), in_range.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  in_range.erase(std::unique(in_range.begin(), in_range.end(),
                             [](const auto& a, const auto& b) {
                               return a.second.host == b.second.host;
                             }),
                 in_range.end());
  for (size_t i = 0; i < in_range.size(); ++i) {
    // Neighbor i covers up to the next neighbor (or our limit for the last).
    const Id160& sub_limit =
        (i + 1 < in_range.size()) ? in_range[i + 1].second.id : limit;
    state.children.emplace_back();
    ChildEdge& edge = state.children.back();
    edge.host = in_range[i].second.host;
    edge.sub_limit = sub_limit;
    edge.depth = depth + 1;
    SendDataEdge(origin, seq, &edge, payload);
    ScheduleEdgeRetry(origin, seq, &edge);
  }
}

void BroadcastService::SendDataEdge(sim::HostId origin, uint64_t seq,
                                    ChildEdge* edge,
                                    const sim::Payload& payload) {
  // Only this small tree header is rebuilt per edge; the payload buffer is
  // shared down the entire dissemination tree.
  Writer w;
  w.PutU8(kData);
  w.PutVarint32(origin);
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
                                         ChildEdge* edge) {
  const sim::HostId child = edge->host;
  uint64_t salt = MixHash64(
      (static_cast<uint64_t>(origin) << 32) ^ seq ^
      (static_cast<uint64_t>(child) << 17) ^ transport_->self());
  Duration delay = RetryDelay(options_.ack_timeout, options_.ack_max,
                                     0.25, salt, edge->attempts);
  edge->retry_timer = ScheduleTimer(delay, [this, origin, seq, child] {
    RelayState* s = FindRelay(origin, seq);
    if (s == nullptr || s->cover_sent) return;
    ChildEdge* e = nullptr;
    for (auto& c : s->children) {
      if (c.host == child) e = &c;
    }
    if (e == nullptr || e->acked || e->covered || e->failed) return;
    e->retry_timer = 0;
    if (e->attempts >= options_.retries) {
      e->failed = true;
      ++stats_.edges_failed;
      MaybeFinishCover(origin, seq, s);
      return;
    }
    SendDataEdge(origin, seq, e, s->payload);
    ScheduleEdgeRetry(origin, seq, e);
  });
}

void BroadcastService::CancelEdgeRetry(ChildEdge* edge) {
  if (edge->retry_timer == 0) return;
  transport_->simulation()->Cancel(edge->retry_timer);
  edge->retry_timer = 0;
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
  if (!r->GetVarint32(&origin).ok() || !r->GetVarint64(&seq).ok() ||
      !Id160::Deserialize(r, &limit).ok() || !r->GetVarint32(&depth).ok()) {
    return;
  }
  SendAck(from, origin, seq, kAckData);
  RelayState* fresh = MarkSeen(origin, seq);
  if (fresh == nullptr) {
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
      w.PutVarint32(origin);
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
  RelayState& state = *fresh;
  state.parent = from;
  state.payload = body;
  Relay(state, origin, seq, limit, static_cast<int>(depth), body);
  MaybeFinishCover(origin, seq, &state);  // leaf: cover immediately
  if (!state.cover_sent) ArmCoverDeadline(origin, seq, &state);
}

void BroadcastService::OnAck(sim::HostId from, Reader* r) {
  uint32_t origin = 0;
  uint64_t seq = 0;
  uint8_t what = 0;
  if (!r->GetVarint32(&origin).ok() || !r->GetVarint64(&seq).ok() ||
      !r->GetU8(&what).ok()) {
    return;
  }
  RelayState* state = FindRelay(origin, seq);
  if (state == nullptr) return;
  ++stats_.acks_received;
  if (what == kAckCover) {
    state->cover_acked = true;
    if (state->cover_retry != 0) {
      transport_->simulation()->Cancel(state->cover_retry);
      state->cover_retry = 0;
    }
    return;
  }
  for (auto& e : state->children) {
    if (e.host == from) {
      e.acked = true;
      CancelEdgeRetry(&e);
    }
  }
}

void BroadcastService::OnCover(sim::HostId from, Reader* r) {
  uint32_t origin = 0;
  uint64_t seq = 0, count = 0;
  uint8_t complete = 0;
  if (!r->GetVarint32(&origin).ok() || !r->GetVarint64(&seq).ok() ||
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
      CancelEdgeRetry(&e);
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
  w.PutVarint32(origin);
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
  if (state->cover_deadline != 0) {
    transport_->simulation()->Cancel(state->cover_deadline);
    state->cover_deadline = 0;
  }
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
  ScheduleCoverRetry(origin, seq, state);
}

void BroadcastService::SendCoverOnce(sim::HostId origin, uint64_t seq,
                                     RelayState* state) {
  Writer w;
  w.PutU8(kCover);
  w.PutVarint32(origin);
  w.PutVarint64(seq);
  w.PutVarint64(state->cover_count);
  w.PutU8(state->cover_complete ? 1 : 0);
  transport_->Send(state->parent, overlay::Proto::kBroadcast, w);
  if (state->cover_attempts > 0) ++stats_.retransmits;
  ++state->cover_attempts;
}

void BroadcastService::ScheduleCoverRetry(sim::HostId origin, uint64_t seq,
                                          RelayState* state) {
  // The last attempt went out: nothing is left to retransmit.
  if (state->cover_attempts >= options_.retries) return;
  uint64_t salt = MixHash64((static_cast<uint64_t>(origin) << 32) ^
                                   seq ^ (~0u - transport_->self()));
  Duration delay = RetryDelay(options_.ack_timeout, options_.ack_max,
                                     0.25, salt, state->cover_attempts);
  state->cover_retry = ScheduleTimer(delay, [this, origin, seq] {
    RelayState* s = FindRelay(origin, seq);
    if (s == nullptr || s->cover_acked) return;
    s->cover_retry = 0;
    SendCoverOnce(origin, seq, s);
    ScheduleCoverRetry(origin, seq, s);
  });
}

void BroadcastService::ArmCoverDeadline(sim::HostId origin, uint64_t seq,
                                        RelayState* state) {
  auto expire = [this, origin, seq] {
    RelayState* s = FindRelay(origin, seq);
    if (s == nullptr || s->cover_sent) return;
    s->cover_deadline = 0;
    // Children that never covered are abandoned; the wave goes up marked
    // incomplete rather than stalling the origin forever.
    for (auto& e : s->children) {
      if (!e.covered && !e.failed) {
        e.failed = true;
        CancelEdgeRetry(&e);
        ++stats_.edges_failed;
      }
    }
    MaybeFinishCover(origin, seq, s);
  };
  state->cover_deadline = ScheduleTimer(options_.cover_timeout, expire);
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

BroadcastService::RelayState* BroadcastService::MarkSeen(sim::HostId origin,
                                                         uint64_t seq) {
  TimePoint now = transport_->simulation()->now();
  while (!expiry_.empty() && expiry_.front().first <= now) {
    relays_.erase(expiry_.front().second);
    expiry_.pop_front();
  }
  auto [it, inserted] = relays_.try_emplace(RelayKey{origin, seq});
  if (!inserted) return nullptr;
  expiry_.emplace_back(now + kSeenTtl, it->first);
  return &it->second;
}

}  // namespace dht
}  // namespace pier
