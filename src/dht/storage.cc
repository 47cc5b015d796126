#include "dht/storage.h"

#include "common/logging.h"

namespace pier {
namespace dht {

Dht::Dht(overlay::Transport* transport, overlay::Router* router,
         overlay::RouteMux* mux, DhtOptions options)
    : transport_(transport),
      router_(router),
      sim_(transport->simulation()),
      options_(options),
      rpc_(transport->simulation()) {
  mux->Register(kPutTag, [this](const overlay::RoutedMessage& m) {
    OnRoutedPut(m);
  });
  mux->Register(kGetTag, [this](const overlay::RoutedMessage& m) {
    OnRoutedGet(m);
  });
  transport_->RegisterHandler(
      overlay::Proto::kDht,
      [this](sim::HostId from, Reader* r, const sim::Payload& /*body*/) {
        OnDirect(from, r);
      });
}

void Dht::Start() {
  running_ = true;
  sweep_task_.Start(sim_, options_.sweep_interval, options_.sweep_interval,
                    [this] {
                      stats_.items_swept += store_.Sweep(sim_->now());
                    });
}

void Dht::Stop() {
  running_ = false;
  sweep_task_.Stop();
  rpc_.CancelAll();
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

void Dht::Put(const DhtKey& key, std::string value, Duration ttl,
              PutCallback done) {
  PutEx(key, std::move(value), ttl, /*replicate=*/true, std::move(done));
}

void Dht::PutEx(const DhtKey& key, std::string value, Duration ttl,
                bool replicate, PutCallback done) {
  if (ttl <= 0) ttl = options_.default_ttl;
  SendPutOnce(key, value, ttl, replicate, std::move(done), 0);
}

void Dht::SubscribeArrivals(const std::string& ns, ArrivalFn fn) {
  arrival_subscribers_[ns] = std::move(fn);
}

void Dht::UnsubscribeArrivals(const std::string& ns) {
  arrival_subscribers_.erase(ns);
}

void Dht::ObserveReplicas(const std::string& ns, ReplicaFn fn) {
  if (fn) {
    replica_observers_[ns] = std::move(fn);
  } else {
    replica_observers_.erase(ns);
  }
}

void Dht::SendPutOnce(const DhtKey& key, const std::string& value,
                      Duration ttl, bool replicate, PutCallback done,
                      int attempt) {
  if (!running_) {
    if (done) done(Status::Unavailable("dht stopped"));
    return;
  }
  ++stats_.puts_sent;
  uint64_t req_id = 0;
  if (done) {
    req_id = rpc_.Begin(
        [this, key, value, ttl, replicate, done, attempt](Status s, Reader*) {
          if (s.ok()) {
            ++stats_.puts_acked;
            done(Status::OK());
            return;
          }
          if (attempt < options_.put_retries) {
            ++stats_.put_retries;
            SendPutOnce(key, value, ttl, replicate, done, attempt + 1);
          } else {
            ++stats_.put_failures;
            done(Status::Timeout("put: no ack after retries"));
          }
        },
        options_.put_timeout);
  }
  Writer w;
  key.Serialize(&w);
  w.PutString(value);
  w.PutVarint64(static_cast<uint64_t>(ttl));
  w.PutVarint64(req_id);  // 0 = no ack requested
  w.PutFixed32(transport_->self());
  w.PutBool(replicate);
  router_->Route(key.RoutingKey(), kPutTag, sim::Payload(w.Release()));
}

void Dht::Get(const std::string& ns, const std::string& resource,
              GetCallback cb) {
  SendGetOnce(ns, resource, std::move(cb), 0);
}

void Dht::SendGetOnce(const std::string& ns, const std::string& resource,
                      GetCallback cb, int attempt) {
  if (!running_) {
    cb(Status::Unavailable("dht stopped"), {});
    return;
  }
  ++stats_.gets_sent;
  uint64_t req_id = rpc_.Begin(
      [this, ns, resource, cb, attempt](Status s, Reader* r) {
        if (!s.ok()) {
          if (attempt < options_.get_retries) {
            ++stats_.get_retries;
            SendGetOnce(ns, resource, cb, attempt + 1);
          } else {
            ++stats_.get_failures;
            cb(s, {});
          }
          return;
        }
        uint32_t count = 0;
        if (!r->GetVarint32(&count).ok()) {
          cb(Status::Corruption("bad get response"), {});
          return;
        }
        std::vector<DhtItem> items;
        items.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          DhtItem item;
          if (!DhtKey::Deserialize(r, &item.key).ok() ||
              !r->GetString(&item.value).ok()) {
            cb(Status::Corruption("bad get item"), {});
            return;
          }
          items.push_back(std::move(item));
        }
        ++stats_.gets_ok;
        cb(Status::OK(), std::move(items));
      },
      options_.get_timeout);

  DhtKey probe{ns, resource, 0};
  Writer w;
  w.PutString(ns);
  w.PutString(resource);
  w.PutVarint64(req_id);
  w.PutFixed32(transport_->self());
  router_->Route(probe.RoutingKey(), kGetTag, sim::Payload(w.Release()));
}

// ---------------------------------------------------------------------------
// Owner side
// ---------------------------------------------------------------------------

void Dht::OnRoutedPut(const overlay::RoutedMessage& m) {
  if (!running_) return;
  Reader r(m.payload.view());
  StoredItem item;
  uint64_t ttl = 0, req_id = 0;
  uint32_t origin = 0;
  bool replicate = true;
  if (!DhtKey::Deserialize(&r, &item.key).ok() ||
      !r.GetString(&item.value).ok() || !r.GetVarint64(&ttl).ok() ||
      !r.GetVarint64(&req_id).ok() || !r.GetFixed32(&origin).ok() ||
      !r.GetBool(&replicate).ok()) {
    return;
  }
  ++stats_.store_requests;
  item.expires_at = sim_->now() + static_cast<Duration>(ttl);
  item.stored_at = sim_->now();
  item.publisher = origin;
  item.replica = false;
  // The subscriber rules first: an item it consumes (forwards down a PHT
  // trie, say) must not be stored OR replicated here — replicas of data
  // that lives elsewhere would resurface as ghosts after a failover.
  bool keep = true;
  auto sub = arrival_subscribers_.find(item.key.ns);
  if (sub != arrival_subscribers_.end()) keep = sub->second(item);
  if (keep) {
    if (replicate) ReplicateOut(item);
    store_.Put(std::move(item));
  }
  if (req_id != 0) {
    Writer w;
    w.PutU8(static_cast<uint8_t>(MsgType::kPutAck));
    w.PutVarint64(req_id);
    transport_->Send(origin, overlay::Proto::kDht, w);
  }
}

void Dht::OnRoutedGet(const overlay::RoutedMessage& m) {
  if (!running_) return;
  Reader r(m.payload.view());
  std::string ns, resource;
  uint64_t req_id = 0;
  uint32_t origin = 0;
  if (!r.GetString(&ns).ok() || !r.GetString(&resource).ok() ||
      !r.GetVarint64(&req_id).ok() || !r.GetFixed32(&origin).ok()) {
    return;
  }
  ++stats_.serve_requests;
  // Replica copies answer too: if this node now owns the key after a
  // failover, its replicas are the surviving data. Two visitor passes
  // (count, then serialize straight from the store) — no item copies.
  TimePoint now = sim_->now();
  uint32_t count = 0;
  size_t bytes = 0;
  store_.ForEachAt(ns, resource, now, [&](const StoredItem& item) {
    ++count;
    bytes += item.key.resource.size() + item.value.size() + 24;
    return true;
  });
  Writer w;
  w.Reserve(bytes + 16);
  w.PutU8(static_cast<uint8_t>(MsgType::kGetResp));
  w.PutVarint64(req_id);
  w.PutVarint32(count);
  store_.ForEachAt(ns, resource, now, [&w](const StoredItem& item) {
    item.key.Serialize(&w);
    w.PutString(item.value);
    return true;
  });
  transport_->Send(origin, overlay::Proto::kDht, w);
}

void Dht::ReplicateOut(const StoredItem& item) {
  if (options_.replicas <= 0) return;
  std::vector<overlay::NodeInfo> neighbors = router_->RoutingNeighbors();
  int pushed = 0;
  for (const overlay::NodeInfo& n : neighbors) {
    if (pushed >= options_.replicas) break;
    Writer w;
    w.PutU8(static_cast<uint8_t>(MsgType::kReplicate));
    item.key.Serialize(&w);
    w.PutString(item.value);
    w.PutVarint64(static_cast<uint64_t>(item.expires_at - sim_->now()));
    w.PutFixed32(item.publisher);
    transport_->Send(n.host, overlay::Proto::kDht, w);
    ++pushed;
    ++stats_.replicas_pushed;
  }
}

void Dht::OnDirect(sim::HostId /*from*/, Reader* r) {
  uint8_t type = 0;
  if (!r->GetU8(&type).ok()) return;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kPutAck: {
      uint64_t req_id = 0;
      if (!r->GetVarint64(&req_id).ok()) return;
      rpc_.Complete(req_id, r);
      break;
    }
    case MsgType::kGetResp: {
      uint64_t req_id = 0;
      if (!r->GetVarint64(&req_id).ok()) return;
      rpc_.Complete(req_id, r);
      break;
    }
    case MsgType::kReplicate: {
      if (!running_) return;
      StoredItem item;
      uint64_t ttl = 0;
      uint32_t publisher = 0;
      if (!DhtKey::Deserialize(r, &item.key).ok() ||
          !r->GetString(&item.value).ok() || !r->GetVarint64(&ttl).ok() ||
          !r->GetFixed32(&publisher).ok()) {
        return;
      }
      item.expires_at = sim_->now() + static_cast<Duration>(ttl);
      item.stored_at = sim_->now();
      item.publisher = publisher;
      item.replica = true;
      auto obs = replica_observers_.find(item.key.ns);
      if (obs != replica_observers_.end()) obs->second(item);
      store_.Put(std::move(item));
      ++stats_.replicas_received;
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// RenewingPublisher
// ---------------------------------------------------------------------------

RenewingPublisher::RenewingPublisher(Dht* dht, sim::Simulation* sim,
                                     Duration ttl)
    : dht_(dht), sim_(sim), ttl_(ttl) {}

void RenewingPublisher::Publish(const DhtKey& key, std::string value) {
  for (auto& [k, v] : items_) {
    if (k == key) {
      v = std::move(value);
      dht_->Put(key, v, ttl_, nullptr);
      return;
    }
  }
  items_.emplace_back(key, std::move(value));
  dht_->Put(key, items_.back().second, ttl_, nullptr);
}

void RenewingPublisher::Withdraw(const DhtKey& key) {
  for (auto it = items_.begin(); it != items_.end(); ++it) {
    if (it->first == key) {
      items_.erase(it);
      return;
    }
  }
}

void RenewingPublisher::Start() {
  renew_task_.Start(sim_, ttl_ / 2, ttl_ / 2, [this] { RenewAll(); });
}

void RenewingPublisher::Stop() { renew_task_.Stop(); }

void RenewingPublisher::RenewAll() {
  for (const auto& [key, value] : items_) {
    dht_->Renew(key, value, ttl_, nullptr);
  }
}

}  // namespace dht
}  // namespace pier
