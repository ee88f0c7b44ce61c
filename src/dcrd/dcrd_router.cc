#include "dcrd/dcrd_router.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "obs/flight_recorder.h"

namespace dcrd {

DcrdRouter::DcrdRouter(RouterContext context, DcrdConfig config)
    : context_(context),
      config_(config),
      transport_(*context_.network,
                 [this](NodeId at, const Packet& packet, NodeId from) {
                   OnArrival(at, packet, from);
                 },
                 context_.MakeTransportConfig()) {
  DCRD_CHECK(context_.network != nullptr);
  DCRD_CHECK(context_.subscriptions != nullptr);
  DCRD_CHECK(context_.sink != nullptr);
  config_.computation.max_transmissions = context_.max_transmissions;
  config_.distributed.max_transmissions = context_.max_transmissions;
  config_.distributed.ordering = config_.computation.ordering;
  processed_.resize(context_.network->graph().node_count());
  persisted_.resize(context_.network->graph().node_count());
  resync_until_.assign(context_.network->graph().node_count(), SimTime());
  resync_round_.assign(context_.network->graph().node_count(), 0);
}

void DcrdRouter::Rebuild(const MonitoredView& view) {
  view_ = &view;
  transport_.ClearDedupState();
  for (DenseIdSet& processed : processed_) processed.clear();
  // Retry budgets reset with the epoch; anything still parked gets a fresh
  // chance against the newly measured topology.
  for (DenseIdMap<int>& persisted : persisted_) persisted.clear();
  // Freshly rebuilt tables supersede any in-progress crash resync — the
  // restarted broker's state is now exactly as good as everyone else's.
  std::fill(resync_until_.begin(), resync_until_.end(), SimTime());

  const Graph& graph = context_.network->graph();
  const SubscriptionTable& subs = *context_.subscriptions;
  // Retire last epoch's gossip; stragglers on the wire are ignored.
  for (auto& topic_gossip : gossip_) {
    for (GossipTables& gossip : topic_gossip) {
      if (gossip.constrained) gossip.constrained->Stop();
      if (gossip.unconstrained) gossip.unconstrained->Stop();
    }
  }
  // Solver tables are rewritten slot by slot: resize (not assign) keeps last
  // epoch's DestinationTables and the capacity of their per-node lists.
  tables_.resize(subs.topic_count());
  gossip_.assign(subs.topic_count(), {});
  subscriber_index_.resize(subs.topic_count());
  std::vector<std::vector<double>> publisher_dists(subs.topic_count());
  // Solver mode: every (subscriber, topic, slot) to compute, filled below.
  struct PendingTable {
    NodeId subscriber;
    std::uint32_t topic = 0;
    std::uint32_t slot = 0;
    auto operator<=>(const PendingTable&) const = default;
  };
  std::vector<PendingTable> pending;
  for (std::size_t t = 0; t < subs.topic_count(); ++t) {
    const TopicId topic(static_cast<TopicId::underlying_type>(t));
    const NodeId publisher = subs.publisher(topic);
    publisher_dists[t] = MonitoredDistancesFrom(graph, view, publisher);
    const std::vector<double>& publisher_dist = publisher_dists[t];
    std::vector<std::uint32_t>& index = subscriber_index_[t];
    index.assign(graph.node_count(), kNoSubscriber);
    tables_[t].resize(config_.use_distributed_computation
                          ? 0
                          : subs.subscriptions(topic).size());
    std::uint32_t slot = 0;
    for (const Subscription& sub : subs.subscriptions(topic)) {
      if (config_.use_distributed_computation) {
        index[sub.subscriber.underlying()] =
            static_cast<std::uint32_t>(gossip_[t].size());
        std::vector<double> budgets(graph.node_count());
        for (std::size_t i = 0; i < graph.node_count(); ++i) {
          budgets[i] =
              static_cast<double>(sub.deadline.micros()) - publisher_dist[i];
        }
        budgets[sub.subscriber.underlying()] =
            std::max(budgets[sub.subscriber.underlying()], 1.0);
        GossipTables gossip;
        gossip.constrained = std::make_shared<DistributedDrComputation>(
            *context_.network, sub.subscriber, view, budgets,
            config_.distributed);
        gossip.constrained->Start();
        if (config_.best_effort_fallback) {
          gossip.unconstrained = std::make_shared<DistributedDrComputation>(
              *context_.network, sub.subscriber, view,
              std::vector<double>(graph.node_count(), kInfiniteDelay),
              config_.distributed);
          gossip.unconstrained->Start();
        }
        gossip_[t].push_back(std::move(gossip));
      } else {
        index[sub.subscriber.underlying()] = slot;
        pending.push_back(PendingTable{
            sub.subscriber, static_cast<std::uint32_t>(t), slot++});
      }
    }
  }
  if (pending.empty()) return;

  // One kernel for the whole rebuild, fed subscriber by subscriber: it then
  // solves each subscriber's sweep order and fallback fixed point once for
  // all of that subscriber's topics.
  std::sort(pending.begin(), pending.end());
  DrKernel kernel(graph, view, config_.computation);
  for (const PendingTable& entry : pending) {
    const TopicId topic(static_cast<TopicId::underlying_type>(entry.topic));
    const Subscription& sub = subs.subscriptions(topic)[entry.slot];
    kernel.Compute(entry.subscriber,
                   static_cast<double>(sub.deadline.micros()),
                   publisher_dists[entry.topic],
                   tables_[entry.topic][entry.slot]);
  }
}

const std::vector<NodeTables>& DcrdRouter::GossipSnapshot(
    const GossipTables& gossip) const {
  const std::uint64_t version =
      gossip.constrained->version() +
      (gossip.unconstrained ? gossip.unconstrained->version() : 0);
  if (version == gossip.snapshot_version) return gossip.snapshot;
  gossip.snapshot = gossip.constrained->Snapshot();
  if (gossip.unconstrained) {
    const std::vector<NodeTables> free_tables =
        gossip.unconstrained->Snapshot();
    for (std::size_t v = 0; v < gossip.snapshot.size(); ++v) {
      std::vector<ViaEntry> fallback = free_tables[v].primary;
      const auto& primary = gossip.snapshot[v].primary;
      std::erase_if(fallback, [&](const ViaEntry& entry) {
        return std::any_of(primary.begin(), primary.end(),
                           [&](const ViaEntry& p) {
                             return p.neighbor == entry.neighbor;
                           });
      });
      gossip.snapshot[v].fallback = std::move(fallback);
    }
  }
  gossip.snapshot_version = version;
  return gossip.snapshot;
}

const NodeTables* DcrdRouter::GetNodeTables(TopicId topic, NodeId subscriber,
                                            NodeId node) const {
  const std::uint32_t index =
      subscriber_index_[topic.underlying()][subscriber.underlying()];
  if (index == kNoSubscriber) return nullptr;
  if (config_.use_distributed_computation) {
    const std::vector<NodeTables>& snapshot =
        GossipSnapshot(gossip_[topic.underlying()][index]);
    return &snapshot[node.underlying()];
  }
  return &tables_[topic.underlying()][index].per_node[node.underlying()];
}

const DestinationTables* DcrdRouter::FindTables(TopicId topic,
                                                NodeId subscriber) const {
  DCRD_CHECK(!config_.use_distributed_computation)
      << "solver tables are not materialised in distributed mode";
  const std::uint32_t index =
      subscriber_index_[topic.underlying()][subscriber.underlying()];
  if (index == kNoSubscriber) return nullptr;
  return &tables_[topic.underlying()][index];
}

const DestinationTables& DcrdRouter::TablesFor(TopicId topic,
                                               NodeId subscriber) const {
  const DestinationTables* tables = FindTables(topic, subscriber);
  DCRD_CHECK(tables != nullptr)
      << subscriber << " not subscribed to " << topic;
  return *tables;
}

namespace {

// Shortest round-trippable form of a double (%.17g): the auditor recomputes
// d from the list entries and must see exactly the values routing used.
void WriteAuditDouble(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

void DcrdRouter::WriteAuditSnapshot(std::ostream& os, SimTime now) const {
  const SubscriptionTable& subs = *context_.subscriptions;
  for (std::size_t t = 0; t < subs.topic_count(); ++t) {
    const TopicId topic(static_cast<TopicId::underlying_type>(t));
    const NodeId publisher = subs.publisher(topic);
    for (const Subscription& sub : subs.subscriptions(topic)) {
      const NodeTables* tables =
          GetNodeTables(topic, sub.subscriber, publisher);
      if (tables == nullptr) continue;
      // Self-subscriptions deliver instantly at the publisher and
      // unreachable destinations produce no deliveries to audit; both would
      // only add meaningless rows.
      if (sub.subscriber == publisher) continue;
      if (!tables->dr.reachable() || !std::isfinite(tables->dr.d_us)) {
        continue;
      }
      os << "{\"t\":" << now.micros() << ",\"topic\":" << t
         << ",\"pub\":" << publisher.underlying()
         << ",\"sub\":" << sub.subscriber.underlying()
         << ",\"deadline_us\":" << sub.deadline.micros() << ",\"d_us\":";
      WriteAuditDouble(os, tables->dr.d_us);
      os << ",\"r\":";
      WriteAuditDouble(os, tables->dr.r);
      os << ",\"list\":[";
      bool first = true;
      for (const ViaEntry& entry : tables->primary) {
        if (!std::isfinite(entry.d_via_us) || entry.r_via <= 0.0) continue;
        if (!first) os << ",";
        first = false;
        os << "[" << entry.neighbor.underlying() << ","
           << entry.link.underlying() << ",";
        WriteAuditDouble(os, entry.d_via_us);
        os << ",";
        WriteAuditDouble(os, entry.r_via);
        os << "]";
      }
      os << "]}\n";
    }
  }
}

void DcrdRouter::Publish(const Message& message) {
  const SubscriptionTable& subs = *context_.subscriptions;
  destinations_scratch_.clear();
  for (const Subscription& sub : subs.subscriptions(message.topic)) {
    if (sub.subscriber == message.publisher) {
      context_.sink->OnDelivered(message, sub.subscriber,
                                 context_.network->scheduler().now());
    } else {
      destinations_scratch_.push_back(sub.subscriber);
    }
  }
  if (destinations_scratch_.empty()) return;
  const Packet packet(message, {});
  DenseIdSet& processed = processed_[message.publisher.underlying()];
  const std::uint64_t key = ProcessedKeyBase(packet);
  for (NodeId subscriber : destinations_scratch_) {
    processed.Insert(key | SubscriberKey(subscriber));
  }
  StartEpisode(message.publisher, packet, destinations_scratch_);
}

void DcrdRouter::OnArrival(NodeId at, const Packet& packet, NodeId /*from*/) {
  const bool rerouted_back = packet.OnRoutingPath(at);
  DenseIdSet& processed = processed_[at.underlying()];
  const std::uint64_t key = ProcessedKeyBase(packet);

  destinations_scratch_.clear();
  for (NodeId subscriber : packet.destinations()) {
    // A fresh visit handles each (message, subscriber) responsibility only
    // once; a rerouted-back packet re-opens responsibilities this broker
    // already forwarded into the now-failed subtree.
    const bool fresh = processed.Insert(key | SubscriberKey(subscriber));
    if (!fresh && !rerouted_back) continue;
    if (subscriber == at) {
      context_.sink->OnDelivered(packet.message(), subscriber,
                                 context_.network->scheduler().now());
    } else {
      destinations_scratch_.push_back(subscriber);
    }
  }
  if (destinations_scratch_.empty()) return;
  StartEpisode(at, packet, destinations_scratch_);
}

void DcrdRouter::StartEpisode(NodeId node, const Packet& source,
                              const std::vector<NodeId>& destinations) {
  Episode* episode = nullptr;
  const SlotHandle handle = episodes_.Acquire(&episode);
  episode->node = node;
  episode->base.AssignWithDestinations(source, destinations);
  episode->pending = episode->base.destinations();
  for (CopyGroup& copy : episode->copies) copy.in_flight = false;
  episode->tried.clear();
  episode->reroute_attempts.assign(episode->pending.size(), 0);
  ProcessEpisode(handle);
}

NodeId DcrdRouter::UpstreamOf(const Episode& episode) const {
  const auto& path = episode.base.routing_path();
  if (episode.base.OnRoutingPath(episode.node)) {
    return episode.base.UpstreamOf(episode.node);
  }
  return path.empty() ? NodeId() : path.back();
}

NodeId DcrdRouter::SelectNextHop(const Episode& episode,
                                 NodeId subscriber) const {
  const NodeTables* tables_ptr = GetNodeTables(
      episode.base.message().topic, subscriber, episode.node);
  // The subscriber left (churn) while this packet was in flight: nowhere
  // to send — the caller drops the responsibility.
  if (tables_ptr == nullptr) return NodeId();
  // This subscriber's run of tried hops in the sorted flat array.
  const auto tried_begin =
      std::lower_bound(episode.tried.begin(), episode.tried.end(),
                       TriedHop{subscriber, NodeId(0)});
  const auto is_tried = [&](NodeId candidate) {
    for (auto it = tried_begin;
         it != episode.tried.end() && it->subscriber == subscriber; ++it) {
      if (it->hop == candidate) return true;
    }
    return false;
  };

  NodeId choice;
  if (ResyncActive(episode.node)) {
    // Post-restart best-effort forwarding: this broker's <d,r> tables died
    // with its crash and gossip has not reconverged, so instead of a
    // sending list it walks its physical adjacency — any neighbour not on
    // the routing path, not tried this episode and not known-dead — with
    // the usual upstream backstop below. Delivery never waits for resync.
    for (const Neighbor& n :
         context_.network->graph().neighbors(episode.node)) {
      if (episode.base.OnRoutingPath(n.peer)) continue;
      if (is_tried(n.peer)) continue;
      if (!transport_.PeerAlive(episode.node, n.link)) continue;
      choice = n.peer;
      break;
    }
  } else {
    const NodeTables& node_tables = *tables_ptr;
    const auto scan = [&](const std::vector<ViaEntry>& list) {
      for (const ViaEntry& entry : list) {
        if (episode.base.OnRoutingPath(entry.neighbor)) continue;
        if (is_tried(entry.neighbor)) continue;
        return entry.neighbor;
      }
      return NodeId();
    };

    choice = scan(node_tables.primary);
    if (!choice.valid() && config_.best_effort_fallback) {
      choice = scan(node_tables.fallback);
    }
  }
  if (choice.valid()) return choice;

  // Sending list exhausted: reroute to the upstream node (Algorithm 2,
  // lines 10-12), bounded by the retry cap.
  const NodeId upstream = UpstreamOf(episode);
  if (!upstream.valid()) return NodeId();  // publisher: drop
  if (episode.reroute_attempts[DestinationIndex(episode, subscriber)] >=
      config_.reroute_retry_cap) {
    return NodeId();
  }
  return upstream;
}

void DcrdRouter::ProcessEpisode(SlotHandle handle) {
  Episode* const episode = episodes_.Get(handle);
  if (episode == nullptr) return;

  while (!episode->pending.empty()) {
    // Decide the next hop for the first pending subscriber, then pull in
    // every other pending subscriber that picks the same hop (Algorithm 2,
    // lines 13-19).
    const NodeId leader = episode->pending.front();
    const NodeId next = SelectNextHop(*episode, leader);
    if (!next.valid()) {
      HandleUndeliverable(episode->node, episode->base, leader);
      episode->pending.erase(episode->pending.begin());
      continue;
    }
    const std::uint32_t copy_slot = AcquireCopy(*episode);
    CopyGroup& group = episode->copies[copy_slot];
    group.next_hop = next;
    group.subscribers.clear();
    // Split pending in place: the group leaves, the rest keeps its order.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < episode->pending.size(); ++i) {
      const NodeId subscriber = episode->pending[i];
      if (subscriber == leader || SelectNextHop(*episode, subscriber) == next) {
        group.subscribers.push_back(subscriber);
      } else {
        episode->pending[kept++] = subscriber;
      }
    }
    episode->pending.resize(kept);

    const bool is_reroute = next == UpstreamOf(*episode);
    if (is_reroute) {
      for (NodeId subscriber : group.subscribers) {
        ++episode->reroute_attempts[DestinationIndex(*episode, subscriber)];
      }
    }

    // Narrowed into the router's scratch packet; the transport copies it
    // into its pending slot, so neither side allocates once warm.
    send_scratch_.AssignWithDestinations(episode->base, group.subscribers);
    send_scratch_.RecordOnPath(episode->node);
    const auto link = context_.network->graph().FindEdge(episode->node, next);
    DCRD_CHECK(link.has_value())
        << "sending list refers to missing edge " << episode->node << "-"
        << next;
    if (is_reroute && context_.recorder != nullptr) {
      context_.recorder->Record(
          TraceEventKind::kReroute, episode->base.message().id.value, 0,
          episode->node, next, *link, 0,
          static_cast<std::uint16_t>(group.subscribers.size()));
    }
    const SimDuration timeout = context_.AckTimeout(view_->alpha(*link));
    transport_.SendReliable(
        episode->node, *link, send_scratch_, context_.max_transmissions,
        timeout, [this, handle, copy_slot](bool acked) {
          OnCopyResolved(handle, copy_slot, acked);
        });
  }
  FinishEpisodeIfIdle(handle);
}

std::uint32_t DcrdRouter::AcquireCopy(Episode& episode) {
  std::uint32_t slot = 0;
  while (slot < episode.copies.size() && episode.copies[slot].in_flight) {
    ++slot;
  }
  if (slot == episode.copies.size()) episode.copies.emplace_back();
  episode.copies[slot].in_flight = true;
  return slot;
}

std::size_t DcrdRouter::DestinationIndex(const Episode& episode,
                                         NodeId subscriber) {
  const std::vector<NodeId>& destinations = episode.base.destinations();
  const auto it =
      std::lower_bound(destinations.begin(), destinations.end(), subscriber);
  DCRD_CHECK(it != destinations.end() && *it == subscriber)
      << subscriber << " is not a destination of this episode";
  return static_cast<std::size_t>(it - destinations.begin());
}

void DcrdRouter::OnCopyResolved(SlotHandle handle, std::uint32_t copy_slot,
                                bool acked) {
  Episode* const episode = episodes_.Get(handle);
  if (episode == nullptr) {
    // Only a broker crash releases an episode with copies still unresolved
    // (the crash kills the broker's own pendings without resolving them,
    // but a straggler resolution scheduled before the crash can still
    // land); the slot's generation bump makes the handle stale. Without
    // crashes a stale handle is a bookkeeping bug.
    DCRD_CHECK(context_.network->crashes().enabled())
        << "copy resolved for vanished episode (slot " << handle.slot
        << ", generation " << handle.generation << ")";
    return;
  }
  CopyGroup& group = episode->copies[copy_slot];
  DCRD_CHECK(group.in_flight);
  group.in_flight = false;

  if (!acked) {
    // Hop failed after m transmissions: mark tried (unless it was the
    // upstream reroute, which stays eligible under the retry cap) and put
    // the subscribers back on the pending list.
    const bool was_reroute = group.next_hop == UpstreamOf(*episode);
    for (NodeId subscriber : group.subscribers) {
      if (!was_reroute) {
        const TriedHop tried{subscriber, group.next_hop};
        const auto it = std::lower_bound(episode->tried.begin(),
                                         episode->tried.end(), tried);
        if (it == episode->tried.end() || *it != tried) {
          episode->tried.insert(it, tried);
        }
      }
      episode->pending.push_back(subscriber);
    }
    ProcessEpisode(handle);
    return;
  }
  FinishEpisodeIfIdle(handle);
}

void DcrdRouter::RecordUndeliverable(NodeId node, const Packet& base,
                                     NodeId subscriber) {
  if (context_.recorder == nullptr) return;
  context_.recorder->Record(
      TraceEventKind::kDrop, base.message().id.value, 0, node, subscriber,
      LinkId(), static_cast<std::uint8_t>(TraceDropReason::kUndeliverable));
}

void DcrdRouter::HandleUndeliverable(NodeId node, const Packet& base,
                                     NodeId subscriber) {
  if (!config_.enable_persistence) {
    ++dropped_undeliverable_;
    RecordUndeliverable(node, base, subscriber);
    return;
  }
  DenseIdMap<int>& persisted = persisted_[node.underlying()];
  // (message, subscriber), flow label left out: every generation of a
  // retried responsibility shares one budget. Exact, as message ids were
  // range-checked against the narrower ProcessedKey on the way in.
  const std::uint64_t key =
      (base.message().id.value << kKeySubscriberBits) |
      SubscriberKey(subscriber);
  int& attempts = *persisted.TryEmplace(key).first;
  if (attempts >= config_.persistence_max_retries) {
    persisted.Erase(key);
    ++dropped_undeliverable_;
    RecordUndeliverable(node, base, subscriber);
    return;
  }
  ++attempts;
  ++persisted_packets_;
  const Message message = base.message();
  const int generation = attempts;
  context_.network->scheduler().ScheduleAfter(
      config_.persistence_retry_interval,
      [this, node, message, subscriber, generation] {
        // Parked packets are volatile state: if the broker crashed at any
        // point while this one waited, it died with the broker.
        const BrokerCrashSchedule& crashes = context_.network->crashes();
        const SimTime now = context_.network->scheduler().now();
        const SimTime parked_at = SimTime::FromMicros(
            now.micros() - config_.persistence_retry_interval.micros());
        if (crashes.enabled() && crashes.DownDuring(node, parked_at, now)) {
          ++dropped_undeliverable_;
          if (context_.recorder != nullptr) {
            context_.recorder->Record(
                TraceEventKind::kDrop, message.id.value, 0, node, subscriber,
                LinkId(), static_cast<std::uint8_t>(TraceDropReason::kCrash));
          }
          return;
        }
        ++persistence_retries_;
        // Fresh attempt: empty routing path so the whole overlay is
        // explorable again, and a new persistence generation so the
        // processed-set dedup downstream does not mistake the retry for a
        // duplicate of the failed attempt.
        Packet retry(message, {});
        retry.set_flow_label(static_cast<std::uint8_t>(generation));
        processed_[node.underlying()].Insert(ProcessedKey(retry, subscriber));
        destinations_scratch_.assign(1, subscriber);
        StartEpisode(node, retry, destinations_scratch_);
      });
}

std::size_t DcrdRouter::OnBrokerCrash(NodeId node) {
  // Transport first: pendings at `node` are killed without resolution and
  // its dedup windows cleared, so nothing below ever hears from them again.
  const std::size_t killed = transport_.OnBrokerCrash(node);
  // Open processing episodes at the broker die with it; their outstanding
  // copy callbacks now hold stale handles.
  std::vector<SlotHandle> dead;
  episodes_.ForEachLiveHandle([&](SlotHandle handle) {
    if (episodes_.Get(handle)->node == node) dead.push_back(handle);
  });
  for (SlotHandle handle : dead) episodes_.ReleaseLive(handle);
  processed_[node.underlying()].clear();
  // Persistency-mode parked packets were volatile state too. (The armed
  // retry timers re-check the crash schedule when they fire.)
  persisted_[node.underlying()].clear();
  // A crash inside a resync window voids the resync; the next restart
  // opens a fresh one and the old completion timer goes stale.
  resync_until_[node.underlying()] = SimTime();
  ++resync_round_[node.underlying()];
  return killed;
}

SimDuration DcrdRouter::ResyncWindow(NodeId node) const {
  SimDuration slowest = SimDuration::Zero();
  for (const Neighbor& n : context_.network->graph().neighbors(node)) {
    const SimDuration alpha = view_ != nullptr
                                  ? view_->alpha(n.link)
                                  : context_.network->graph().edge(n.link).delay;
    slowest = std::max(slowest, context_.AckTimeout(alpha));
  }
  return std::max(SimDuration::Micros(3 * 2 * slowest.micros()),
                  SimDuration::Millis(1));
}

void DcrdRouter::OnBrokerRestart(NodeId node) {
  const SimTime started = context_.network->scheduler().now();
  const SimDuration window = ResyncWindow(node);
  resync_until_[node.underlying()] = started + window;
  const std::uint32_t round = ++resync_round_[node.underlying()];
  ++resync_stats_.resyncs_started;

  if (config_.use_distributed_computation) {
    // Reset the broker's slot in every gossip instance: its pre-crash
    // <d,r> contributions are forgotten, a fresh generation is announced,
    // and neighbours are re-solicited — stale stragglers from before the
    // crash carry the old generation and are dropped on arrival.
    for (auto& topic_gossip : gossip_) {
      for (GossipTables& gossip : topic_gossip) {
        if (gossip.constrained) gossip.constrained->OnNodeRestart(node);
        if (gossip.unconstrained) gossip.unconstrained->OnNodeRestart(node);
      }
    }
  } else {
    // Solver mode keeps the tables centrally, so model the state re-fetch
    // as one control round trip per neighbour (request up, snapshot back):
    // a fire-and-forget echo — the completion window below is timed
    // separately. The echo is shard-safe; a neighbour on another shard
    // resolves the snapshot leg on its own side.
    for (const Neighbor& n : context_.network->graph().neighbors(node)) {
      context_.network->TransmitEcho(node, n.link, {});
    }
  }

  // Resync bookkeeping replays on every shard; only the broker's owner
  // records, so the multi-shard trace carries each resync exactly once.
  if (context_.recorder != nullptr && context_.network->IsLocalNode(node)) {
    context_.recorder->Record(
        TraceEventKind::kResyncStart, 0, 0, node, NodeId(), LinkId(), 0,
        static_cast<std::uint16_t>(
            context_.network->graph().degree(node)));
  }
  context_.network->scheduler().ScheduleAfter(
      window, [this, node, round, started] {
        // Stale if the broker crashed again inside the window.
        if (resync_round_[node.underlying()] != round) return;
        resync_until_[node.underlying()] = SimTime();
        const SimDuration took =
            context_.network->scheduler().now() - started;
        ++resync_stats_.resyncs_completed;
        resync_stats_.total_resync_time += took;
        resync_stats_.max_resync_time =
            std::max(resync_stats_.max_resync_time, took);
        if (context_.recorder != nullptr &&
            context_.network->IsLocalNode(node)) {
          // The copy field carries the resync duration in microseconds.
          context_.recorder->Record(
              TraceEventKind::kResyncDone, 0,
              static_cast<std::uint64_t>(took.micros()), node, NodeId(),
              LinkId());
        }
      });
}

void DcrdRouter::FinishEpisodeIfIdle(SlotHandle handle) {
  const Episode* const episode = episodes_.Get(handle);
  if (episode == nullptr || !episode->pending.empty()) return;
  if (std::none_of(episode->copies.begin(), episode->copies.end(),
                   [](const CopyGroup& copy) { return copy.in_flight; })) {
    episodes_.ReleaseLive(handle);
  }
}

}  // namespace dcrd
