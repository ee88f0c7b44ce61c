#include "sim/engine.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dcrd/dcrd_router.h"
#include "event/scheduler.h"
#include "graph/io.h"
#include "graph/partition.h"
#include "graph/topology.h"
#include "net/shard_exchange.h"
#include "net/link_monitor.h"
#include "net/overlay_network.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/shard_profiler.h"
#include "obs/timeseries.h"
#include "pubsub/publisher.h"
#include "routing/multipath_router.h"
#include "routing/oracle_router.h"
#include "routing/tree_router.h"
#include "sim/invariant_checker.h"
#include "sim/workload.h"

namespace dcrd {

std::unique_ptr<Router> MakeRouter(const ScenarioConfig& config,
                                   RouterContext context) {
  switch (config.router) {
    case RouterKind::kDcrd: {
      DcrdConfig dcrd_config;
      dcrd_config.best_effort_fallback = config.dcrd_best_effort_fallback;
      dcrd_config.reroute_retry_cap = config.dcrd_reroute_retry_cap;
      dcrd_config.enable_persistence = config.dcrd_persistence;
      dcrd_config.persistence_retry_interval = config.dcrd_persistence_retry;
      dcrd_config.persistence_max_retries =
          config.dcrd_persistence_max_retries;
      dcrd_config.computation.ordering = config.dcrd_ordering;
      dcrd_config.use_distributed_computation = config.dcrd_distributed;
      return std::make_unique<DcrdRouter>(context, dcrd_config);
    }
    case RouterKind::kRTree:
      return std::make_unique<TreeRouter>(context, TreeKind::kShortestHop);
    case RouterKind::kDTree:
      return std::make_unique<TreeRouter>(context, TreeKind::kShortestDelay);
    case RouterKind::kOracle:
      return std::make_unique<OracleRouter>(context);
    case RouterKind::kMultipath:
      return std::make_unique<MultipathRouter>(context,
                                               config.multipath_path_count);
  }
  DCRD_CHECK(false) << "unknown router kind";
  return nullptr;
}

namespace {

// Delivery-sink shim: records a kDeliver trace event and the end-to-end
// delay histogram sample, then forwards to the real sink (the invariant
// checker or the metrics collector). Pure read-side — it cannot change what
// the wrapped sink observes.
class ObservedSink final : public DeliverySink {
 public:
  ObservedSink(DeliverySink& next, FlightRecorder* recorder,
               LogLinearHistogram* delay_histogram)
      : next_(next), recorder_(recorder), delay_histogram_(delay_histogram) {}

  void OnDelivered(const Message& message, NodeId subscriber,
                   SimTime arrival) override {
    if (recorder_ != nullptr) {
      recorder_->Record(TraceEventKind::kDeliver, message.id.value, 0,
                        subscriber, message.publisher, LinkId());
    }
    if (delay_histogram_ != nullptr) {
      delay_histogram_->Record((arrival - message.publish_time).micros());
    }
    next_.OnDelivered(message, subscriber, arrival);
  }

 private:
  DeliverySink& next_;
  FlightRecorder* recorder_;
  LogLinearHistogram* delay_histogram_;
};

// Samples every link's up/gray state at failure-epoch cadence and records
// the *transitions* as trace events. The failure and gray processes are
// counter-based pure functions of (seed, entity, epoch) — sampling them is
// free of side effects, so the traced run stays bit-identical to the
// untraced one. Chain-scheduled with a [this] capture (8 bytes, well inside
// the scheduler's inline budget).
//
// Sharded runs create the sampler on EVERY shard (its scheduled events keep
// the engine-origin event sequence identical across shards) but only shard
// 0 emits the records — link state is global, so per-kind record counts
// summed across per-shard trace files match the 1-shard trace exactly.
class LinkStateSampler {
 public:
  LinkStateSampler(const OverlayNetwork& network, Scheduler& scheduler,
                   FlightRecorder& recorder, SimDuration epoch, SimTime end,
                   bool record)
      : network_(network),
        scheduler_(scheduler),
        recorder_(recorder),
        epoch_(epoch),
        end_(end),
        record_(record),
        link_up_(network.graph().edge_count(), true),
        link_gray_(network.graph().edge_count(), false) {
    Sample();  // t = 0 baseline; records nothing unless a link starts down
    ScheduleNext();
  }

 private:
  void Sample() {
    const SimTime now = scheduler_.now();
    const Graph& graph = network_.graph();
    for (std::size_t i = 0; i < graph.edge_count(); ++i) {
      const LinkId link(static_cast<LinkId::underlying_type>(i));
      const EdgeSpec& edge = graph.edge(link);
      const bool up = network_.failures().IsUp(link, now);
      if (up != link_up_[i]) {
        link_up_[i] = up;
        if (record_) {
          recorder_.Record(up ? TraceEventKind::kLinkUp
                              : TraceEventKind::kLinkDown,
                           TraceRecord::kNoPacket, 0, edge.a, edge.b, link);
        }
      }
      const bool gray = network_.gray().Active(link, now);
      if (gray != link_gray_[i]) {
        link_gray_[i] = gray;
        if (record_) {
          recorder_.Record(gray ? TraceEventKind::kGrayStart
                                : TraceEventKind::kGrayEnd,
                           TraceRecord::kNoPacket, 0, edge.a, edge.b, link);
        }
      }
    }
  }

  void ScheduleNext() {
    if (scheduler_.now() + epoch_ > end_) return;
    scheduler_.ScheduleAfter(epoch_, [this] {
      Sample();
      ScheduleNext();
    });
  }

  const OverlayNetwork& network_;
  Scheduler& scheduler_;
  FlightRecorder& recorder_;
  const SimDuration epoch_;
  const SimTime end_;
  const bool record_;
  std::vector<bool> link_up_;
  std::vector<bool> link_gray_;
};

// Registers the network's per-class TrafficCounters fields under
// "net.<class>.<field>" names. By const pointer: the network stays the
// single source of truth, the registry only reads at sample time.
void RegisterNetworkCounters(MetricsRegistry& registry,
                             const OverlayNetwork& network) {
  static constexpr std::string_view kClassNames[] = {"data", "ack",
                                                     "control"};
  for (std::size_t c = 0; c < 3; ++c) {
    const TrafficCounters& counters =
        network.counters(static_cast<TrafficClass>(c));
    const std::string prefix = "net." + std::string(kClassNames[c]) + ".";
    registry.RegisterCounter(prefix + "attempted", &counters.attempted);
    registry.RegisterCounter(prefix + "delivered", &counters.delivered);
    registry.RegisterCounter(prefix + "dropped_link_failure",
                             &counters.dropped_failure);
    registry.RegisterCounter(prefix + "dropped_node_failure",
                             &counters.dropped_node_failure);
    registry.RegisterCounter(prefix + "dropped_loss", &counters.dropped_loss);
    registry.RegisterCounter(prefix + "dropped_gray", &counters.dropped_gray);
    registry.RegisterCounter(prefix + "dropped_crash",
                             &counters.dropped_crash);
  }
}

// Samples every broker's crash-schedule state at failure-epoch cadence and
// drives the router's lifecycle hooks on transitions: up->down kills the
// broker's volatile state (OnBrokerCrash), down->up triggers resync
// (OnBrokerRestart). Unlike LinkStateSampler this is NOT observability —
// the hooks mutate protocol state — so it runs whenever the crash process
// is enabled, recorder or not. The schedule itself is a counter-based pure
// function, so the sampler adds no RNG draws.
class BrokerLifecycleSampler {
 public:
  BrokerLifecycleSampler(const OverlayNetwork& network, Scheduler& scheduler,
                         Router& router, FlightRecorder* recorder,
                         SimDuration epoch, SimTime end)
      : network_(network),
        scheduler_(scheduler),
        router_(router),
        recorder_(recorder),
        epoch_(epoch),
        end_(end),
        up_(network.graph().node_count(), true) {
    Sample();  // t = 0 baseline; fires hooks for brokers that start down
    ScheduleNext();
  }

  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

 private:
  void Sample() {
    const SimTime now = scheduler_.now();
    const BrokerCrashSchedule& schedule = network_.crashes();
    for (std::size_t i = 0; i < up_.size(); ++i) {
      const NodeId node(static_cast<NodeId::underlying_type>(i));
      const bool up = schedule.Up(node, now);
      if (up == up_[i]) continue;
      up_[i] = up;
      // Transitions replay on every shard (the schedule is a pure function)
      // but only the broker's owner records them, so a multi-shard trace
      // carries each lifecycle event exactly once.
      if (!up) {
        ++crashes_;
        const std::size_t killed = router_.OnBrokerCrash(node);
        if (recorder_ != nullptr && network_.IsLocalNode(node)) {
          recorder_->Record(TraceEventKind::kBrokerDown,
                            TraceRecord::kNoPacket, 0, node, NodeId(),
                            LinkId(), 0,
                            static_cast<std::uint16_t>(
                                killed > 0xFFFF ? 0xFFFF : killed));
        }
      } else {
        ++restarts_;
        router_.OnBrokerRestart(node);
        if (recorder_ != nullptr && network_.IsLocalNode(node)) {
          recorder_->Record(TraceEventKind::kBrokerUp, TraceRecord::kNoPacket,
                            0, node, NodeId(), LinkId());
        }
      }
    }
  }

  void ScheduleNext() {
    if (scheduler_.now() + epoch_ > end_) return;
    scheduler_.ScheduleAfter(epoch_, [this] {
      Sample();
      ScheduleNext();
    });
  }

  const OverlayNetwork& network_;
  Scheduler& scheduler_;
  Router& router_;
  FlightRecorder* recorder_;
  const SimDuration epoch_;
  const SimTime end_;
  std::vector<bool> up_;
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
};

// One engine shard: the complete single-threaded simulation state —
// workload, scheduler, network, monitor, router, metrics — built from the
// same (config, graph) on every shard, in the same order the pre-sharding
// engine built it (engine-origin event sequence numbers replicate across
// shards because the setup sequence does). Ownership gating decides what a
// shard *executes*: publish events, epoch rebuilds, churn, monitoring and
// lifecycle transitions replay identically everywhere (they are pure
// functions of config/seed/epoch), while sends, deliveries and per-broker
// protocol state run only on the shard owning the acting broker. A
// single-shard run is the degenerate case with a null shard map.
class Sim {
 public:
  Sim(const ScenarioConfig& config, const Graph& graph,
      const ShardMap* shard_map, int shard, ShardExchange* exchange);
  Sim(const Sim&) = delete;
  Sim& operator=(const Sim&) = delete;

  // Legacy single-shard execution: run to the end wall, drain, check,
  // flush observability, summarize.
  RunSummary RunSingle();

  // Sharded window-loop primitives (RunSharded below). DrainInbound injects
  // every exchange message other shards appended for us during the previous
  // window; the barrier between appends and this call makes the queues
  // safe single-writer/single-reader.
  void DrainInbound();
  [[nodiscard]] SimTime NextEventTime() const {
    return scheduler_.NextEventTime();
  }
  void RunWindow(SimTime horizon) { scheduler_.RunBefore(horizon); }
  [[nodiscard]] SimTime now() const { return scheduler_.now(); }

  // Shard-execution profiling (obs/shard_profiler.h). The profiler, when
  // attached, tallies drained exchange messages; the window loop reads the
  // events-executed delta instead of adding any per-event counter.
  void set_profiler(ShardProfiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] std::uint64_t events_executed() const {
    return scheduler_.events_executed();
  }

  // Drains the recorder's ring tail into the trace sink. RunSingle flushes
  // inline; the sharded engine calls this once per shard after the workers
  // join (single-threaded, like the summary merge) so short runs that never
  // filled a ring still land on disk.
  void FlushObservability() {
    if (recorder_ != nullptr) recorder_->Flush();
  }

  [[nodiscard]] SimInvariantChecker* checker() { return checker_.get(); }
  [[nodiscard]] const Router& router() const { return *router_; }

  // Merges per-shard observations into one RunSummary, bit-identical to
  // the 1-shard run: published-side counts are replicated (shard 0 speaks
  // for all), delivered-side counts and transmission tallies are disjoint
  // across shards (summed), and sample vectors are concatenated then
  // sorted — in BOTH modes, so the canonical order never depends on the
  // partition. sims[0] must already hold any absorbed checker state.
  static RunSummary BuildSummary(const std::vector<Sim*>& sims);

  // Telemetry join (single-threaded, like the summary merge): closes every
  // shard's samplers with the tail sample at global quiescence `end_time`,
  // folds them per MergePolicy and writes the --timeseries and
  // --metrics_json files. RunSingle passes its one-element list, so the
  // 1-shard and N-shard files come out of the same merge and writer.
  static void WriteTelemetry(const std::vector<Sim*>& sims, SimTime end_time);

 private:
  void OnPublish(const Message& message);
  void EpochTick();

  static SubscriptionTable MakeWorkload(const Graph& graph,
                                        const ScenarioConfig& config,
                                        const Rng& root) {
    Rng workload_rng = root.Fork("workload");
    return GenerateWorkload(graph, config, workload_rng);
  }
  static FailureSchedule MakeFailures(const Graph& graph,
                                      const ScenarioConfig& config,
                                      const Rng& root) {
    Rng link_pf_rng = root.Fork("link-pf");
    return FailureSchedule(
        root.Fork("failures")(),
        DrawHeterogeneousFractions(graph.edge_count(),
                                   config.failure_probability,
                                   config.failure_heterogeneity, link_pf_rng),
        config.failure_epoch, config.link_outage_epochs);
  }
  static GrayFailureSchedule MakeGray(const ScenarioConfig& config,
                                      const Rng& root) {
    GrayFailureConfig gray_config;
    gray_config.probability = config.gray_probability;
    gray_config.extra_loss = config.gray_extra_loss;
    gray_config.delay_factor = config.gray_delay_factor;
    gray_config.asymmetry = config.gray_asymmetry;
    gray_config.epoch = config.failure_epoch;
    return GrayFailureSchedule(root.Fork("gray")(), gray_config);
  }
  static OverlayNetworkConfig MakeNetworkConfig(const ScenarioConfig& config) {
    OverlayNetworkConfig network_config;
    network_config.loss_rate = config.loss_rate;
    network_config.ack_delay_factor = config.ack_delay_factor;
    network_config.serialization = config.link_serialization;
    network_config.delay_jitter = config.delay_jitter;
    return network_config;
  }
  static LinkMonitorConfig MakeMonitorConfig(const ScenarioConfig& config) {
    LinkMonitorConfig monitor_config;
    monitor_config.interval = config.monitor_interval;
    monitor_config.probe_count = config.monitor_probes;
    monitor_config.ewma_weight = config.monitor_ewma_weight;
    monitor_config.loss_rate = config.loss_rate;
    return monitor_config;
  }

  const ScenarioConfig& config_;
  const Graph& graph_;
  const Rng root_;
  SubscriptionTable subscriptions_;
  Scheduler scheduler_;
  const FailureSchedule failures_;
  const NodeFailureSchedule node_failures_;
  const GrayFailureSchedule gray_;
  // Crash schedule on its own substream: enabling it never perturbs the
  // failure/loss/gray sample paths (and vice versa).
  const BrokerCrashSchedule crashes_;
  OverlayNetwork network_;
  // Observability (read-only). Tracing shards cleanly — every shard owns a
  // recorder writing its own `.shardK` file, record sites gate on node
  // ownership so each event is captured exactly once — and metrics / time
  // series shard too (per-shard registries and stores, merged at join);
  // only the delay audit still forces a single-shard fallback in
  // RunScenario.
  std::unique_ptr<FlightRecorder> recorder_;
  std::ofstream trace_file_;
  std::ofstream audit_file_;
  std::unique_ptr<MetricsRegistry> registry_;
  LogLinearHistogram* delay_histogram_ = nullptr;
  LogLinearHistogram* rtt_histogram_ = nullptr;
  LinkMonitor monitor_;
  MetricsCollector metrics_;
  std::unique_ptr<SimInvariantChecker> checker_;
  std::unique_ptr<ObservedSink> observed_sink_;
  std::unique_ptr<Router> router_;
  const DcrdRouter* audit_router_ = nullptr;
  Rng churn_rng_;
  std::unique_ptr<LinkStateSampler> link_sampler_;
  std::unique_ptr<BrokerLifecycleSampler> lifecycle_sampler_;
  std::unique_ptr<TimeSeriesSampler> timeseries_;
  // --metrics_json: the same sampler at monitoring-epoch cadence.
  std::unique_ptr<TimeSeriesSampler> epoch_series_;
  ShardProfiler* profiler_ = nullptr;
  std::uint64_t next_message_id_ = 0;
  std::vector<std::unique_ptr<Publisher>> publishers_;
  const SimTime end_;
};

Sim::Sim(const ScenarioConfig& config, const Graph& graph,
         const ShardMap* shard_map, int shard, ShardExchange* exchange)
    : config_(config),
      graph_(graph),
      root_(config.seed),
      subscriptions_(MakeWorkload(graph, config, root_)),
      failures_(MakeFailures(graph, config, root_)),
      node_failures_(root_.Fork("node-failures")(),
                     config.node_failure_probability, config.failure_epoch,
                     config.node_outage_epochs),
      gray_(MakeGray(config, root_)),
      crashes_(root_.Fork("broker-crashes")(), config.broker_mtbf,
               config.broker_mttr, config.failure_epoch),
      network_(graph, scheduler_, failures_, MakeNetworkConfig(config),
               root_.Fork("loss"), node_failures_, gray_, crashes_),
      monitor_(graph, failures_, MakeMonitorConfig(config),
               root_.Fork("probes")),
      metrics_(subscriptions_),
      churn_rng_(root_.Fork("churn")),
      end_(SimTime::Zero() + config.sim_time) {
  if (shard_map != nullptr) {
    network_.ConfigureSharding(shard_map, shard, exchange);
  }

  // --- observability (read-only; see the ScenarioConfig block comment) ----
  const bool tracing = config_.trace || !config_.trace_out.empty();
  if (tracing) {
    FlightRecorder::Config recorder_config;
    recorder_config.ring_capacity = config_.trace_ring_capacity;
    recorder_ = std::make_unique<FlightRecorder>(scheduler_, recorder_config);
    recorder_->set_enabled(true);
    if (shard_map != nullptr) recorder_->set_shard(shard);
    if (!config_.trace_out.empty()) {
      // Sharded runs write one trace file per shard: `.shardK` inserted
      // before a trailing `.jsonl` (appended otherwise). dcrd_trace merges
      // the set deterministically by (t_us, seq, shard).
      std::string path = config_.trace_out;
      if (shard_map != nullptr) {
        const std::string tag = ".shard" + std::to_string(shard);
        constexpr std::string_view kExt = ".jsonl";
        if (path.size() >= kExt.size() &&
            path.compare(path.size() - kExt.size(), kExt.size(), kExt) == 0) {
          path.insert(path.size() - kExt.size(), tag);
        } else {
          path += tag;
        }
      }
      trace_file_.open(path, std::ios::trunc);
      if (trace_file_) {
        recorder_->set_sink(&trace_file_);
      } else {
        DCRD_LOG(kWarn) << "cannot write trace to " << path
                        << "; tracing to the in-memory ring only";
      }
    }
    network_.set_flight_recorder(recorder_.get());
  }
  if (!config_.delay_audit_out.empty()) {
    audit_file_.open(config_.delay_audit_out, std::ios::trunc);
    if (!audit_file_) {
      DCRD_LOG(kWarn) << "cannot write delay-audit model rows to "
                      << config_.delay_audit_out;
    }
  }
  if (!config_.metrics_json.empty() || !config_.timeseries_out.empty()) {
    registry_ = std::make_unique<MetricsRegistry>();
    RegisterNetworkCounters(*registry_, network_);
    // SLO pair counters, read live from the collector's tally. Published-
    // side counts replicate on every shard (each shard's collector sees the
    // full expected set); delivered-side counts land on the subscriber's
    // owning shard only — the same split BuildSummary merges by.
    const RunSummary& live = metrics_.live_summary();
    registry_->RegisterCounter("slo.messages_published",
                               &live.messages_published,
                               MergePolicy::kReplicated);
    registry_->RegisterCounter("slo.pairs_published", &live.expected_pairs,
                               MergePolicy::kReplicated);
    registry_->RegisterCounter("slo.pairs_delivered", &live.delivered_pairs);
    registry_->RegisterCounter("slo.pairs_on_time", &live.qos_pairs);
    delay_histogram_ = registry_->AddHistogram("delivery.delay_us");
    rtt_histogram_ = registry_->AddHistogram("transport.rtt_us");
  }

  if (config_.enable_invariant_checker) {
    InvariantCheckerConfig checker_config;
    checker_config.check_delivery_guarantee = config_.check_delivery_guarantee;
    checker_config.guarantee_window = config_.guarantee_window;
    checker_ = std::make_unique<SimInvariantChecker>(
        network_, subscriptions_, metrics_, checker_config);
    checker_->set_flight_recorder(recorder_.get());
  }
  DeliverySink& protocol_sink =
      checker_ ? static_cast<DeliverySink&>(*checker_) : metrics_;
  observed_sink_ = std::make_unique<ObservedSink>(protocol_sink,
                                                  recorder_.get(),
                                                  delay_histogram_);
  const bool observing = recorder_ != nullptr || registry_ != nullptr;

  RouterContext context;
  context.network = &network_;
  context.subscriptions = &subscriptions_;
  context.sink = observing ? static_cast<DeliverySink*>(observed_sink_.get())
                           : &protocol_sink;
  context.max_transmissions = config_.max_transmissions;
  context.ack_slack = config_.ack_slack;
  context.adaptive_rto = config_.adaptive_rto;
  context.peer_death = config_.peer_death_detection;
  context.peer_death_threshold = config_.peer_death_threshold;
  context.transport_observer = checker_.get();
  context.recorder = recorder_.get();
  context.hop_rtt_histogram = rtt_histogram_;
  router_ = MakeRouter(config_, context);
  // The delay auditor needs the model's sending lists, which only the DCRD
  // router materialises. Pure read-side: snapshots go to the audit file
  // only, after each rebuild, so routing never observes the auditor.
  if (audit_file_.is_open()) {
    audit_router_ = dynamic_cast<const DcrdRouter*>(router_.get());
    if (audit_router_ == nullptr) {
      DCRD_LOG(kWarn) << "delay_audit_out requested but router "
                      << router_->name()
                      << " has no Theorem-1 model; no rows written";
    }
  }

  if (registry_ != nullptr) {
    // Gauges sample live engine state; registered after the router exists.
    // (No scheduler.pending_events gauge: replicated control events sit in
    // every shard's queue, so per-shard pending counts cannot merge into
    // the 1-shard value under any policy.)
    registry_->RegisterGauge("router.open_episodes", [r = router_.get()] {
      return static_cast<std::uint64_t>(r->open_episodes());
    });
    registry_->RegisterGauge("transport.pending_copies", [r = router_.get()] {
      return static_cast<std::uint64_t>(r->transport_stats().pending_copies);
    });
    // Link up/gray state is a pure function of schedules and time — every
    // shard computes the same counts, so shard 0 speaks for all.
    registry_->RegisterGauge(
        "links.down",
        [this] {
          std::uint64_t down = 0;
          const SimTime now = scheduler_.now();
          for (std::size_t i = 0; i < graph_.edge_count(); ++i) {
            const LinkId link(static_cast<LinkId::underlying_type>(i));
            if (!network_.failures().IsUp(link, now)) ++down;
          }
          return down;
        },
        MergePolicy::kReplicated);
    registry_->RegisterGauge(
        "links.gray",
        [this] {
          std::uint64_t gray = 0;
          const SimTime now = scheduler_.now();
          for (std::size_t i = 0; i < graph_.edge_count(); ++i) {
            const LinkId link(static_cast<LinkId::underlying_type>(i));
            if (network_.gray().Active(link, now)) ++gray;
          }
          return gray;
        },
        MergePolicy::kReplicated);
  }

  // Bootstrap measurement + epoch rebuilds for the whole run. Churn, when
  // enabled, mutates the subscription table immediately before the rebuild
  // so routers always see a consistent epoch snapshot. All of it replays
  // identically on every shard (pure functions of config/seed/epoch).
  monitor_.MeasureAt(SimTime::Zero());
  router_->Rebuild(monitor_.view());
  for (SimTime epoch = SimTime::Zero() + config_.monitor_interval;
       epoch <= end_; epoch += config_.monitor_interval) {
    scheduler_.ScheduleAt(epoch, [this] { EpochTick(); });
  }
  if (recorder_ != nullptr || audit_router_ != nullptr) {
    // Observability epochs ride their own events rather than widening the
    // rebuild event. Scheduled after the rebuild loop, so at each epoch
    // instant they run *after* the rebuild (same time, later seq) and the
    // kRebuild record / audit rows reflect the post-rebuild state.
    // Rebuilds replay on every shard; shard 0 speaks for all in the trace
    // (the same convention the published-side summary counts use).
    if (recorder_ != nullptr && network_.shard() == 0) {
      recorder_->Record(TraceEventKind::kRebuild, TraceRecord::kNoPacket, 0,
                        NodeId(), NodeId(), LinkId());
    }
    if (audit_router_ != nullptr) {
      audit_router_->WriteAuditSnapshot(audit_file_, SimTime::Zero());
    }
    for (SimTime epoch = SimTime::Zero() + config_.monitor_interval;
         epoch <= end_; epoch += config_.monitor_interval) {
      scheduler_.ScheduleAt(epoch, [this] {
        if (recorder_ != nullptr && network_.shard() == 0) {
          recorder_->Record(TraceEventKind::kRebuild, TraceRecord::kNoPacket,
                            0, NodeId(), NodeId(), LinkId());
        }
        if (audit_router_ != nullptr) {
          audit_router_->WriteAuditSnapshot(audit_file_, scheduler_.now());
        }
      });
    }
  }
  if (recorder_ != nullptr) {
    link_sampler_ = std::make_unique<LinkStateSampler>(
        network_, scheduler_, *recorder_, config_.failure_epoch, end_,
        /*record=*/network_.shard() == 0);
  }
  if (network_.crashes().enabled()) {
    lifecycle_sampler_ = std::make_unique<BrokerLifecycleSampler>(
        network_, scheduler_, *router_, recorder_.get(),
        config_.failure_epoch, end_);
  }
  // Samplers are created on every shard at this same setup point — their
  // chain-scheduled events keep engine-origin sequence numbers replicated,
  // exactly like the link-state sampler — and strictly read-only, so
  // enabling them never changes results. Each chain starts after the
  // EpochTick events above, so a sample at an epoch instant runs after
  // that epoch's rebuild and sees the post-rebuild state.
  const auto make_sampler = [this](SimDuration interval) {
    TimeSeriesConfig ts_config;
    ts_config.interval = interval;
    ts_config.end = end_;
    ts_config.node_count = graph_.node_count();
    return std::make_unique<TimeSeriesSampler>(
        *registry_, scheduler_, ts_config,
        [this](std::vector<BrokerHealth>& out) {
          router_->SampleBrokerHealth(out);
        });
  };
  if (!config_.timeseries_out.empty()) {
    timeseries_ = make_sampler(config_.timeseries_interval);
  }
  if (!config_.metrics_json.empty()) {
    epoch_series_ = make_sampler(config_.monitor_interval);
  }

  // Publishers: one per topic, phase-jittered within the first interval.
  Rng phase_rng = root_.Fork("phases");
  for (std::size_t t = 0; t < subscriptions_.topic_count(); ++t) {
    const TopicId topic(static_cast<TopicId::underlying_type>(t));
    publishers_.push_back(std::make_unique<Publisher>(
        topic, subscriptions_.publisher(topic), config_.publish_interval,
        scheduler_, [this](const Message& message) { OnPublish(message); }));
    publishers_.back()->Start(
        SimDuration::Micros(phase_rng.NextInRange(
            0, config_.publish_interval.micros() - 1)),
        end_, next_message_id_);
  }
}

void Sim::OnPublish(const Message& message) {
  // A crashed broker cannot publish; its producer pauses and the message
  // never enters the system (not counted as an expected pair). No-op — and
  // byte-identical — when the crash process is off.
  if (network_.crashes().enabled() &&
      !network_.crashes().Up(message.publisher, network_.scheduler().now())) {
    return;
  }
  // aux16 carries the topic id so offline analysis can join a packet to
  // its (topic, subscriber) model row. Recorded on the publisher's owning
  // shard only — the publish replays everywhere, the record must not.
  if (recorder_ != nullptr && network_.IsLocalNode(message.publisher)) {
    recorder_->Record(TraceEventKind::kPublish, message.id.value, 0,
                      message.publisher, NodeId(), LinkId(), 0,
                      static_cast<std::uint16_t>(message.topic.underlying()));
  }
  // Published-pair bookkeeping replicates on every shard (each shard's
  // collector knows the full expected set); only the shard owning the
  // publisher launches copies — the rest replicate deterministic
  // publish-time router state (route caches) via OnRemotePublish.
  metrics_.OnPublished(message);
  if (checker_) checker_->OnPublished(message);
  if (network_.IsLocalNode(message.publisher)) {
    router_->Publish(message);
  } else {
    router_->OnRemotePublish(message);
  }
}

void Sim::EpochTick() {
  if (checker_) checker_->CheckEpoch();
  if (config_.subscription_churn > 0.0) {
    ApplySubscriptionChurn(graph_, config_, churn_rng_, subscriptions_);
  }
  monitor_.MeasureAt(scheduler_.now());
  router_->Rebuild(monitor_.view());
}

void Sim::DrainInbound() {
  ShardExchange* exchange = network_.exchange();
  if (exchange == nullptr) return;
  const int me = network_.shard();
  for (int src = 0; src < exchange->shards(); ++src) {
    const std::size_t count = exchange->Count(src, me);
    for (std::size_t i = 0; i < count; ++i) {
      XMsg& msg = exchange->Message(src, me, i);
      // Tally before AcceptRemote — acceptance may move the payload out of
      // the slot, and the byte model reads it.
      if (profiler_ != nullptr) profiler_->CountInbound(src, msg);
      network_.AcceptRemote(msg);
    }
    exchange->Reset(src, me);
  }
}

// Opens `path` and writes the merged profile; degrades to a warning (never
// an error — profiling must not fail a run) when the file cannot open.
void WriteShardProfileFile(const std::string& path,
                           const ShardProfile& profile) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    DCRD_LOG(kWarn) << "cannot write shard profile to " << path;
    return;
  }
  WriteShardProfileJson(file, profile);
}

void Sim::WriteTelemetry(const std::vector<Sim*>& sims, SimTime end_time) {
  const auto write = [&](const std::string& path,
                         std::unique_ptr<TimeSeriesSampler> Sim::*sampler) {
    if (path.empty()) return;
    std::vector<const TimeSeriesStore*> stores;
    stores.reserve(sims.size());
    for (Sim* sim : sims) {
      (sim->*sampler)->FinalizeAt(end_time);
      stores.push_back(&(sim->*sampler)->store());
    }
    // Same degrade-to-warning contract as the shard profile.
    std::ofstream file(path, std::ios::trunc);
    if (!file) {
      DCRD_LOG(kWarn) << "cannot write time series to " << path;
      return;
    }
    WriteTimeSeriesJson(file, MergeTimeSeriesStores(stores));
  };
  const ScenarioConfig& config = sims.front()->config_;
  write(config.timeseries_out, &Sim::timeseries_);
  write(config.metrics_json, &Sim::epoch_series_);
}

RunSummary Sim::RunSingle() {
  // The degenerate 1-shard profile: one all-busy round covering the whole
  // run, a 1x1 empty traffic matrix. Same schema as the sharded profile so
  // downstream tooling never branches on shard count.
  const bool profiling = !config_.shard_profile_out.empty();
  const auto wall_start = std::chrono::steady_clock::now();
  try {
    scheduler_.RunUntil(end_);
    // Drain in-flight deliveries, timers and reroutes published before
    // `end`.
    scheduler_.Run();
    if (checker_) checker_->CheckEndOfRun(*router_, scheduler_.now());
  } catch (...) {
    // A throwing cell is exactly when the last events matter most; dump the
    // ring before the exception unwinds the engine state it describes.
    if (recorder_ != nullptr) {
      recorder_->DumpPostmortem(std::cerr, 256, "exception during run");
    }
    throw;
  }

  std::vector<Sim*> self{this};
  WriteTelemetry(self, scheduler_.now());
  if (recorder_ != nullptr) recorder_->Flush();
  if (profiling) {
    const auto busy_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - wall_start);
    ShardProfiler profiler(0, 1);
    profiler.AddRound(scheduler_.now().micros(),
                      static_cast<std::uint64_t>(busy_ns.count()), 0,
                      scheduler_.events_executed());
    WriteShardProfileFile(config_.shard_profile_out,
                          MergeShardProfiles({&profiler}, 0));
  }
  return BuildSummary(self);
}

RunSummary Sim::BuildSummary(const std::vector<Sim*>& sims) {
  Sim& first = *sims.front();
  TrafficCounters data, ack, control;
  for (Sim* sim : sims) {
    data.Add(sim->network_.counters(TrafficClass::kData));
    ack.Add(sim->network_.counters(TrafficClass::kAck));
    control.Add(sim->network_.counters(TrafficClass::kControl));
  }
  RunSummary summary = first.metrics_.Summarize(data.attempted, ack.attempted,
                                                control.attempted);
  for (std::size_t s = 1; s < sims.size(); ++s) {
    // Deliveries happen only on the subscriber's owning shard, so the
    // delivered-side counts are disjoint sums; the published side (expected
    // pairs, messages published) replicated and is already in `summary`.
    const RunSummary peer = sims[s]->metrics_.Summarize(0, 0, 0);
    summary.delivered_pairs += peer.delivered_pairs;
    summary.qos_pairs += peer.qos_pairs;
    summary.duplicate_deliveries += peer.duplicate_deliveries;
    summary.delay_ms_samples.insert(summary.delay_ms_samples.end(),
                                    peer.delay_ms_samples.begin(),
                                    peer.delay_ms_samples.end());
    summary.lateness_ratios.insert(summary.lateness_ratios.end(),
                                   peer.lateness_ratios.begin(),
                                   peer.lateness_ratios.end());
  }
  TransportStats transport{};
  for (Sim* sim : sims) {
    const TransportStats t = sim->router_->transport_stats();
    transport.retransmissions += t.retransmissions;
    transport.spurious_retransmissions += t.spurious_retransmissions;
    transport.rtt_samples += t.rtt_samples;
    transport.peer_deaths += t.peer_deaths;
    transport.peer_probes += t.peer_probes;
    transport.peer_revivals += t.peer_revivals;
    transport.crash_copies_killed += t.crash_copies_killed;
  }
  summary.retransmissions = transport.retransmissions;
  summary.spurious_retransmissions = transport.spurious_retransmissions;
  summary.rtt_samples = transport.rtt_samples;
  summary.peer_deaths = transport.peer_deaths;
  summary.peer_probes = transport.peer_probes;
  summary.peer_revivals = transport.peer_revivals;
  summary.crash_copies_killed = transport.crash_copies_killed;
  summary.dropped_crash =
      data.dropped_crash + ack.dropped_crash + control.dropped_crash;
  if (first.lifecycle_sampler_ != nullptr) {
    // Crash/restart transitions replicate on every shard; shard 0 counts.
    summary.broker_crashes = first.lifecycle_sampler_->crashes();
    summary.broker_restarts = first.lifecycle_sampler_->restarts();
  }
  // Resync bookkeeping (completion timers, stats) replays identically on
  // every shard; shard 0 speaks for all, exactly like the published side.
  const ResyncStats resync = first.router_->resync_stats();
  summary.resyncs_started = resync.resyncs_started;
  summary.resyncs_completed = resync.resyncs_completed;
  summary.total_resync_time_us =
      static_cast<std::uint64_t>(resync.total_resync_time.micros());
  summary.max_resync_time_us =
      static_cast<std::uint64_t>(resync.max_resync_time.micros());
  if (first.recorder_ != nullptr) {
    summary.trace_records_overwritten = first.recorder_->overwritten();
    if (first.recorder_->overwritten() > 0 && !first.config_.trace_out.empty()) {
      // A sink-mode trace should be lossless; overwrites here mean the sink
      // failed to open and the capture silently degraded to the ring.
      DCRD_LOG(kWarn) << "flight recorder overwrote "
                      << first.recorder_->overwritten()
                      << " record(s); the captured trace is lossy";
    }
  }
  if (first.checker_) {
    summary.invariant_violation_count = first.checker_->violation_count();
    summary.invariant_violations = first.checker_->violations();
    summary.crash_excused_duplicates =
        first.checker_->crash_excused_duplicates();
  }
  // Canonical sample order. Deliveries land per owning shard, so the
  // concatenation order above is partition-dependent; sorting — in the
  // single-shard path too — makes the summary bit-identical across shard
  // counts. Every consumer is order-insensitive (percentile/CDF code sorts
  // its own copy).
  std::sort(summary.delay_ms_samples.begin(), summary.delay_ms_samples.end());
  std::sort(summary.lateness_ratios.begin(), summary.lateness_ratios.end());
  return summary;
}

// Conservative parallel window loop. Each of the N shard threads
// alternates: (a) drain inbound exchange queues and publish its next
// pending event time M_s, (b) barrier — the completion computes the global
// window stop H = min_s(M_s) + lookahead, (c) run every event strictly
// before H, (d) barrier — making this window's exchange appends visible to
// the next drain. Any event a shard executes sits at t >= min_s(M_s), and
// a cross-shard arrival lands at >= t + lookahead >= H, so no injection
// can ever land inside a window the receiver already executed — the
// classic Chandy-Misra conservative argument, with the lookahead equal to
// the minimum worst-case-shrunk cross-shard link delay. Termination: all
// schedulers empty at a drain barrier implies the queues are empty too
// (appends only happen inside windows, drains precede the publish).
RunSummary RunSharded(const ScenarioConfig& config, const Graph& graph,
                      const ShardMap& map, std::int64_t lookahead_micros) {
  const int shards = map.shard_count;
  ShardExchange exchange(shards);
  std::vector<std::unique_ptr<Sim>> sims(shards);
  // One profiler per shard, touched only by its owning thread; the join
  // before the merge is the only synchronization the accumulators need.
  const bool profiling = !config.shard_profile_out.empty();
  std::vector<std::unique_ptr<ShardProfiler>> profilers(
      profiling ? static_cast<std::size_t>(shards) : 0);
  std::vector<std::exception_ptr> errors(shards);
  std::atomic<bool> abort{false};
  std::vector<SimTime> next(static_cast<std::size_t>(shards),
                            SimTime::Max());
  const SimDuration lookahead = SimDuration::Micros(lookahead_micros);
  SimTime horizon = SimTime::Zero();
  bool done = false;

  // The completion runs on exactly one thread while the rest block in
  // arrive_and_wait, so the plain writes to horizon/done are synchronized
  // by the barrier itself. It also fires at the post-window barrier, where
  // it recomputes the same values from the unchanged `next` array — a
  // benign no-op kept for the simplicity of a single barrier object.
  std::barrier sync(shards, [&]() noexcept {
    if (abort.load(std::memory_order_relaxed)) {
      done = true;
      return;
    }
    SimTime min_next = SimTime::Max();
    for (const SimTime t : next) min_next = std::min(min_next, t);
    if (min_next == SimTime::Max()) {
      done = true;
      return;
    }
    done = false;
    horizon = min_next + lookahead;
  });

  auto worker = [&](int shard) {
    bool failed = false;
    try {
      sims[static_cast<std::size_t>(shard)] = std::make_unique<Sim>(
          config, graph, &map, shard, &exchange);
    } catch (...) {
      errors[static_cast<std::size_t>(shard)] = std::current_exception();
      abort.store(true, std::memory_order_relaxed);
      failed = true;
    }
    Sim* sim = sims[static_cast<std::size_t>(shard)].get();
    ShardProfiler* prof = nullptr;
    if (profiling && !failed) {
      profilers[static_cast<std::size_t>(shard)] =
          std::make_unique<ShardProfiler>(shard, shards);
      prof = profilers[static_cast<std::size_t>(shard)].get();
      sim->set_profiler(prof);
    }
    // A failed shard keeps arriving at both barriers (reporting an empty
    // schedule) so the healthy shards never deadlock; the abort flag turns
    // the next completion into `done`.
    //
    // Profiling timestamps t0..t4 split each round's wall clock into busy
    // (drain + window) and stall (both barrier waits). Unprofiled runs take
    // one untaken null-check branch per timing point and none per event —
    // the window's event count comes from the scheduler's existing
    // events_executed() delta.
    using ProfClock = std::chrono::steady_clock;
    ProfClock::time_point t0, t1, t2, t3;
    while (true) {
      if (prof != nullptr) t0 = ProfClock::now();
      if (!failed) {
        try {
          sim->DrainInbound();
          next[static_cast<std::size_t>(shard)] = sim->NextEventTime();
        } catch (...) {
          errors[static_cast<std::size_t>(shard)] = std::current_exception();
          abort.store(true, std::memory_order_relaxed);
          failed = true;
        }
      }
      if (failed) next[static_cast<std::size_t>(shard)] = SimTime::Max();
      if (prof != nullptr) t1 = ProfClock::now();
      sync.arrive_and_wait();
      if (done) break;
      if (prof != nullptr) t2 = ProfClock::now();
      const std::uint64_t events_before =
          failed ? 0 : sim->events_executed();
      if (!failed) {
        try {
          sim->RunWindow(horizon);
        } catch (...) {
          errors[static_cast<std::size_t>(shard)] = std::current_exception();
          abort.store(true, std::memory_order_relaxed);
          failed = true;
        }
      }
      if (prof != nullptr) t3 = ProfClock::now();
      sync.arrive_and_wait();
      if (prof != nullptr) {
        const auto ns = [](ProfClock::duration d) {
          return static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                  .count());
        };
        const auto t4 = ProfClock::now();
        prof->AddRound(
            horizon.micros(), ns(t1 - t0) + ns(t3 - t2),
            ns(t2 - t1) + ns(t4 - t3),
            failed ? 0 : sim->events_executed() - events_before);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) threads.emplace_back(worker, s);
  for (std::thread& thread : threads) thread.join();
  for (int s = 0; s < shards; ++s) {
    if (errors[static_cast<std::size_t>(s)]) {
      std::rethrow_exception(errors[static_cast<std::size_t>(s)]);
    }
  }
  for (const auto& sim : sims) sim->FlushObservability();

  if (profiling) {
    std::vector<const ShardProfiler*> views;
    views.reserve(profilers.size());
    for (const auto& prof : profilers) views.push_back(prof.get());
    WriteShardProfileFile(config.shard_profile_out,
                          MergeShardProfiles(views, lookahead_micros));
  }

  // Global quiescence time: RunUntil pins the 1-shard clock to the end
  // wall, then Run() advances it to the last drained event; the max over
  // shard clocks (the last event executes on its owner) reproduces that.
  SimTime end_time = SimTime::Zero() + config.sim_time;
  for (const auto& sim : sims) end_time = std::max(end_time, sim->now());

  std::vector<Sim*> views;
  views.reserve(sims.size());
  for (const auto& sim : sims) views.push_back(sim.get());
  // Closed at the same global quiescence time the 1-shard run would use,
  // so the merged files are byte-identical to the 1-shard documents.
  Sim::WriteTelemetry(views, end_time);

  if (views.front()->checker() != nullptr) {
    std::uint64_t pending_copies = 0;
    std::size_t open_episodes = 0;
    for (Sim* sim : views) {
      pending_copies += sim->router().transport_stats().pending_copies;
      open_episodes += sim->router().open_episodes();
    }
    // Conservation (CheckEpoch) is sound per shard — run it on each peer
    // before folding its observations into shard 0, then close out with
    // the summed quiescence counts and the merged delivery-guarantee scan.
    for (std::size_t s = 1; s < views.size(); ++s) {
      views[s]->checker()->CheckEpoch();
      views.front()->checker()->AbsorbPeer(*views[s]->checker());
    }
    views.front()->checker()->CheckEndOfRun(pending_copies, open_episodes,
                                            end_time);
  }
  return Sim::BuildSummary(views);
}

}  // namespace

RunSummary RunScenario(const ScenarioConfig& config) {
  const Rng root(config.seed);

  // Topology and workload draw from substreams independent of the failure
  // and loss processes, so changing Pf/Pl/router never reshapes the overlay.
  // Built once here — the graph is immutable, so shard threads share it.
  Rng topology_rng = root.Fork("topology");
  const DelayRange delays{config.link_delay_min, config.link_delay_max};
  const Graph graph = [&] {
    if (!config.topology_file.empty()) {
      std::ifstream file(config.topology_file);
      DCRD_CHECK(file.good())
          << "cannot open topology file " << config.topology_file;
      std::string error;
      auto loaded = ReadEdgeList(file, &error);
      DCRD_CHECK(loaded.has_value())
          << config.topology_file << ": " << error;
      return *std::move(loaded);
    }
    return config.topology == TopologyKind::kFullMesh
               ? FullMesh(config.node_count, topology_rng, delays)
               : RandomConnected(config.node_count, config.degree,
                                 topology_rng, delays);
  }();

  int shards = std::max(config.shards, 1);
  shards = std::min<int>(shards, static_cast<int>(graph.node_count()));
  if (shards > 1 && config.dcrd_distributed) {
    DCRD_LOG(kWarn) << "sharded execution does not support the distributed "
                       "gossip computation; running on one shard";
    shards = 1;
  }
  // Tracing, the shard profiler, metrics and the time-series sampler all
  // run sharded (per-shard captures, merged at join); only the delay audit
  // — whose rows need a live global event order — still forces the
  // fallback.
  if (shards > 1 && !config.delay_audit_out.empty()) {
    DCRD_LOG(kWarn) << "delay-audit capture is single-shard; "
                       "running on one shard";
    shards = 1;
  }
  if (shards > 1) {
    ShardMap map;
    if (config.shard_assignment.empty()) {
      map.owner = BfsContiguousPartition(graph, shards);
    } else {
      DCRD_CHECK(config.shard_assignment.size() == graph.node_count())
          << "shard_assignment covers " << config.shard_assignment.size()
          << " nodes; topology has " << graph.node_count();
      for (const int owner : config.shard_assignment) {
        DCRD_CHECK(owner >= 0 && owner < shards)
            << "shard_assignment owner " << owner << " outside [0, "
            << shards << ")";
      }
      map.owner = config.shard_assignment;
    }
    map.shard_count = shards;
    // Cap far below the SimTime range so `min + lookahead` cannot overflow
    // even when no edge crosses shards (INT64_MAX sentinel).
    const std::int64_t lookahead = std::min(
        MinCrossShardDelayMicros(graph, map.owner, config.delay_jitter,
                                 config.gray_delay_factor,
                                 config.gray_probability),
        std::int64_t{1} << 50);
    if (lookahead < 1) {
      DCRD_LOG(kWarn) << "cross-shard lookahead below 1us (jitter or gray "
                         "shrink can erase a cross-shard delay); running on "
                         "one shard";
      shards = 1;
    } else {
      return RunSharded(config, graph, map, lookahead);
    }
  }

  Sim sim(config, graph, nullptr, 0, nullptr);
  return sim.RunSingle();
}

}  // namespace dcrd
