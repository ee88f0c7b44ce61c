// Simulator side of the end-to-end benchmark (perfbench/run.py drives it).
//
//   dcrd_perfbench run   --workload W --seed S [--sim_seconds T]
//   dcrd_perfbench setup --workload W --seed S
//   dcrd_perfbench trace --workload W --seed S --profile PATH [--sim_seconds T]
//
// Every mode prints exactly one JSON object on stdout.
//
// `run` and `setup` are one operation each: the workload's scenario (all
// four routers for baselines160) through the public entry point
// RunScenario, timed by wall clock and process CPU, with the peak RSS of
// this process. `setup` is the same call at zero simulated time.
//
// `trace` is the per-layer split. It rebuilds the single-shard engine of
// src/sim/engine.cc (class Sim) from public components — same Rng forks,
// same event-scheduling order, no observability hooks — and wraps a span
// around every call it makes into a layer. The composed run must reproduce
// RunScenario's RunSummary field for field; it also replays the DCRD table
// kernel after every rebuild and reads back the shard profile of a
// four-shard RunScenario of the same config.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "dcrd/dcrd_router.h"
#include "dcrd/dr_computation.h"
#include "event/scheduler.h"
#include "graph/topology.h"
#include "net/broker_lifecycle.h"
#include "net/failure_schedule.h"
#include "net/gray_failure.h"
#include "net/link_monitor.h"
#include "net/overlay_network.h"
#include "obs/shard_profiler.h"
#include "pubsub/publisher.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "sim/workload.h"

namespace dcrd {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads ---------------------------------------------------------------

// Simulated length: two epoch rebuilds (t = 300 s, 600 s) after the
// initial one.
constexpr std::int64_t kDefaultSimSeconds = 600;

// Per-topic subscription probability, fixed at the midpoint of the paper's
// [0.2, 0.6] range. With the range, the number of (topic, subscriber) pairs
// — and with it the work of a run — varies by about ±20% between seeds;
// fixed, a seed still redraws the overlay, publishers, subscriber sets,
// failures and losses, but every seed carries about the same load.
constexpr double kSubscriberProbability = 0.4;

ScenarioConfig Paper160(std::uint64_t seed, std::int64_t sim_seconds) {
  ScenarioConfig c;
  c.node_count = 160;
  c.degree = 8;
  c.failure_probability = 0.06;
  c.loss_rate = 1e-4;
  c.max_transmissions = 1;
  c.topic_count = 10;
  c.subscriber_probability_min = kSubscriberProbability;
  c.subscriber_probability_max = kSubscriberProbability;
  c.publish_interval = SimDuration::Seconds(1);
  c.monitor_interval = SimDuration::Seconds(300);
  c.sim_time = SimDuration::Seconds(sim_seconds);
  c.seed = seed;
  return c;
}

// One entry per RunScenario call the workload makes.
std::vector<ScenarioConfig> WorkloadConfigs(const std::string& name,
                                            std::uint64_t seed,
                                            std::int64_t sim_seconds) {
  if (name == "paper160") return {Paper160(seed, sim_seconds)};
  if (name == "lossy40_fast") {
    ScenarioConfig c;
    c.node_count = 40;
    c.degree = 6;
    c.failure_probability = 0.1;
    c.loss_rate = 0.01;
    c.max_transmissions = 2;
    c.topic_count = 10;
    c.subscriber_probability_min = kSubscriberProbability;
    c.subscriber_probability_max = kSubscriberProbability;
    c.publish_interval = SimDuration::Millis(100);
    c.monitor_interval = SimDuration::Seconds(300);
    c.sim_time = SimDuration::Seconds(sim_seconds);
    c.seed = seed;
    return {c};
  }
  if (name == "baselines160") {
    std::vector<ScenarioConfig> configs;
    for (const RouterKind kind : {RouterKind::kRTree, RouterKind::kDTree,
                                  RouterKind::kOracle,
                                  RouterKind::kMultipath}) {
      ScenarioConfig c = Paper160(seed, sim_seconds);
      c.router = kind;
      configs.push_back(c);
    }
    return configs;
  }
  throw std::invalid_argument("unknown workload " + name);
}

// DCRD on baselines160's config, traced next to the baselines as the
// reference they are compared against. It supplies the dcrd.* metrics,
// which no baseline router has.
std::optional<ScenarioConfig> DcrdReference(const std::string& name,
                                            std::uint64_t seed,
                                            std::int64_t sim_seconds) {
  if (name == "baselines160") return Paper160(seed, sim_seconds);
  return std::nullopt;
}

// Shard count of the profiled RunScenario in every traced run: it measures
// the sharded window loop (shard.*) and checks that the sharded engine
// reproduces the one-shard result.
constexpr int kProfileShards = 4;

// Metric-name suffix of a baseline router ("" for DCRD).
std::string RouterSuffix(RouterKind kind) {
  switch (kind) {
    case RouterKind::kDcrd: return "";
    case RouterKind::kRTree: return ".rtree";
    case RouterKind::kDTree: return ".dtree";
    case RouterKind::kOracle: return ".oracle";
    case RouterKind::kMultipath: return ".multipath";
  }
  return "";
}

// --- result digest -----------------------------------------------------------

class Fnv {
 public:
  void Add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  void Add(std::uint64_t v) { Add(&v, sizeof v); }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof v);
    Add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// Every RunSummary field, samples included, folded into one hash.
void AddSummary(Fnv& h, const RunSummary& s) {
  for (const std::uint64_t v :
       {s.expected_pairs, s.delivered_pairs, s.qos_pairs,
        s.duplicate_deliveries, s.data_transmissions, s.ack_transmissions,
        s.control_transmissions, s.messages_published, s.retransmissions,
        s.spurious_retransmissions, s.rtt_samples, s.broker_crashes,
        s.broker_restarts, s.dropped_crash, s.crash_copies_killed,
        s.peer_deaths, s.peer_probes, s.peer_revivals, s.resyncs_started,
        s.resyncs_completed, s.total_resync_time_us, s.max_resync_time_us,
        s.crash_excused_duplicates, s.trace_records_overwritten,
        s.invariant_violation_count}) {
    h.Add(v);
  }
  for (const std::string& v : s.invariant_violations) h.Add(v.data(), v.size());
  h.Add(std::uint64_t{s.lateness_ratios.size()});
  for (const double v : s.lateness_ratios) h.Add(v);
  h.Add(std::uint64_t{s.delay_ms_samples.size()});
  for (const double v : s.delay_ms_samples) h.Add(v);
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string SummaryDigest(const RunSummary& s) {
  Fnv h;
  AddSummary(h, s);
  return Hex(h.value());
}

// --- JSON output -------------------------------------------------------------

std::string JsonString(const std::string& v) {
  std::string quoted = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += (c == '\n') ? ' ' : c;
  }
  return quoted + "\"";
}

// Flat JSON object writer; values keep all their digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "{" : ",") << "\"" << key << "\":" << json;
    first_ = false;
    return *this;
  }
  [[nodiscard]] std::string str() const {
    return first_ ? "{}" : out_.str() + "}";
  }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

std::string SummaryJson(const ScenarioConfig& config, const RunSummary& s) {
  return JsonObject()
      .Str("router", RouterName(config.router))
      .Int("expected_pairs", s.expected_pairs)
      .Int("delivered_pairs", s.delivered_pairs)
      .Int("qos_pairs", s.qos_pairs)
      .Int("data_transmissions", s.data_transmissions)
      .Int("ack_transmissions", s.ack_transmissions)
      .Int("duplicate_deliveries", s.duplicate_deliveries)
      .Str("digest", SummaryDigest(s))
      .str();
}

// --- host measurements -------------------------------------------------------

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Fixed CPU-bound loop, independent of the simulator: its wall time next to
// every operation records how fast the host ran at that moment.
double CalibrationSeconds() {
  const auto start = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    asm volatile("" : "+r"(x));  // one dependent step per iteration, kept
  }
  return SecondsSince(start);
}

// --- untraced operations -----------------------------------------------------

int RunOperation(const std::vector<ScenarioConfig>& configs) {
  const double calib_s = CalibrationSeconds();
  Fnv digest;
  std::string summaries = "[";
  const double cpu_start = CpuSeconds();
  const auto wall_start = Clock::now();
  for (const ScenarioConfig& config : configs) {
    const RunSummary summary = RunScenario(config);
    AddSummary(digest, summary);
    if (summaries.size() > 1) summaries += ",";
    summaries += SummaryJson(config, summary);
  }
  const double wall_s = SecondsSince(wall_start);
  const double cpu_s = CpuSeconds() - cpu_start;
  std::cout << JsonObject()
                   .Num("wall_s", wall_s)
                   .Num("cpu_s", cpu_s)
                   .Num("peak_rss_mb", PeakRssMb())
                   .Num("calib_s", calib_s)
                   .Str("digest", Hex(digest.value()))
                   .Raw("summaries", summaries + "]")
                   .str()
            << "\n";
  return 0;
}

// --- spans -------------------------------------------------------------------

enum SpanId : int {
  kTopology,
  kWorkload,
  kMonitor,
  kRebuild0,  // the initial Router::Rebuild (set-up)
  kReplay0,   // kernel replay after the initial rebuild (check only)
  kRun,       // Scheduler::RunUntil + Run
  kEpoch,     // one epoch tick: monitor + rebuild + replay
  kRebuild,   // epoch Router::Rebuild
  kReplay,    // kernel replay after an epoch rebuild
  kPublish,   // Router::Publish
  kDeliver,   // DeliverySink::OnDelivered
  kSpanCount,
};

// Nested wall-clock spans aggregated on the fly: per span name the total,
// self (total minus directly nested spans), count and maximum. Spans never
// cross threads; the composed engine is single-threaded.
class SpanTable {
 public:
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    double max_s = 0.0;
    std::uint64_t count = 0;
  };

  void Begin(SpanId id) { stack_.push_back(Open{id, Clock::now(), 0.0}); }

  void End() {
    const Open open = stack_.back();
    stack_.pop_back();
    const double s = SecondsSince(open.start);
    Totals& t = totals_[open.id];
    t.total_s += s;
    t.self_s += s - open.children_s;
    t.max_s = std::max(t.max_s, s);
    ++t.count;
    if (!stack_.empty()) {
      stack_.back().children_s += s;
      if (stack_.back().id == kRun) run_children_s_ += s;
    }
  }

  [[nodiscard]] const Totals& operator[](SpanId id) const {
    return totals_[id];
  }
  // Wall time of spans opened directly inside the run span.
  [[nodiscard]] double run_children_s() const { return run_children_s_; }

 private:
  struct Open {
    SpanId id;
    Clock::time_point start;
    double children_s;
  };
  std::vector<Open> stack_;
  Totals totals_[kSpanCount];
  double run_children_s_ = 0.0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanTable& table, SpanId id) : table_(table) { table_.Begin(id); }
  ~ScopedSpan() { table_.End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTable& table_;
};

// Returns build() timed as one span; for member initialisers.
template <typename F>
auto Timed(SpanTable& spans, SpanId id, F&& build) {
  ScopedSpan span(spans, id);
  return build();
}

// Forwards to the metrics collector inside a sim.deliver span.
class TimedSink final : public DeliverySink {
 public:
  TimedSink(DeliverySink& next, SpanTable& spans)
      : next_(next), spans_(spans) {}
  void OnDelivered(const Message& message, NodeId subscriber,
                   SimTime arrival) override {
    ScopedSpan span(spans_, kDeliver);
    next_.OnDelivered(message, subscriber, arrival);
  }

 private:
  DeliverySink& next_;
  SpanTable& spans_;
};

// --- kernel replay -----------------------------------------------------------

bool SameEntries(const std::vector<ViaEntry>& a,
                 const std::vector<ViaEntry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ViaEntry& x, const ViaEntry& y) {
                      return x.neighbor == y.neighbor && x.link == y.link &&
                             x.d_via_us == y.d_via_us && x.r_via == y.r_via;
                    });
}

bool SameTables(const DestinationTables& a, const DestinationTables& b) {
  if (a.per_node.size() != b.per_node.size()) return false;
  for (std::size_t v = 0; v < a.per_node.size(); ++v) {
    const NodeTables& x = a.per_node[v];
    const NodeTables& y = b.per_node[v];
    if (x.dr.d_us != y.dr.d_us || x.dr.r != y.dr.r ||
        !SameEntries(x.primary, y.primary) ||
        !SameEntries(x.fallback, y.fallback)) {
      return false;
    }
  }
  return true;
}

struct ReplayStats {
  std::uint64_t tables = 0;  // epoch replays only (dcrd.tables)
  std::uint64_t sweeps = 0;
  std::uint64_t converged = 0;
  std::uint64_t mismatches = 0;  // every replay, initial included
};

// --- composed single-shard engine --------------------------------------------

struct TracedResult {
  RunSummary summary;
  bool dcrd = false;  // the router under test is DcrdRouter
  double wall_s = 0.0;
  std::uint64_t events = 0;
  TrafficCounters data, ack, control;
  std::size_t open_episodes = 0;
  TransportStats transport;
  std::uint64_t dropped_undeliverable = 0;
  ReplayStats replay;
};

FailureSchedule MakeFailures(const Graph& graph, const ScenarioConfig& config,
                             const Rng& root) {
  Rng link_pf_rng = root.Fork("link-pf");
  return FailureSchedule(
      root.Fork("failures")(),
      DrawHeterogeneousFractions(graph.edge_count(),
                                 config.failure_probability,
                                 config.failure_heterogeneity, link_pf_rng),
      config.failure_epoch, config.link_outage_epochs);
}

GrayFailureSchedule MakeGray(const ScenarioConfig& config, const Rng& root) {
  GrayFailureConfig gray;
  gray.probability = config.gray_probability;
  gray.extra_loss = config.gray_extra_loss;
  gray.delay_factor = config.gray_delay_factor;
  gray.asymmetry = config.gray_asymmetry;
  gray.epoch = config.failure_epoch;
  return GrayFailureSchedule(root.Fork("gray")(), gray);
}

OverlayNetworkConfig MakeNetworkConfig(const ScenarioConfig& config) {
  OverlayNetworkConfig network;
  network.loss_rate = config.loss_rate;
  network.ack_delay_factor = config.ack_delay_factor;
  network.serialization = config.link_serialization;
  network.delay_jitter = config.delay_jitter;
  return network;
}

LinkMonitorConfig MakeMonitorConfig(const ScenarioConfig& config) {
  LinkMonitorConfig monitor;
  monitor.interval = config.monitor_interval;
  monitor.probe_count = config.monitor_probes;
  monitor.ewma_weight = config.monitor_ewma_weight;
  monitor.loss_rate = config.loss_rate;
  return monitor;
}

// The engine covers what the benchmark's workloads use: a generated
// random-degree topology, no churn, no crash process and no observability.
// Anything else would need Sim's extra event chains to stay reproducible.
void RequireComposable(const ScenarioConfig& config) {
  if (!config.topology_file.empty() ||
      config.topology != TopologyKind::kRandomDegree ||
      config.subscription_churn > 0.0 || config.broker_mtbf.micros() > 0 ||
      config.enable_invariant_checker || config.dcrd_distributed ||
      config.trace || !config.trace_out.empty() ||
      !config.metrics_json.empty() || !config.timeseries_out.empty() ||
      !config.delay_audit_out.empty()) {
    throw std::invalid_argument(
        "the composed engine does not model this scenario");
  }
}

class TracedEngine {
 public:
  TracedEngine(const ScenarioConfig& config, SpanTable& spans)
      : spans_(spans),
        root_(config.seed),
        graph_(Timed(spans_, kTopology, [&] {
          Rng topology_rng = root_.Fork("topology");
          return RandomConnected(
              config.node_count, config.degree, topology_rng,
              DelayRange{config.link_delay_min, config.link_delay_max});
        })),
        subscriptions_(Timed(spans_, kWorkload, [&] {
          Rng workload_rng = root_.Fork("workload");
          return GenerateWorkload(graph_, config, workload_rng);
        })),
        failures_(MakeFailures(graph_, config, root_)),
        node_failures_(root_.Fork("node-failures")(),
                       config.node_failure_probability, config.failure_epoch,
                       config.node_outage_epochs),
        gray_(MakeGray(config, root_)),
        crashes_(root_.Fork("broker-crashes")(), config.broker_mtbf,
                 config.broker_mttr, config.failure_epoch),
        network_(graph_, scheduler_, failures_, MakeNetworkConfig(config),
                 root_.Fork("loss"), node_failures_, gray_, crashes_),
        monitor_(graph_, failures_, MakeMonitorConfig(config),
                 root_.Fork("probes")),
        metrics_(subscriptions_),
        sink_(metrics_, spans_),
        end_(SimTime::Zero() + config.sim_time) {
    RouterContext context;
    context.network = &network_;
    context.subscriptions = &subscriptions_;
    context.sink = &sink_;
    context.max_transmissions = config.max_transmissions;
    context.ack_slack = config.ack_slack;
    context.adaptive_rto = config.adaptive_rto;
    context.peer_death = config.peer_death_detection;
    context.peer_death_threshold = config.peer_death_threshold;
    router_ = MakeRouter(config, context);
    dcrd_ = dynamic_cast<const DcrdRouter*>(router_.get());
    replay_config_.max_transmissions = config.max_transmissions;
    replay_config_.ordering = config.dcrd_ordering;

    Measure();
    {
      ScopedSpan span(spans_, kRebuild0);
      router_->Rebuild(monitor_.view());
    }
    Replay(kReplay0);
    // Same order as Sim: every epoch event first, then the publishers.
    for (SimTime epoch = SimTime::Zero() + config.monitor_interval;
         epoch <= end_; epoch += config.monitor_interval) {
      scheduler_.ScheduleAt(epoch, [this] { EpochTick(); });
    }
    Rng phase_rng = root_.Fork("phases");
    for (std::size_t t = 0; t < subscriptions_.topic_count(); ++t) {
      const TopicId topic(static_cast<TopicId::underlying_type>(t));
      publishers_.push_back(std::make_unique<Publisher>(
          topic, subscriptions_.publisher(topic), config.publish_interval,
          scheduler_, [this](const Message& message) { OnPublish(message); }));
      publishers_.back()->Start(
          SimDuration::Micros(phase_rng.NextInRange(
              0, config.publish_interval.micros() - 1)),
          end_, next_message_id_);
    }
  }
  TracedEngine(const TracedEngine&) = delete;
  TracedEngine& operator=(const TracedEngine&) = delete;

  TracedResult Run() {
    const auto start = Clock::now();
    {
      ScopedSpan span(spans_, kRun);
      scheduler_.RunUntil(end_);
      scheduler_.Run();
    }
    TracedResult out;
    out.wall_s = SecondsSince(start);
    out.events = scheduler_.events_executed();
    out.data = network_.counters(TrafficClass::kData);
    out.ack = network_.counters(TrafficClass::kAck);
    out.control = network_.counters(TrafficClass::kControl);
    out.transport = router_->transport_stats();
    out.open_episodes = router_->open_episodes();
    out.dcrd = dcrd_ != nullptr;
    out.dropped_undeliverable =
        dcrd_ != nullptr ? dcrd_->dropped_undeliverable() : 0;
    out.replay = replay_;
    out.summary = Summarize(out);
    return out;
  }

 private:
  void Measure() {
    ScopedSpan span(spans_, kMonitor);
    monitor_.MeasureAt(scheduler_.now());
  }

  void OnPublish(const Message& message) {
    metrics_.OnPublished(message);
    ScopedSpan span(spans_, kPublish);
    router_->Publish(message);
  }

  void EpochTick() {
    ScopedSpan span(spans_, kEpoch);
    Measure();
    {
      ScopedSpan rebuild(spans_, kRebuild);
      router_->Rebuild(monitor_.view());
    }
    Replay(kReplay);
  }

  // Recomputes every (topic, subscriber) table on the view the router just
  // used, timing only the kernel calls, then checks the router's tables.
  void Replay(SpanId id) {
    if (dcrd_ == nullptr) return;
    const MonitoredView& view = monitor_.view();
    for (std::size_t t = 0; t < subscriptions_.topic_count(); ++t) {
      const TopicId topic(static_cast<TopicId::underlying_type>(t));
      std::vector<DestinationTables> tables;
      {
        ScopedSpan span(spans_, id);
        const std::vector<double> publisher_dist = MonitoredDistancesFrom(
            graph_, view, subscriptions_.publisher(topic));
        for (const Subscription& sub : subscriptions_.subscriptions(topic)) {
          tables.push_back(ComputeDestinationTables(
              graph_, view, sub.subscriber,
              static_cast<double>(sub.deadline.micros()), publisher_dist,
              replay_config_));
        }
      }
      for (const DestinationTables& replayed : tables) {
        if (!SameTables(replayed,
                        dcrd_->TablesFor(topic, replayed.subscriber))) {
          ++replay_.mismatches;
        }
        if (id != kReplay) continue;
        ++replay_.tables;
        replay_.sweeps += static_cast<std::uint64_t>(replayed.sweeps_used);
        replay_.converged += replayed.converged ? 1 : 0;
      }
    }
  }

  // Sim::BuildSummary for one shard.
  RunSummary Summarize(const TracedResult& r) const {
    RunSummary s =
        metrics_.Summarize(r.data.attempted, r.ack.attempted,
                           r.control.attempted);
    s.retransmissions = r.transport.retransmissions;
    s.spurious_retransmissions = r.transport.spurious_retransmissions;
    s.rtt_samples = r.transport.rtt_samples;
    s.peer_deaths = r.transport.peer_deaths;
    s.peer_probes = r.transport.peer_probes;
    s.peer_revivals = r.transport.peer_revivals;
    s.crash_copies_killed = r.transport.crash_copies_killed;
    s.dropped_crash =
        r.data.dropped_crash + r.ack.dropped_crash + r.control.dropped_crash;
    const ResyncStats resync = router_->resync_stats();
    s.resyncs_started = resync.resyncs_started;
    s.resyncs_completed = resync.resyncs_completed;
    s.total_resync_time_us =
        static_cast<std::uint64_t>(resync.total_resync_time.micros());
    s.max_resync_time_us =
        static_cast<std::uint64_t>(resync.max_resync_time.micros());
    std::sort(s.delay_ms_samples.begin(), s.delay_ms_samples.end());
    std::sort(s.lateness_ratios.begin(), s.lateness_ratios.end());
    return s;
  }

  SpanTable& spans_;
  const Rng root_;
  const Graph graph_;
  SubscriptionTable subscriptions_;
  Scheduler scheduler_;
  const FailureSchedule failures_;
  const NodeFailureSchedule node_failures_;
  const GrayFailureSchedule gray_;
  const BrokerCrashSchedule crashes_;
  OverlayNetwork network_;
  LinkMonitor monitor_;
  MetricsCollector metrics_;
  TimedSink sink_;
  std::unique_ptr<Router> router_;
  const DcrdRouter* dcrd_ = nullptr;
  DrComputationConfig replay_config_;
  ReplayStats replay_;
  std::uint64_t next_message_id_ = 0;
  std::vector<std::unique_ptr<Publisher>> publishers_;
  const SimTime end_;
};

// --- traced operation --------------------------------------------------------

using Metrics = std::map<std::string, double>;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Per-layer metrics of one composed run.
Metrics LayerMetrics(const SpanTable& spans, const TracedResult& r) {
  Metrics m;
  const bool dcrd = r.dcrd;
  const auto data_dropped = r.data.attempted - r.data.delivered;
  m["graph.topology_s"] = spans[kTopology].total_s;
  m["sim.workload_s"] = spans[kWorkload].total_s;
  m["net.monitor_s"] = spans[kMonitor].total_s;
  m["net.monitor_calls"] = static_cast<double>(spans[kMonitor].count);
  m["net.data.attempted"] = static_cast<double>(r.data.attempted);
  m["net.data.dropped"] = static_cast<double>(data_dropped);
  m["net.ack.attempted"] = static_cast<double>(r.ack.attempted);
  m["net.useful_ratio"] = Ratio(static_cast<double>(r.summary.delivered_pairs),
                                static_cast<double>(r.data.attempted));
  m["routing.publish_s"] = spans[kPublish].self_s;
  m["routing.publish_calls"] = static_cast<double>(spans[kPublish].count);
  m["routing.rebuild_s"] = spans[kRebuild0].total_s + spans[kRebuild].total_s;
  m["routing.retransmissions"] =
      static_cast<double>(r.transport.retransmissions);
  m["routing.spurious_retx_ratio"] =
      Ratio(static_cast<double>(r.transport.spurious_retransmissions),
            static_cast<double>(r.transport.retransmissions));
  m["sim.deliver_s"] = spans[kDeliver].total_s;
  m["sim.deliveries"] = static_cast<double>(spans[kDeliver].count);
  m["event.events"] = static_cast<double>(r.events);
  m["event.run_s"] = spans[kRun].total_s;
  m["event.dispatch_self_s"] = spans[kRun].self_s;
  m["event.ns_per_event"] =
      1e9 * Ratio(spans[kRun].self_s, static_cast<double>(r.events));
  m["event.children_s"] = spans.run_children_s();
  m["dcrd.rebuild0_s"] = dcrd ? spans[kRebuild0].total_s : 0.0;
  m["dcrd.rebuild_s"] = dcrd ? spans[kRebuild].total_s : 0.0;
  m["dcrd.rebuild_calls"] =
      dcrd ? static_cast<double>(spans[kRebuild].count) : 0.0;
  m["dcrd.rebuild_max_s"] = dcrd ? spans[kRebuild].max_s : 0.0;
  m["dcrd.tables_s"] = spans[kReplay].total_s;
  m["dcrd.tables"] = static_cast<double>(r.replay.tables);
  m["dcrd.sweeps_mean"] = Ratio(static_cast<double>(r.replay.sweeps),
                                static_cast<double>(r.replay.tables));
  m["dcrd.converged_ratio"] = Ratio(static_cast<double>(r.replay.converged),
                                    static_cast<double>(r.replay.tables));
  m["dcrd.epoch_reset_s"] =
      dcrd ? spans[kRebuild].total_s - spans[kReplay].total_s : 0.0;
  m["dcrd.dropped_undeliverable"] =
      static_cast<double>(r.dropped_undeliverable);
  return m;
}

// shard.* metrics from a profile written by RunScenario; appends to
// `failures` when busy + stall does not tile every shard's loop time.
//
// Each shard's busy + stall covers its window loop, from the end of its
// own set-up to the last barrier, inside the RunScenario call
// (`run_wall_s`). The last barrier is common to all shards, so the sums
// may differ only by how much later one shard finished its set-up than
// another: at most `setup_s`, the one-shard set-up plus teardown, doubled
// because the shards build in parallel.
Metrics ShardMetrics(const ShardProfile& p, double run_wall_s, double setup_s,
                     std::vector<std::string>& failures) {
  Metrics m;
  double busy_max = 0.0, stall_sum = 0.0, xmsgs = 0.0, tile_max = 0.0,
         tile_min = run_wall_s;
  for (const ShardProfile::Totals& t : p.shard_totals) {
    const double busy = 1e-9 * static_cast<double>(t.busy_ns);
    const double stall = 1e-9 * static_cast<double>(t.stall_ns);
    busy_max = std::max(busy_max, busy);
    stall_sum += stall;
    xmsgs += static_cast<double>(t.msgs_in);
    tile_max = std::max(tile_max, busy + stall);
    tile_min = std::min(tile_min, busy + stall);
  }
  if (p.shard_totals.empty() || tile_max > run_wall_s ||
      tile_max - tile_min > 2.0 * setup_s + 0.02 * tile_max) {
    failures.push_back("shard profile busy+stall does not tile the run");
  }
  const double shards = static_cast<double>(std::max(p.shards, 1));
  m["shard.busy_max_s"] = busy_max;
  m["shard.stall_mean_s"] = stall_sum / shards;
  m["shard.rounds"] = static_cast<double>(p.rounds);
  m["shard.stall_us_per_round"] =
      1e6 * Ratio(stall_sum / shards, static_cast<double>(p.rounds));
  m["shard.imbalance"] = p.imbalance;
  m["shard.xmsgs"] = xmsgs;
  return m;
}

// One traced scenario: the composed run, an untraced one-shard
// RunScenario it must equal, and a profiled kProfileShards-shard
// RunScenario that must equal it too.
struct TracedScenario {
  Metrics layer;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  std::string summary_json;
};

TracedScenario TraceScenario(const ScenarioConfig& config,
                             const std::string& profile_path,
                             std::vector<std::string>& failures) {
  RequireComposable(config);
  TracedScenario out;
  SpanTable spans;
  const auto traced_start = Clock::now();
  TracedResult traced;
  {
    TracedEngine engine(config, spans);
    traced = engine.Run();
  }
  out.traced_wall_s = SecondsSince(traced_start);

  const auto untraced_start = Clock::now();
  const RunSummary reference = RunScenario(config);
  out.untraced_wall_s = SecondsSince(untraced_start);
  ScenarioConfig profiled = config;
  profiled.shards = kProfileShards;
  profiled.shard_profile_out = profile_path;
  const auto profiled_start = Clock::now();
  const RunSummary sharded = RunScenario(profiled);
  const double profiled_wall = SecondsSince(profiled_start);
  std::ifstream profile_file(profile_path);
  ShardProfile profile;
  std::string error;
  if (!LoadShardProfileJson(profile_file, &profile, &error)) {
    failures.push_back("shard profile: " + error);
  }

  const std::string router = RouterName(config.router);
  if (SummaryDigest(traced.summary) != SummaryDigest(reference)) {
    failures.push_back(router + ": composed run differs from RunScenario");
  }
  if (SummaryDigest(sharded) != SummaryDigest(reference)) {
    failures.push_back(router + ": sharded run differs from one shard");
  }
  if (traced.open_episodes != 0 || traced.transport.pending_copies != 0) {
    failures.push_back(router + ": open episodes or pending copies after "
                                "the drain");
  }
  for (const TrafficCounters* c : {&traced.data, &traced.ack,
                                   &traced.control}) {
    if (c->attempted != c->accounted()) {
      failures.push_back(router + ": network counters do not conserve");
    }
  }
  if (traced.replay.mismatches != 0) {
    failures.push_back(router + ": replayed tables differ from TablesFor");
  }
  if (std::abs(spans.run_children_s() + spans[kRun].self_s -
               spans[kRun].total_s) > 1e-6 * spans[kRun].total_s + 1e-9) {
    failures.push_back(router + ": run span does not add up");
  }

  out.layer = LayerMetrics(spans, traced);
  for (const auto& [name, value] : ShardMetrics(
           profile, profiled_wall, out.traced_wall_s - spans[kRun].total_s,
           failures)) {
    out.layer[name] = value;
  }
  out.summary_json = SummaryJson(config, reference);
  return out;
}

int TraceOperation(const std::vector<ScenarioConfig>& configs,
                   const std::optional<ScenarioConfig>& dcrd_reference,
                   const std::string& profile_path) {
  std::vector<std::string> failures;
  Metrics total;
  std::string summaries = "[";
  double traced_wall = 0.0, untraced_wall = 0.0;
  const auto trace = [&](const ScenarioConfig& config) {
    TracedScenario t = TraceScenario(config, profile_path, failures);
    traced_wall += t.traced_wall_s;
    untraced_wall += t.untraced_wall_s;
    if (summaries.size() > 1) summaries += ",";
    summaries += t.summary_json;
    return t.layer;
  };
  for (const ScenarioConfig& config : configs) {
    const std::string suffix = RouterSuffix(config.router);
    for (const auto& [name, value] : trace(config)) {
      // Sums across the routers of a workload; ratios are recomputed below.
      total[name] += value;
      if (!suffix.empty() && !name.starts_with("dcrd.")) {
        total[name + suffix] = value;
      }
    }
  }
  if (configs.size() > 1) {
    // Ratios of a multi-router workload are the mean over its routers;
    // per-unit figures come from the summed counts.
    const double n = static_cast<double>(configs.size());
    total["event.ns_per_event"] =
        1e9 * Ratio(total["event.dispatch_self_s"], total["event.events"]);
    total["routing.spurious_retx_ratio"] /= n;
    total["net.useful_ratio"] /= n;
    total["shard.imbalance"] /= n;
    total["shard.stall_us_per_round"] =
        1e6 * Ratio(total["shard.stall_mean_s"], total["shard.rounds"]);
  }
  if (dcrd_reference) {
    for (const auto& [name, value] : trace(*dcrd_reference)) {
      if (name.starts_with("dcrd.")) total[name] = value;
    }
  }
  total["trace.overhead_ratio"] = Ratio(traced_wall, untraced_wall);

  JsonObject metrics;
  for (const auto& [name, value] : total) metrics.Num(name, value);
  std::string failure_list = "[";
  for (const std::string& f : failures) {
    if (failure_list.size() > 1) failure_list += ",";
    failure_list += JsonString(f);
  }
  std::cout << JsonObject()
                   .Raw("metrics", metrics.str())
                   .Raw("failures", failure_list + "]")
                   .Raw("summaries", summaries + "]")
                   .str()
            << "\n";
  return 0;
}

}  // namespace
}  // namespace dcrd

int main(int argc, char** argv) {
  using namespace dcrd;
  if (argc < 2) {
    std::cerr << "usage: dcrd_perfbench run|setup|trace --workload W "
                 "--seed S [--sim_seconds T] [--profile PATH]\n";
    return 2;
  }
  const std::string mode = argv[1];
  const Flags flags = Flags::Parse(argc - 1, argv + 1);
  const std::string workload = flags.GetString("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  std::int64_t sim_seconds = flags.GetInt("sim_seconds", kDefaultSimSeconds);
  const std::string profile = flags.GetString("profile", "");
  flags.ExitOnUnqueried();
  if (sim_seconds < 0) {
    std::cerr << "dcrd_perfbench: --sim_seconds must be >= 0\n";
    return 2;
  }
  if (mode == "setup") sim_seconds = 0;
  try {
    const std::vector<ScenarioConfig> configs =
        WorkloadConfigs(workload, seed, sim_seconds);
    if (mode == "run" || mode == "setup") return RunOperation(configs);
    if (mode == "trace" && !profile.empty()) {
      return TraceOperation(
          configs, DcrdReference(workload, seed, sim_seconds), profile);
    }
  } catch (const std::exception& e) {
    std::cerr << "dcrd_perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "dcrd_perfbench: unknown mode " << mode
            << " (trace needs --profile)\n";
  return 2;
}
