// Sharded-engine equivalence: `shards = N` must be *bit-identical* to the
// classic single-threaded engine on every figure-style scenario — same
// delivered pairs, same transmission counts, same delay samples — because
// the shard count is an execution detail, never a model parameter
// (DESIGN.md §12). Each test runs the same config at 1, 2 and 8 shards and
// compares every RunSummary field, including the full sample vectors.
//
// The adversarial-partition tests re-run with a round-robin owner map that
// puts essentially every edge across a shard boundary, proving the
// *partition choice* is result-neutral too (it only changes wall clock).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "graph/partition.h"
#include "obs/shard_profiler.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"
#include "obs/trace_record.h"
#include "sim/engine.h"

namespace dcrd {
namespace {

// Field-by-field equality; every divergence names the field.
void ExpectIdentical(const RunSummary& base, const RunSummary& other,
                     const std::string& label) {
  EXPECT_EQ(base.expected_pairs, other.expected_pairs) << label;
  EXPECT_EQ(base.delivered_pairs, other.delivered_pairs) << label;
  EXPECT_EQ(base.qos_pairs, other.qos_pairs) << label;
  EXPECT_EQ(base.duplicate_deliveries, other.duplicate_deliveries) << label;
  EXPECT_EQ(base.data_transmissions, other.data_transmissions) << label;
  EXPECT_EQ(base.ack_transmissions, other.ack_transmissions) << label;
  EXPECT_EQ(base.control_transmissions, other.control_transmissions) << label;
  EXPECT_EQ(base.messages_published, other.messages_published) << label;
  EXPECT_EQ(base.retransmissions, other.retransmissions) << label;
  EXPECT_EQ(base.spurious_retransmissions, other.spurious_retransmissions)
      << label;
  EXPECT_EQ(base.rtt_samples, other.rtt_samples) << label;
  EXPECT_EQ(base.broker_crashes, other.broker_crashes) << label;
  EXPECT_EQ(base.broker_restarts, other.broker_restarts) << label;
  EXPECT_EQ(base.dropped_crash, other.dropped_crash) << label;
  EXPECT_EQ(base.crash_copies_killed, other.crash_copies_killed) << label;
  EXPECT_EQ(base.peer_deaths, other.peer_deaths) << label;
  EXPECT_EQ(base.peer_probes, other.peer_probes) << label;
  EXPECT_EQ(base.peer_revivals, other.peer_revivals) << label;
  EXPECT_EQ(base.resyncs_started, other.resyncs_started) << label;
  EXPECT_EQ(base.resyncs_completed, other.resyncs_completed) << label;
  EXPECT_EQ(base.total_resync_time_us, other.total_resync_time_us) << label;
  EXPECT_EQ(base.max_resync_time_us, other.max_resync_time_us) << label;
  EXPECT_EQ(base.crash_excused_duplicates, other.crash_excused_duplicates)
      << label;
  EXPECT_EQ(base.invariant_violation_count, other.invariant_violation_count)
      << label;
  EXPECT_EQ(base.invariant_violations, other.invariant_violations) << label;
  EXPECT_EQ(base.lateness_ratios, other.lateness_ratios) << label;
  EXPECT_EQ(base.delay_ms_samples, other.delay_ms_samples) << label;
}

void ExpectShardInvariant(ScenarioConfig config, const std::string& label) {
  config.shards = 1;
  const RunSummary base = RunScenario(config);
  for (const int shards : {2, 8}) {
    ScenarioConfig sharded = config;
    sharded.shards = shards;
    const RunSummary other = RunScenario(sharded);
    ExpectIdentical(base, other,
                    label + " @" + std::to_string(shards) + " shards");
  }
}

// Fig. 2 regime: full mesh, binary outages, single transmission.
ScenarioConfig Fig2Style(RouterKind router) {
  ScenarioConfig config;
  config.router = router;
  config.node_count = 12;
  config.topology = TopologyKind::kFullMesh;
  config.topic_count = 4;
  config.failure_probability = 0.08;
  config.loss_rate = 1e-3;
  config.max_transmissions = 1;
  config.monitor_interval = SimDuration::Seconds(5);
  config.sim_time = SimDuration::Seconds(30);
  config.seed = 11;
  return config;
}

// Fig. 5 regime: sparse random overlay, retries enabled — cross-shard
// retransmissions, ACK losses and reroutes all happen here.
ScenarioConfig Fig5Style(RouterKind router) {
  ScenarioConfig config;
  config.router = router;
  config.node_count = 16;
  config.topology = TopologyKind::kRandomDegree;
  config.degree = 4;
  config.topic_count = 5;
  config.failure_probability = 0.10;
  config.loss_rate = 0.01;
  config.max_transmissions = 3;
  config.monitor_interval = SimDuration::Seconds(5);
  config.publish_interval = SimDuration::Millis(500);
  config.sim_time = SimDuration::Seconds(30);
  config.seed = 23;
  return config;
}

// Ext. 7 regime: gray failures (extra loss + delay inflation + asymmetry)
// on top of outages; inflated-delay draws must resolve identically when
// the copy crosses a shard boundary.
ScenarioConfig Ext7Style(RouterKind router) {
  ScenarioConfig config = Fig5Style(router);
  config.gray_probability = 0.15;
  config.gray_extra_loss = 0.3;
  config.gray_delay_factor = 3.0;
  config.gray_asymmetry = 0.5;
  config.seed = 31;
  return config;
}

// Ext. 8 regime: fail-stop broker crashes with resync. Lifecycle
// transitions replicate on every shard; state kills and resync pings run
// on owners only.
ScenarioConfig CrashStyle(RouterKind router) {
  ScenarioConfig config = Fig5Style(router);
  config.broker_mtbf = SimDuration::Seconds(20);
  config.broker_mttr = SimDuration::Seconds(4);
  config.seed = 41;
  return config;
}

TEST(ShardedEngineTest, Fig2BitIdenticalAcrossShardCounts) {
  for (const RouterKind router :
       {RouterKind::kDcrd, RouterKind::kRTree, RouterKind::kOracle}) {
    ExpectShardInvariant(Fig2Style(router),
                         std::string("fig2 ") + RouterName(router));
  }
}

TEST(ShardedEngineTest, Fig5BitIdenticalAcrossShardCounts) {
  for (const RouterKind router :
       {RouterKind::kDcrd, RouterKind::kDTree, RouterKind::kMultipath}) {
    ExpectShardInvariant(Fig5Style(router),
                         std::string("fig5 ") + RouterName(router));
  }
}

TEST(ShardedEngineTest, GrayFailuresBitIdenticalAcrossShardCounts) {
  ExpectShardInvariant(Ext7Style(RouterKind::kDcrd), "ext7 DCRD");
}

TEST(ShardedEngineTest, BrokerCrashesBitIdenticalAcrossShardCounts) {
  ExpectShardInvariant(CrashStyle(RouterKind::kDcrd), "crash DCRD");
}

// The ext8 regime proper: churn plus adaptive RTO plus peer-death
// detection. Peer deaths fail-fast every pending copy on the link, and the
// reroutes that follow must fire in an order independent of the slot map's
// allocation history (which differs per shard count) — the FailFastPending
// copy-id sort is what this pins down.
TEST(ShardedEngineTest, PeerDeathReroutesBitIdenticalAcrossShardCounts) {
  ScenarioConfig config = CrashStyle(RouterKind::kDcrd);
  config.adaptive_rto = true;
  config.peer_death_detection = true;
  ExpectShardInvariant(config, "churn+peer-death DCRD");
}

TEST(ShardedEngineTest, DelayJitterBitIdenticalAcrossShardCounts) {
  ScenarioConfig config = Fig5Style(RouterKind::kDcrd);
  config.delay_jitter = 0.3;  // shrinks the lookahead but never to zero
  config.adaptive_rto = true;
  config.seed = 47;
  ExpectShardInvariant(config, "jitter DCRD");
}

TEST(ShardedEngineTest, AdversarialRoundRobinPartitionIsResultNeutral) {
  // Round-robin ownership puts essentially every edge across a shard
  // boundary — worst case for the lookahead window, irrelevant for
  // results.
  ScenarioConfig config = Fig5Style(RouterKind::kDcrd);
  const RunSummary base = RunScenario(config);
  for (const int shards : {2, 5}) {
    ScenarioConfig adversarial = config;
    adversarial.shards = shards;
    adversarial.shard_assignment =
        RoundRobinPartition(config.node_count, shards);
    const RunSummary other = RunScenario(adversarial);
    ExpectIdentical(base, other,
                    "round-robin @" + std::to_string(shards) + " shards");
  }
}

TEST(ShardedEngineTest, ShardCountClampedToNodeCount) {
  ScenarioConfig config = Fig2Style(RouterKind::kRTree);
  config.shards = 64;  // > node_count: clamps to 12, still identical
  const RunSummary other = RunScenario(config);
  config.shards = 1;
  ExpectIdentical(RunScenario(config), other, "clamped shards");
}

TEST(ShardedEngineTest, DistributedGossipFallsBackToOneShard) {
  // dcrd_distributed is single-shard only: the sharded run must fall back
  // (with a stderr note) and produce the unsharded result.
  ScenarioConfig config = Fig5Style(RouterKind::kDcrd);
  config.dcrd_distributed = true;
  const RunSummary base = RunScenario(config);
  config.shards = 4;
  ExpectIdentical(base, RunScenario(config), "distributed fallback");
}

// Reads every trace file and tallies records per event kind. Any unreadable
// or malformed file fails the test via the `dropped` count.
std::map<TraceEventKind, std::uint64_t> CountTraceKinds(
    const std::vector<std::string>& files) {
  std::map<TraceEventKind, std::uint64_t> counts;
  for (const std::string& file : files) {
    std::ifstream in(file);
    EXPECT_TRUE(in.is_open()) << file;
    std::size_t dropped = 0;
    for (const TraceRecord& record : ReadTraceJsonl(in, &dropped)) {
      ++counts[record.kind];
    }
    EXPECT_EQ(dropped, 0u) << file;
  }
  return counts;
}

std::vector<std::string> ShardTraceFiles(const std::string& stem,
                                         int shards) {
  std::vector<std::string> files;
  for (int s = 0; s < shards; ++s) {
    files.push_back(stem + ".shard" + std::to_string(s) + ".jsonl");
  }
  return files;
}

TEST(ShardedEngineTest, TraceRecordCountsConserveAcrossShardCounts) {
  // Every record site is gated on ownership (publisher-local kPublish,
  // shard-0 rebuilds and link samples, node-local lifecycle and resyncs),
  // so the per-kind record count summed over the 8 per-shard files must
  // equal the single-shard capture exactly — no event traced twice, none
  // lost to a cut. Run both figure regimes; fig5 exercises cross-shard
  // retransmissions, fig2 the binary-outage rebuild storm.
  struct Regime {
    const char* name;
    ScenarioConfig config;
  };
  for (const Regime& regime :
       {Regime{"fig2", Fig2Style(RouterKind::kDcrd)},
        Regime{"fig5", Fig5Style(RouterKind::kDcrd)}}) {
    const std::string stem =
        testing::TempDir() + "conserve_" + regime.name;

    ScenarioConfig single = regime.config;
    single.shards = 1;
    single.trace_out = stem + ".jsonl";
    RunScenario(single);
    const auto base = CountTraceKinds({single.trace_out});

    ScenarioConfig sharded = regime.config;
    sharded.shards = 8;
    sharded.trace_out = stem + "_s8.jsonl";
    RunScenario(sharded);
    const auto split = CountTraceKinds(ShardTraceFiles(stem + "_s8", 8));

    EXPECT_FALSE(base.empty()) << regime.name;
    EXPECT_EQ(base, split) << regime.name;
  }
}

TEST(ShardedEngineTest, ShardFilesCarryTheirOwnShardStampAndDenseSeq) {
  ScenarioConfig config = Fig5Style(RouterKind::kDcrd);
  config.shards = 4;
  const std::string stem = testing::TempDir() + "stamp";
  config.trace_out = stem + ".jsonl";
  RunScenario(config);

  for (int s = 0; s < 4; ++s) {
    std::ifstream in(stem + ".shard" + std::to_string(s) + ".jsonl");
    ASSERT_TRUE(in.is_open()) << s;
    std::size_t dropped = 0;
    const std::vector<TraceRecord> records = ReadTraceJsonl(in, &dropped);
    ASSERT_EQ(dropped, 0u) << s;
    ASSERT_FALSE(records.empty()) << s;  // every shard owns active brokers
    std::uint32_t expected_seq = 0;
    for (const TraceRecord& record : records) {
      EXPECT_EQ(record.shard, static_cast<std::uint16_t>(s));
      // seq is the recorder's running ordinal: dense from 0, so the merge
      // can reconstruct each shard's capture order exactly.
      EXPECT_EQ(record.seq, expected_seq++);
    }
  }
}

TEST(ShardedEngineTest, ProfiledRunIsResultNeutralAndProfileConserves) {
  // --shard_profile must not perturb results (the profiler only reads wall
  // clocks and drained messages), and the written profile's traffic matrix
  // must conserve: row sums = out totals, column sums = in totals, grand
  // totals equal — receiver-side accounting makes that an identity.
  ScenarioConfig config = Fig5Style(RouterKind::kDcrd);
  const RunSummary base = RunScenario(config);

  ScenarioConfig profiled = config;
  profiled.shards = 8;
  profiled.shard_profile_out = testing::TempDir() + "profile_s8.json";
  const RunSummary other = RunScenario(profiled);
  ExpectIdentical(base, other, "profiled @8 shards");

  std::ifstream in(profiled.shard_profile_out);
  ASSERT_TRUE(in.is_open());
  ShardProfile profile;
  std::string error;
  ASSERT_TRUE(LoadShardProfileJson(in, &profile, &error)) << error;
  EXPECT_EQ(profile.shards, 8);
  EXPECT_GT(profile.rounds, 0u);

  std::uint64_t total_in = 0;
  std::uint64_t total_out = 0;
  std::uint64_t total_events = 0;
  for (int s = 0; s < 8; ++s) {
    const auto& totals = profile.shard_totals[static_cast<std::size_t>(s)];
    std::uint64_t row = 0;
    std::uint64_t col = 0;
    for (int t = 0; t < 8; ++t) {
      row += profile.At(s, t).msgs;
      col += profile.At(t, s).msgs;
      EXPECT_EQ(profile.At(s, s).msgs, 0u);  // no self-traffic over a cut
    }
    EXPECT_EQ(row, totals.msgs_out) << "shard " << s;
    EXPECT_EQ(col, totals.msgs_in) << "shard " << s;
    total_in += totals.msgs_in;
    total_out += totals.msgs_out;
    total_events += totals.events;
  }
  EXPECT_EQ(total_in, total_out);
  EXPECT_GT(total_in, 0u);  // fig5 at 8 shards always crosses cuts
  // Sharding replicates control events, so the event total across shards
  // is at least the single-shard run's — never less (no work vanishes).
  ScenarioConfig solo = config;
  solo.shard_profile_out = testing::TempDir() + "profile_s1.json";
  RunScenario(solo);
  std::ifstream solo_in(solo.shard_profile_out);
  ASSERT_TRUE(solo_in.is_open());
  ShardProfile solo_profile;
  ASSERT_TRUE(LoadShardProfileJson(solo_in, &solo_profile, &error)) << error;
  EXPECT_EQ(solo_profile.shards, 1);
  EXPECT_GE(total_events, solo_profile.shard_totals[0].events);
}

// Reads a whole file; empty on open failure (asserted by callers).
std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::string text;
  char c = 0;
  while (in.get(c)) text.push_back(c);
  return text;
}

// Running total of one counter after each sample; fails if absent.
std::vector<std::uint64_t> RunningTotals(const TimeSeriesStore& store,
                                         const std::string& name) {
  std::vector<std::uint64_t> totals;
  for (std::size_t i = 0; i < store.counter_names.size(); ++i) {
    if (store.counter_names[i] != name) continue;
    std::uint64_t total = 0;
    for (const std::uint64_t delta : store.counter_deltas[i]) {
      totals.push_back(total += delta);
    }
    return totals;
  }
  ADD_FAILURE() << "no counter " << name;
  return {0};
}

TEST(ShardedEngineTest, MergedTelemetryIsByteIdenticalAcrossShardCounts) {
  // The continuous-telemetry contract (DESIGN.md §14): the merged
  // --metrics_json and --timeseries files from an 8-shard run must be
  // byte-identical to the 1-shard run's — kSum series because owner-only
  // deltas partition the work, kReplicated series because the control plane
  // replays identically on every shard. Results must stay untouched too.
  // --metrics_json is the same document at monitoring-epoch cadence.
  ScenarioConfig config = Ext7Style(RouterKind::kDcrd);
  config.metrics_json = testing::TempDir() + "telemetry_s1.metrics.json";
  config.timeseries_out = testing::TempDir() + "telemetry_s1.series.json";
  const RunSummary base = RunScenario(config);

  ScenarioConfig sharded = Ext7Style(RouterKind::kDcrd);
  sharded.shards = 8;
  sharded.metrics_json = testing::TempDir() + "telemetry_s8.metrics.json";
  sharded.timeseries_out = testing::TempDir() + "telemetry_s8.series.json";
  const RunSummary other = RunScenario(sharded);
  ExpectIdentical(base, other, "telemetry @8 shards");

  const std::string metrics_1 = Slurp(config.metrics_json);
  const std::string metrics_8 = Slurp(sharded.metrics_json);
  ASSERT_FALSE(metrics_1.empty());
  EXPECT_EQ(metrics_1, metrics_8);

  const std::string series_1 = Slurp(config.timeseries_out);
  const std::string series_8 = Slurp(sharded.timeseries_out);
  ASSERT_FALSE(series_1.empty());
  EXPECT_EQ(series_1, series_8);
  EXPECT_NE(series_1.find("\"dcrd-timeseries-v1\""), std::string::npos);

  EXPECT_NE(metrics_1.find("\"dcrd-timeseries-v1\""), std::string::npos);
  TimeSeriesStore epochs;
  TimeSeriesStore series;
  std::string error;
  ASSERT_TRUE(LoadTimeSeriesJson(metrics_1, &epochs, &error)) << error;
  ASSERT_TRUE(LoadTimeSeriesJson(series_1, &series, &error)) << error;
  EXPECT_EQ(epochs.interval_us, config.monitor_interval.micros());
  // Samples at t = 0, every epoch up to the end wall, and the quiescence
  // tail the 1 s series closes at too.
  const std::int64_t end_us = config.sim_time.micros();
  std::vector<std::int64_t> expected_t;
  for (std::int64_t t = 0; t <= end_us; t += epochs.interval_us) {
    expected_t.push_back(t);
  }
  ASSERT_GT(series.t_us.back(), end_us);  // the drain outlives the end wall
  expected_t.push_back(series.t_us.back());
  EXPECT_EQ(epochs.t_us, expected_t);
  EXPECT_EQ(RunningTotals(epochs, "slo.pairs_delivered").back(),
            base.delivered_pairs);
  EXPECT_EQ(RunningTotals(epochs, "slo.pairs_published").back(),
            base.expected_pairs);
}

TEST(ShardedEngineTest, MetricsJsonEpochSamplesSeeThePostRebuildState) {
  // --metrics_json samples each monitoring epoch instant after that
  // epoch's rebuild. The distributed <d,r> control plane broadcasts at the
  // rebuild instant, so a pre-rebuild sample would miss the burst. The 1 s
  // --timeseries chain reaches each epoch instant from one second earlier,
  // after the rebuild events queued at setup: its sample is the reference.
  // (Distributed DCRD runs on one shard.)
  ScenarioConfig config = Fig5Style(RouterKind::kDcrd);
  config.dcrd_distributed = true;
  config.metrics_json = testing::TempDir() + "post_rebuild.metrics.json";
  config.timeseries_out = testing::TempDir() + "post_rebuild.series.json";
  RunScenario(config);

  TimeSeriesStore epochs;
  TimeSeriesStore series;
  std::string error;
  ASSERT_TRUE(LoadTimeSeriesJson(Slurp(config.metrics_json), &epochs, &error))
      << error;
  ASSERT_TRUE(
      LoadTimeSeriesJson(Slurp(config.timeseries_out), &series, &error))
      << error;
  const std::vector<std::uint64_t> epoch_totals =
      RunningTotals(epochs, "net.control.attempted");
  const std::vector<std::uint64_t> series_totals =
      RunningTotals(series, "net.control.attempted");
  int checked = 0;
  for (std::size_t e = 1; e < epochs.samples(); ++e) {
    if (epochs.t_us[e] > config.sim_time.micros()) break;  // quiescence tail
    const std::size_t s =
        static_cast<std::size_t>(epochs.t_us[e] / series.interval_us);
    ASSERT_EQ(series.t_us[s], epochs.t_us[e]);
    // The rebuild at this instant sent control messages, and the epoch
    // sample counts them.
    EXPECT_GT(series_totals[s], series_totals[s - 1]) << series.t_us[s];
    EXPECT_EQ(epoch_totals[e], series_totals[s]) << epochs.t_us[e];
    ++checked;
  }
  EXPECT_EQ(checked, 6);  // 30 s run, 5 s epochs
}

TEST(ShardedEngineTest, ChaosSoakAcrossShardsStaysClean) {
  // 20 seeds of the gray + crash cocktail with the invariant checker armed
  // on every shard: loop-freedom, exactly-once hand-up, per-shard counter
  // conservation and cross-shard quiescence all checked, and the merged
  // summary must match the single-shard run bit for bit.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ScenarioConfig config;
    config.router = seed % 2 == 0 ? RouterKind::kDcrd : RouterKind::kRTree;
    config.node_count = 12;
    config.topology = TopologyKind::kRandomDegree;
    config.degree = 3;
    config.topic_count = 4;
    config.sim_time = SimDuration::Seconds(20);
    config.monitor_interval = SimDuration::Seconds(5);
    config.publish_interval = SimDuration::Millis(500);
    config.max_transmissions = 2;
    config.seed = seed;
    config.enable_invariant_checker = true;
    config.failure_probability = 0.08;
    config.loss_rate = 1e-3;
    config.gray_probability = 0.15;
    config.gray_extra_loss = 0.3;
    config.gray_delay_factor = 3.0;
    config.gray_asymmetry = 0.5;
    config.broker_mtbf = SimDuration::Seconds(15);
    config.broker_mttr = SimDuration::Seconds(3);
    config.adaptive_rto = seed % 3 == 0;

    const RunSummary base = RunScenario(config);
    ScenarioConfig sharded = config;
    sharded.shards = 4;
    const RunSummary other = RunScenario(sharded);
    ASSERT_EQ(other.invariant_violation_count, 0U)
        << "seed " << seed << ": "
        << (other.invariant_violations.empty()
                ? std::string("(none recorded)")
                : other.invariant_violations.front());
    ExpectIdentical(base, other, "chaos seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace dcrd
