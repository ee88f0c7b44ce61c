// Scaling bench for the sharded engine (DESIGN.md §12).
//
// Runs one fig5-style scenario per broker count, interleaving `--shards 1`
// and `--shards N` rounds (interleaving spreads machine-noise drift across
// both sides, same protocol as the CI perf gate), reports the per-side
// median wall clock and the speedup, and asserts the two sides produced
// identical results — a bench run that broke determinism is worthless and
// must say so loudly.
//
//   bench_sharded_engine --brokers 160,1000,10000 --shards 0 --rounds 3
//       --seconds 30 --bench_json BENCH_sharded_engine.json
//
// --shards 0 means hardware concurrency. Records land in the JSON
// trajectory file with one record per broker count carrying
// shards1/shardsN wall seconds and the speedup (see BENCH_sharded_engine.json
// at the repo root for committed curves).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "sim/bench_json.h"
#include "sim/engine.h"

namespace {

using Clock = std::chrono::steady_clock;

std::vector<int> ParseBrokerList(const std::string& csv) {
  std::vector<int> brokers;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const int value = std::stoi(token);
    if (value > 1) brokers.push_back(value);
  }
  return brokers;
}

dcrd::ScenarioConfig MakeConfig(int brokers, std::int64_t seconds,
                                int topics) {
  dcrd::ScenarioConfig config;
  config.router = dcrd::RouterKind::kDcrd;
  config.node_count = static_cast<std::size_t>(brokers);
  config.topology = dcrd::TopologyKind::kRandomDegree;
  config.degree = 4;
  config.topic_count = static_cast<std::size_t>(topics);
  config.failure_probability = 0.05;
  config.loss_rate = 1e-3;
  config.max_transmissions = 2;
  config.publish_interval = dcrd::SimDuration::Millis(500);
  config.monitor_interval = dcrd::SimDuration::Seconds(10);
  config.sim_time = dcrd::SimDuration::Seconds(seconds);
  config.seed = 1;
  return config;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// The two sides must be the same simulation; compare the cheap invariant
// core (full field-by-field identity lives in tests/sim/sharded_engine_test).
bool SameRun(const dcrd::RunSummary& a, const dcrd::RunSummary& b) {
  return a.delivered_pairs == b.delivered_pairs &&
         a.qos_pairs == b.qos_pairs &&
         a.data_transmissions == b.data_transmissions &&
         a.ack_transmissions == b.ack_transmissions &&
         a.messages_published == b.messages_published &&
         a.delay_ms_samples == b.delay_ms_samples;
}

}  // namespace

int main(int argc, char** argv) {
  const dcrd::Flags flags = dcrd::Flags::Parse(argc, argv);
  const std::vector<int> brokers =
      ParseBrokerList(flags.GetString("brokers", "160,1000"));
  int shards = static_cast<int>(flags.GetInt("shards", 0));
  if (shards < 1) {
    const unsigned hardware = std::thread::hardware_concurrency();
    shards = hardware == 0 ? 1 : static_cast<int>(hardware);
  }
  const int rounds = std::max(1, static_cast<int>(flags.GetInt("rounds", 3)));
  const std::int64_t seconds = flags.GetInt("seconds", 30);
  const int topics = static_cast<int>(flags.GetInt("topics", 8));
  const std::string bench_json = flags.GetString("bench_json", "");
  flags.ExitOnUnqueried();

  std::cout << "sharded-engine scaling: shards=" << shards
            << " rounds=" << rounds << " simulated=" << seconds << "s\n"
            << "brokers  s1_median_s  sN_median_s  speedup\n";

  bool identical = true;
  for (const int broker_count : brokers) {
    std::vector<double> base_seconds;
    std::vector<double> sharded_seconds;
    dcrd::RunSummary base_summary;
    const auto wall_start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      dcrd::ScenarioConfig config = MakeConfig(broker_count, seconds, topics);
      config.shards = 1;
      auto start = Clock::now();
      const dcrd::RunSummary base = dcrd::RunScenario(config);
      base_seconds.push_back(
          std::chrono::duration<double>(Clock::now() - start).count());

      config.shards = shards;
      start = Clock::now();
      const dcrd::RunSummary sharded = dcrd::RunScenario(config);
      sharded_seconds.push_back(
          std::chrono::duration<double>(Clock::now() - start).count());

      if (!SameRun(base, sharded)) {
        identical = false;
        std::cerr << "DETERMINISM BROKEN at " << broker_count
                  << " brokers, round " << round << "\n";
      }
      base_summary = base;
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    const double s1 = Median(base_seconds);
    const double sn = Median(sharded_seconds);
    const double speedup = sn > 0.0 ? s1 / sn : 0.0;
    std::cout << broker_count << "  " << s1 << "  " << sn << "  " << speedup
              << (identical ? "" : "  (MISMATCH)") << "\n";

    if (!bench_json.empty()) {
      dcrd::SweepRunStats stats;
      stats.jobs = shards;
      stats.cells = static_cast<std::size_t>(rounds) * 2;
      stats.wall_seconds = wall;
      dcrd::BenchRecord record = dcrd::MakeBenchRecord(
          "bench_sharded_engine/b" + std::to_string(broker_count), stats);
      record.rates.emplace_back("shards1_wall_seconds", s1);
      record.rates.emplace_back("shardsN_wall_seconds", sn);
      record.rates.emplace_back("speedup", speedup);
      record.rates.emplace_back(
          "delivered_pairs",
          static_cast<double>(base_summary.delivered_pairs));
      dcrd::AppendBenchRecord(bench_json, record);
    }
  }
  if (!identical) return 1;
  return 0;
}
