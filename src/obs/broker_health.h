// Per-broker health sample, filled by the transport/router layer and
// consumed by the time-series sampler (obs/timeseries.h). Its own tiny
// header so routing code can implement the sampling hook without pulling in
// the whole time-series store.
#pragma once

#include <cstdint>

namespace dcrd {

// One broker's instantaneous health. All zero for a broker with nothing in
// flight — and, under sharded execution, on every shard that does not own
// the broker, which is what makes per-broker columns sum-mergeable across
// shards.
struct BrokerHealth {
  std::uint64_t pending_copies = 0;  // in-flight copies this broker is sending
  // Distinct copies the broker's duplicate suppression recorded in the
  // current and the previous monitoring epoch (HopTransport).
  std::uint64_t dedup_entries = 0;
  // Largest live adaptive RTO (us) over the broker's outgoing links; 0
  // until the estimator has a real sample (and always 0 in fixed-timer
  // mode), so unfed estimators contribute nothing to the shard merge.
  std::uint64_t rto_us = 0;
};

}  // namespace dcrd
