// Cross-shard hand-off for the sharded engine.
//
// When a scenario runs on N engine shards (see sim/engine.cc §sharded
// execution and DESIGN.md §12), every simulated object lives on exactly one
// shard — the one owning its broker — and a transmission whose receiver is
// owned elsewhere cannot be scheduled directly into the peer's Scheduler
// (it is being drained by another thread). Instead the sending shard
// appends an exchange message carrying everything the receiving shard
// needs to schedule the arrival itself: the arrival tick, the canonical
// event key (a pure function of the event's content — see
// event/scheduler.h), and the payload. Messages are appended during a
// synchronization window (single writer: the sending shard's thread) and
// drained at the following barrier (single reader: the receiving shard's
// thread); the barrier's release ordering makes the queues safe without
// any per-message locking.
//
// Determinism: the merge order of injected events is decided entirely by
// their canonical keys at dispatch, never by which queue they arrived
// through or when a thread appended them — so `--shards 1` and
// `--shards N` byte-identical output follows from key purity alone.
//
// Memory: per-(src,dst) queues are plain vectors with a used-counter;
// Reset() rewinds the counter without destroying elements, so Packet
// buffer capacity parks in place and steady-state hand-off performs zero
// heap allocations (tests/perf/exchange_alloc_test.cc enforces).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/logging.h"
#include "common/slot_map.h"
#include "pubsub/packet.h"

namespace dcrd {

// Static broker->shard assignment, fixed for a whole run (see
// graph/partition.h for the deterministic partitioners).
struct ShardMap {
  std::vector<int> owner;  // indexed by node id
  int shard_count = 1;

  [[nodiscard]] int OwnerOf(NodeId node) const {
    return owner[node.underlying()];
  }
};

enum class XMsgKind : std::uint8_t {
  kData,         // a delivered data copy arriving at a remote broker
  kEchoRequest,  // control leg arriving at a remote broker; it resolves
                 // and returns the reply leg (probe / resync round trip)
  kEchoReply,    // reply leg delivered back: run the stored completion
  kEchoDrop,     // reply leg dropped: release the stored completion slot
                 // at the barrier (no simulated-time effect)
};

struct XMsg {
  XMsgKind kind = XMsgKind::kData;
  std::int64_t at = 0;       // arrival tick in micros (unused for kEchoDrop)
  std::uint64_t k1 = 0;      // canonical event key, major word
  std::uint64_t k2 = 0;      // canonical event key, minor word
  NodeId to;                 // receiving broker (kData / kEchoRequest)
  NodeId from;               // sending broker
  LinkId link;
  std::uint64_t copy_id = 0;  // kData
  int tx_index = 0;           // kData
  bool final_arrival = false;  // kData: no later arrival of this copy
                               // (see HopTransport)
  SlotHandle echo_slot;       // kEcho*: completion slot in the ORIGIN
                              // shard's network (opaque to the receiver)
  Packet packet;              // kData payload; capacity reused across runs
};

// N*N single-writer/single-reader message queues. Writer s appends to
// (s, *) between barriers; reader t drains (*, t) at the barrier.
class ShardExchange {
 public:
  explicit ShardExchange(int shards) : shards_(shards), queues_(
      static_cast<std::size_t>(shards) * static_cast<std::size_t>(shards)) {}

  ShardExchange(const ShardExchange&) = delete;
  ShardExchange& operator=(const ShardExchange&) = delete;

  [[nodiscard]] int shards() const { return shards_; }

  // Next free message slot on the src->dst queue, recycled storage when
  // available. Caller fills every field it needs; stale fields from the
  // slot's previous life are overwritten by convention (kind dispatch
  // reads only its own fields).
  XMsg& Append(int src, int dst) {
    Queue& queue = At(src, dst);
    if (queue.used < queue.slots.size()) return queue.slots[queue.used++];
    ++queue.used;
    return queue.slots.emplace_back();
  }

  // Messages pending on the src->dst queue, in append order.
  [[nodiscard]] std::size_t Count(int src, int dst) const {
    return At(src, dst).used;
  }
  [[nodiscard]] XMsg& Message(int src, int dst, std::size_t i) {
    DCRD_CHECK(i < At(src, dst).used);
    return At(src, dst).slots[i];
  }

  // Rewinds the src->dst queue; element storage (Packet buffers) stays.
  void Reset(int src, int dst) { At(src, dst).used = 0; }

  // True when any queue holds an undrained message (the coordinator's
  // termination check: a run is done only when every scheduler is empty AND
  // nothing is still in flight between shards).
  [[nodiscard]] bool AnyPending() const {
    for (const Queue& queue : queues_) {
      if (queue.used != 0) return true;
    }
    return false;
  }

 private:
  struct Queue {
    std::vector<XMsg> slots;
    std::size_t used = 0;
  };

  [[nodiscard]] Queue& At(int src, int dst) {
    return queues_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(shards_) +
                   static_cast<std::size_t>(dst)];
  }
  [[nodiscard]] const Queue& At(int src, int dst) const {
    return queues_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(shards_) +
                   static_cast<std::size_t>(dst)];
  }

  const int shards_;
  std::vector<Queue> queues_;
};

}  // namespace dcrd
