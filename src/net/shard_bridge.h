// Cross-shard MAC handoff interface for the sharded engine.
//
// In a sharded run (src/sim/sharded/) each shard owns a subset of node ids
// and drives its own Network replica. When a frame finishing on shard A has a
// receiver owned by shard B, the sender's Network does not invoke B's receive
// handler directly — that would race with B's event loop. Instead it posts
// the reception through this bridge; the engine buffers it in a mailbox and
// shard B resolves it (half-duplex, collision, handler dispatch) at the next
// window barrier, at most one lookahead window late.
//
// Unicast needs the reverse path too: the sender's retry/fail bookkeeping
// waits on whether the intended receiver decoded the frame. When the intended
// receiver is foreign, the sender's MAC parks the frame (`awaiting_verdict`)
// and the receiving shard answers with post_verdict(), which the engine
// routes back to Network::complete_unicast() on the sender's shard.
//
// A Network with no bridge installed (the default, and every shards=1 run)
// never touches any of this: the hot path is guarded by a single null check.
#pragma once

#include "core/sim_time.h"
#include "net/channel_state.h"
#include "net/packet.h"

namespace vanet::net {

class ShardBridge {
 public:
  virtual ~ShardBridge() = default;

  /// True when this shard's event loop owns node `id` (drives its MAC and
  /// protocol instance). Receptions for non-owned nodes are handed off.
  virtual bool owned(NodeId id) const = 0;

  /// Buffer a reception for foreign node `rx` of the frame recorded in `tx`.
  /// `want_verdict` marks the intended receiver of a unicast frame: the
  /// owning shard must answer with post_verdict() after resolving it.
  virtual void post_reception(const ChannelState::Tx& tx, const Packet& packet,
                              NodeId rx, bool want_verdict) = 0;

  /// Route a unicast decode verdict back to the (foreign) transmitter
  /// `tx_node`, completing its parked retry/fail bookkeeping.
  virtual void post_verdict(NodeId tx_node, bool delivered) = 0;

  /// Longest delay between a posted frame's end and its resolution on the
  /// owning shard. The receiving Network keeps its channel history this much
  /// longer, so the foreign frame's collision check still sees every local
  /// transmission it overlapped.
  virtual core::SimTime handoff_lateness() const = 0;
};

}  // namespace vanet::net
