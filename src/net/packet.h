// Packets exchanged between nodes.
//
// A Packet models one L3 PDU. Protocol-specific headers derive from Header
// and ride along as an immutable shared payload, so copying a Packet (which
// the channel does once per receiver) is cheap.
#pragma once

#include <cstdint>
#include <memory>

#include "core/sim_time.h"

namespace vanet::net {

using NodeId = std::uint32_t;

/// L2/L3 broadcast address.
inline constexpr NodeId kBroadcastId = 0xffffffffu;

enum class PacketKind : std::uint8_t {
  kData,     ///< application payload
  kControl,  ///< protocol control (RREQ/RREP/RERR/updates/probes)
  kHello,    ///< neighbor beacons
};

/// Registry of concrete header types. Every Header subclass stamps its tag at
/// construction and exposes it as `static constexpr HeaderTag kTag`;
/// Packet::header_as dispatches on the tag with a static_cast instead of a
/// dynamic_cast — the RTTI walk was measurable on the reception hot path
/// (every handler probes every control frame). The hierarchy is flat and all
/// subclasses are final, so an exact tag match is equivalent to dynamic_cast.
enum class HeaderTag : std::uint8_t {
  kHello,
  kZone,
  kGrid,
  kCar,
  kRreq,
  kRrep,
  kRerr,
  kDsrRreq,
  kDsrRrep,
  kDsrData,
  kDsrRerr,
};

/// Base class for protocol-specific headers (tag dispatch, see HeaderTag).
struct Header {
  virtual ~Header() = default;

  HeaderTag tag() const { return tag_; }

 protected:
  explicit Header(HeaderTag tag) : tag_{tag} {}
  Header(const Header&) = default;
  Header& operator=(const Header&) = default;

 private:
  HeaderTag tag_;
};

struct Packet {
  PacketKind kind = PacketKind::kControl;

  NodeId origin = 0;                ///< L3 source
  NodeId destination = kBroadcastId;///< L3 destination (broadcast for floods)
  NodeId tx = 0;                    ///< L2 transmitter of this frame
  NodeId rx = kBroadcastId;         ///< L2 intended receiver (broadcast ok)

  std::uint32_t flow = 0;           ///< application flow id (data packets)
  std::uint32_t seq = 0;            ///< per-flow sequence / control sequence
  int ttl = 32;
  int hops = 0;                     ///< L3 hops travelled so far
  std::size_t size_bytes = 64;

  core::SimTime created_at{};       ///< L3 origination time (for delay)
  std::uint64_t uid = 0;            ///< unique per send() call (frame id)

  std::shared_ptr<const Header> header;

  /// Typed view of the protocol header; nullptr when it is another type.
  template <typename H>
  const H* header_as() const {
    const Header* h = header.get();
    return (h != nullptr && h->tag() == H::kTag) ? static_cast<const H*>(h)
                                                 : nullptr;
  }
};

}  // namespace vanet::net
