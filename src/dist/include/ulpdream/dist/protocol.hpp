#pragma once
// Wire protocol of the distributed campaign runtime — the typed message
// layer over util::Frame. One connection = one worker; the conversation
// is strictly worker-initiated request/response after a versioned HELLO:
//
//   worker                          coordinator
//   ------                          -----------
//   Hello{version, fingerprint} ->
//                                <- HelloOk{item_count, lease_items,
//                                           heartbeat_ms}
//                                   (or HelloReject{reason} quoting both
//                                    fingerprints, then close)
//   LeaseRequest{}              ->
//                                <- LeaseGrant{id, [begin, end)}
//                                   or NoWork{done | retry_ms}
//   Heartbeat{id}               ->  (while executing; renews the lease)
//                                <- HeartbeatAck{id}
//   LeaseResult{id, columnar}   ->
//                                <- ResultAck{id}
//   ... more LeaseRequests ...
//   Metrics{snapshot json}      ->  (once, when told the campaign is done)
//   Goodbye{}                   ->  close
//
// Exactly-once is NOT promised by the transport: a lease can expire and
// be re-granted while the original worker still finishes it, so the same
// item range may be ingested twice. The store layer dedups (sorted-index
// first-done-wins in ColumnarStore::append_merge), which is what lets
// the protocol stay this simple.
//
// Every decode failure throws ProtocolError naming the peer and the
// field that was short or trailing — distinct from util::FrameError
// (transport-level) so tests and logs can tell "peer sent a truncated
// LeaseGrant" from "peer is not speaking frames at all".

#include <cstdint>
#include <string>
#include <vector>

#include "ulpdream/util/socket.hpp"
#include "ulpdream/util/wire.hpp"

namespace ulpdream::dist {

/// Bump on any wire-visible change; HELLO carries it and the coordinator
/// rejects mismatches by number (both quoted).
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Typed payload-decode failure naming the peer (transport failures are
/// util::FrameError; this layer means the frame arrived but lied). The
/// codec itself lives in util/wire.hpp and is shared with serve.
using ProtocolError = util::WireError;

enum class MsgType : std::uint32_t {
  kHello = 1,
  kHelloOk = 2,
  kHelloReject = 3,
  kLeaseRequest = 4,
  kLeaseGrant = 5,
  kNoWork = 6,
  kLeaseResult = 7,
  kResultAck = 8,
  kHeartbeat = 9,
  kHeartbeatAck = 10,
  kMetrics = 11,
  kGoodbye = 12,
};

[[nodiscard]] const char* to_string(MsgType type) noexcept;

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string fingerprint;  ///< CampaignSpec::fingerprint() of the grid
  std::string worker_name;  ///< human label for logs/telemetry
};

struct HelloOk {
  std::uint64_t item_count = 0;    ///< grid size (sanity echo)
  std::uint64_t lease_items = 0;   ///< coordinator's grant size
  std::uint64_t heartbeat_ms = 0;  ///< renew at least this often
};

struct HelloReject {
  std::string reason;  ///< quotes both fingerprints / both versions
};

struct LeaseRequest {};

struct LeaseGrant {
  std::uint64_t lease_id = 0;
  std::uint64_t begin = 0;  ///< canonical item range [begin, end)
  std::uint64_t end = 0;
};

struct NoWork {
  /// True: the campaign is complete — drain and say Goodbye. False:
  /// everything is leased out right now; ask again in retry_ms (a lease
  /// may expire back into the pool).
  bool campaign_done = false;
  std::uint64_t retry_ms = 0;
};

struct LeaseResult {
  std::uint64_t lease_id = 0;
  /// A complete columnar store file (ULPDCOL1 bytes) holding exactly the
  /// lease's items — the coordinator spools and append-merges it.
  std::vector<std::uint8_t> store_bytes;
};

struct ResultAck {
  std::uint64_t lease_id = 0;
};

struct Heartbeat {
  std::uint64_t lease_id = 0;
};

struct HeartbeatAck {
  std::uint64_t lease_id = 0;
};

struct Metrics {
  std::string json;  ///< util::telemetry::MetricsSnapshot::write_json
};

struct Goodbye {};

// ---------------------------------------------------------------------------
// Send / receive. send() encodes and writes one frame; receive() returns
// the raw frame for dispatch loops, and decode_*() names both types when
// the peer sent a different one. All of it runs on util::FramedProtocol.

void send(util::Socket& socket, const Hello& m);
void send(util::Socket& socket, const HelloOk& m);
void send(util::Socket& socket, const HelloReject& m);
void send(util::Socket& socket, const LeaseRequest& m);
void send(util::Socket& socket, const LeaseGrant& m);
void send(util::Socket& socket, const NoWork& m);
void send(util::Socket& socket, const LeaseResult& m);
void send(util::Socket& socket, const ResultAck& m);
void send(util::Socket& socket, const Heartbeat& m);
void send(util::Socket& socket, const HeartbeatAck& m);
void send(util::Socket& socket, const Metrics& m);
void send(util::Socket& socket, const Goodbye& m);

/// Decodes `frame`'s payload as the message its type names. Each decoder
/// bounds-checks every field and rejects trailing bytes, so a garbage or
/// truncated payload throws ProtocolError naming the peer, the message
/// and the field — never reads past the buffer.
[[nodiscard]] Hello decode_hello(const util::Frame& frame,
                                 const std::string& peer);
[[nodiscard]] HelloOk decode_hello_ok(const util::Frame& frame,
                                      const std::string& peer);
[[nodiscard]] HelloReject decode_hello_reject(const util::Frame& frame,
                                              const std::string& peer);
[[nodiscard]] LeaseGrant decode_lease_grant(const util::Frame& frame,
                                            const std::string& peer);
[[nodiscard]] NoWork decode_no_work(const util::Frame& frame,
                                    const std::string& peer);
[[nodiscard]] LeaseResult decode_lease_result(const util::Frame& frame,
                                              const std::string& peer);
[[nodiscard]] ResultAck decode_result_ack(const util::Frame& frame,
                                          const std::string& peer);
[[nodiscard]] Heartbeat decode_heartbeat(const util::Frame& frame,
                                         const std::string& peer);
[[nodiscard]] HeartbeatAck decode_heartbeat_ack(const util::Frame& frame,
                                                const std::string& peer);
[[nodiscard]] Metrics decode_metrics(const util::Frame& frame,
                                     const std::string& peer);

/// Reads the next frame (false on clean EOF between frames), capped at
/// util::kMaxFrameBytes. Wire-level failures surface as util::FrameError.
[[nodiscard]] bool receive(util::Socket& socket, util::Frame& out);

}  // namespace ulpdream::dist
