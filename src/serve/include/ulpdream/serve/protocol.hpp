#pragma once
// Wire protocol of the campaign query daemon — the serve-side sibling of
// dist/protocol.hpp, riding the same ULPDFRM1 framing (util/socket.hpp)
// and the same payload codec (util/wire.hpp). One connection = one
// client; the conversation is client-initiated query/answer and may
// carry any number of queries back-to-back:
//
//   client                          daemon
//   ------                          ------
//   Query{version, spec, wants} ->
//                                <- Progress{items_done, items_total}
//                                   (streamed while the grid executes;
//                                    none for an exact cache hit)
//                                <- Result{status, counts, store, rows}
//                                   or Error{message}, connection kept
//   ... more Queries ...
//   close                           (no goodbye frame)
//
// Message type numbers live in a distinct range from dist's (which are
// 1..12) so a frame from a client that dialed the wrong port fails by
// name ("expected Query frame, got ...") instead of mis-decoding.
//
// The spec codec (encode_spec/decode_spec) is shared between the Query
// payload and the cache directory's sidecar files, so a rehydrating
// daemon decodes the very bytes a client once sent.

#include <cstdint>
#include <string>
#include <vector>

#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/util/socket.hpp"
#include "ulpdream/util/wire.hpp"

namespace ulpdream::serve {

/// Bump on any wire-visible change; Query carries it and the daemon
/// rejects mismatches with an Error frame quoting both numbers.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Same typed decode failure as dist (the codec is shared).
using ProtocolError = util::WireError;

enum class MsgType : std::uint32_t {
  kQuery = 32,
  kResult = 33,
  kProgress = 34,
  kError = 35,
};

[[nodiscard]] const char* to_string(MsgType type) noexcept;

/// How the daemon answered: straight from the mapped cache (kHit), by
/// running only the items a cached overlapping store was missing
/// (kGapFill), or by executing the whole grid (kCold).
enum class CacheStatus : std::uint8_t {
  kCold = 0,
  kHit = 1,
  kGapFill = 2,
};

[[nodiscard]] const char* to_string(CacheStatus status) noexcept;

struct Query {
  std::uint32_t version = kProtocolVersion;
  campaign::CampaignSpec spec;
  bool want_store = true;  ///< return the columnar store bytes
  bool want_rows = false;  ///< return aggregate rows as CSV text
  campaign::GroupBy group{};  ///< grouping for want_rows
};

struct Result {
  CacheStatus status = CacheStatus::kCold;
  std::uint64_t items_total = 0;     ///< grid size of the queried spec
  std::uint64_t items_executed = 0;  ///< items actually run (0 on a hit)
  /// Complete columnar store (ULPDCOL1 bytes) of the queried grid, when
  /// want_store — byte-identical to a single-process `campaign` save of
  /// the same spec.
  std::vector<std::uint8_t> store_bytes;
  /// Aggregate rows as CSV (write_rows_csv bytes), when want_rows.
  std::string rows_csv;
};

struct Progress {
  std::uint64_t items_done = 0;
  std::uint64_t items_total = 0;
};

struct Error {
  std::string message;
};

// ---------------------------------------------------------------------------
// Spec codec — shared by the Query payload and cache sidecar files.

void encode_spec(util::PayloadWriter& w, const campaign::CampaignSpec& spec);
/// Decodes the field block encode_spec wrote. Unknown pathology names
/// throw std::invalid_argument listing the valid set (same behaviour as
/// the CLI's axis parsers).
[[nodiscard]] campaign::CampaignSpec decode_spec(util::PayloadReader& r);

/// GroupBy <-> wire bit mask (bit 0 record, 1 app, 2 emt, 3 voltage).
[[nodiscard]] std::uint8_t group_mask(const campaign::GroupBy& group) noexcept;
[[nodiscard]] campaign::GroupBy group_from_mask(std::uint8_t mask) noexcept;

// ---------------------------------------------------------------------------
// Send / receive, mirroring dist: send() encodes and writes one frame;
// decode_*() bounds-checks every field and rejects trailing bytes.

void send(util::Socket& socket, const Query& m);
void send(util::Socket& socket, const Result& m);
void send(util::Socket& socket, const Progress& m);
void send(util::Socket& socket, const Error& m);

[[nodiscard]] Query decode_query(const util::Frame& frame,
                                 const std::string& peer);
[[nodiscard]] Result decode_result(const util::Frame& frame,
                                   const std::string& peer);
[[nodiscard]] Progress decode_progress(const util::Frame& frame,
                                       const std::string& peer);
[[nodiscard]] Error decode_error(const util::Frame& frame,
                                 const std::string& peer);

/// Reads the next frame (false on clean EOF between frames), capped at
/// util::kMaxFrameBytes. Wire-level failures surface as util::FrameError.
[[nodiscard]] bool receive(util::Socket& socket, util::Frame& out);

}  // namespace ulpdream::serve
