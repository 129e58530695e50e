#pragma once
// The traced run's instruments, all outside the library: wrapper EMTs and
// apps registered through core::emt_registry() / apps::app_registry()
// under "traced.<name>". Each wrapper forwards every virtual to the
// built-in it wraps (so stores stay bit-identical) and times each call of
// BioApp::run, Emt::encode_block and Emt::decode_block on a per-thread,
// in-memory recorder. App runs are kept as spans. Codec calls (thousands
// per item, 8-128 words each) are folded into their parent: the app span
// open on the same thread accrues their time and count, and per-thread
// tables accrue ns and words per EMT and the window lengths per app. The
// campaign's on_item callback, which runs on the worker thread right after
// the item, stamps the thread's open spans with the item's id. Spans are
// written to a file when the run ends.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

enum class Kind : std::uint8_t {
  kApp,        ///< BioApp::run on a wrapped (campaign) EMT
  kReference,  ///< BioApp::run on an unwrapped EMT: clean/reference runs
};

inline constexpr std::uint64_t kNoItem = ~std::uint64_t{0};

/// One app run. Its codec calls are its children.
struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t item = kNoItem;
  std::uint64_t codec_ns = 0;     ///< summed child codec call time
  std::uint32_t codec_calls = 0;  ///< child codec calls
  std::uint16_t app = 0;          ///< app id
  Kind kind = Kind::kApp;         ///< kApp or kReference
};

/// Registers the wrappers once per process (idempotent).
void register_wrappers();
/// "traced.<name>": the registry name of the wrapper around `name`.
[[nodiscard]] std::string traced(const std::string& name);

/// Closes the calling thread's current item: its spans since the last call
/// get `item_id`.
void end_item(std::uint64_t item_id);
/// Drops every recorded span (thread buffers stay registered).
void clear();

/// Layer totals over the spans of finished items.
struct Breakdown {
  /// Wall ns of BioApp::run on campaign EMTs, and of their codec children,
  /// per app name.
  std::map<std::string, std::uint64_t> app_ns;
  std::map<std::string, std::uint64_t> app_codec_ns;
  /// decode_block ns / words per EMT name; encode totals over all EMTs.
  std::map<std::string, std::uint64_t> decode_ns;
  std::map<std::string, std::uint64_t> decode_words;
  std::uint64_t encode_ns = 0;
  std::uint64_t encode_words = 0;
  /// decode_block window length -> calls, per app name.
  std::map<std::string, std::map<std::uint32_t, std::uint64_t>> decode_windows;

  [[nodiscard]] std::uint64_t total_app_ns() const;
  [[nodiscard]] std::uint64_t total_codec_ns() const;
  /// Median decode window of `app` (0 when it made no decode call).
  [[nodiscard]] double window_p50(const std::string& app) const;
};

/// Folds every span stamped with an item, and the codec tables. Call only
/// while no traced job runs (after CampaignHandle::wait()).
[[nodiscard]] Breakdown collect();

/// Writes every recorded span, one tab-separated line each
/// (thread start_ns dur_ns item kind app codec_ns codec_calls).
void dump(const std::string& path);

}  // namespace perfbench::trace
