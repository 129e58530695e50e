#pragma once
// The query daemon's warm-result store: a byte-budgeted LRU of completed
// columnar campaign stores keyed on CampaignSpec::fingerprint(), persisted
// in one cache directory so a restarted daemon rehydrates its working set
// from disk instead of recomputing it.
//
// On-disk layout: each entry is a pair of files named by the spec's
// 64-bit fingerprint hash —
//   <hash>.ulpdcol   the complete columnar store (ResultStore::
//                    save_columnar bytes, byte-identical to a
//                    single-process `campaign` save of the same grid)
//   <hash>.spec      a sidecar holding the wire-encoded spec
//                    (serve::encode_spec bytes), so rehydration recovers
//                    the full spec — the fingerprint alone cannot be
//                    parsed back into axes.
//
// Rehydration walks the directory oldest-mtime-first (so the rebuilt LRU
// order approximates the pre-restart recency order), decodes each
// sidecar, and validates each store by opening it against its spec. A
// corrupt, truncated or foreign file — anything that throws a typed
// error — is *quarantined*: both files are renamed to "<name>.quarantined"
// and the daemon keeps serving; a bad cache entry must never take the
// service down.
//
// Not thread-safe: the daemon serializes all cache access under one
// mutex (cache operations are directory bookkeeping, not compute).

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/spec.hpp"

namespace ulpdream::serve {

/// True when `cached` answers a prefix of `query`'s canonical item space:
/// identical axes fingerprint (apps, emts, voltages, repetitions, seed,
/// ber model, record front-end) and cached.records a strict prefix of
/// query.records. Records are the outermost expansion axis, so exactly
/// then do the common items keep identical canonical indices — and
/// therefore identical mix64 RNG seeds — which is what makes the cached
/// results adoptable verbatim as resume_from for the superset grid.
/// Both specs must be normalized.
[[nodiscard]] bool is_resumable_prefix(const campaign::CampaignSpec& cached,
                                       const campaign::CampaignSpec& query);

/// Re-keys a cached store onto `query`'s grid: a heap ResultStore over
/// the (normalized) query spec holding every done item of `cached`
/// verbatim — the resume_from input for the gap run. Requires
/// is_resumable_prefix(cached.spec(), query).
[[nodiscard]] campaign::ResultStore adopt_prefix(
    const campaign::ColumnarStore& cached,
    const campaign::CampaignSpec& query);

/// Reads a whole file (a published store, a spec sidecar). Throws
/// campaign::StoreError naming the path.
[[nodiscard]] std::vector<std::uint8_t> slurp(const std::string& path);

class ResultCache {
 public:
  struct Options {
    std::string dir;  ///< cache directory (created if absent)
    /// Evict least-recently-used entries once the summed file bytes
    /// exceed this. The newest entry is always kept, even alone over
    /// budget — evicting the result we just computed would be absurd.
    std::uint64_t budget_bytes = std::uint64_t(256) << 20;
  };

  struct Entry {
    std::string fingerprint;
    campaign::CampaignSpec spec;  ///< normalized
    std::string store_path;       ///< <hash>.ulpdcol under dir
    std::uint64_t bytes = 0;      ///< store + sidecar file bytes
  };

  /// One rehydration casualty: the file that was quarantined and the
  /// typed error (naming the path) that condemned it.
  struct QuarantineEvent {
    std::string path;
    std::string reason;
  };

  /// Creates the directory if needed and rehydrates every valid entry.
  /// Throws std::runtime_error when the directory cannot be created.
  explicit ResultCache(Options options);

  /// Exact hit: the entry for this fingerprint, freshened to
  /// most-recently-used. Counts serve.cache.hits / serve.cache.misses.
  [[nodiscard]] std::optional<Entry> find(const std::string& fingerprint);

  /// Best gap-fill donor for `spec` (normalized): the resumable-prefix
  /// entry covering the most records. nullopt when nothing overlaps.
  /// A returned donor is freshened to most-recently-used.
  [[nodiscard]] std::optional<Entry> best_overlap(
      const campaign::CampaignSpec& spec);

  /// Persists the completed store of `spec` (normalized) — canonical
  /// save_columnar plus the spec sidecar — then evicts LRU entries until
  /// the byte budget holds. Re-inserting an existing fingerprint
  /// refreshes the entry in place. Returns the entry.
  Entry insert(const campaign::CampaignSpec& spec,
               const campaign::ResultStore& store);

  [[nodiscard]] std::size_t entries() const noexcept { return lru_.size(); }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] const std::string& dir() const noexcept {
    return options_.dir;
  }
  /// Files quarantined during rehydration (diagnostics / tests).
  [[nodiscard]] const std::vector<QuarantineEvent>& quarantined()
      const noexcept {
    return quarantined_;
  }

 private:
  void rehydrate();
  void evict_to_budget();
  void touch(std::list<Entry>::iterator it);
  void publish_gauges() const;

  Options options_;
  /// LRU order: front = least recent, back = most recent.
  std::list<Entry> lru_;
  std::map<std::string, std::list<Entry>::iterator> by_fingerprint_;
  std::uint64_t bytes_ = 0;
  std::vector<QuarantineEvent> quarantined_;
};

}  // namespace ulpdream::serve
