#pragma once
// Campaign coordinator: the process that owns the CampaignSpec, leases
// dynamic item ranges to socket-connected workers, ingests their
// completed shards as columnar files, folds their metrics snapshots, and
// publishes the single merged store. Fault tolerance is structural, not
// bolted on:
//
//  - leases carry a TTL renewed by heartbeats; serve() returns expired
//    leases to the pool while it waits for completion, so a SIGKILL'd or
//    wedged worker merely delays its range;
//  - a disconnect revokes everything the peer held (same path);
//  - a *stale* result — the original worker finishing a lease that
//    already expired and was re-granted — is still ingested; the store
//    layer's sorted-index first-done-wins dedup makes the duplicate
//    byte-invisible in the final canonical append_merge, which is what
//    lets the coordinator promise a merged store byte-identical to a
//    single-process run.
//
// Memory stays flat in the campaign's item count: lease bookkeeping is
// interval-based (LeaseTable), shard payloads are spooled straight to
// disk, and the final merge streams through bounded buffers.
//
// Threading: connections run on util::ConnectionServer (accept loop when
// listening, one handler thread per connection, joined as it finishes);
// serve()'s own thread waits for completion, expiring overdue leases as
// it waits, then drains the server after a grace period, so a straggler
// sees EOF and its leases are revoked. One mutex guards the lease table,
// the spool list and the metrics fold; handlers block in socket reads,
// never while holding it.

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/dist/lease_table.hpp"
#include "ulpdream/util/conn_server.hpp"
#include "ulpdream/util/socket.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::dist {

class Coordinator {
 public:
  struct Options {
    /// Endpoint to listen on ("host:port", port 0 = ephemeral;
    /// "unix:/path"). Empty: no listener — peers arrive via adopt()
    /// only (the in-process FakeWorker path).
    std::string listen;
    /// Items per lease grant (the last grant of the pool may be smaller).
    std::size_t lease_items = 256;
    /// Lease TTL; a lease not renewed within this window is re-granted.
    std::size_t lease_ttl_ms = 10'000;
    /// Heartbeat cadence advertised to workers (should be well under the
    /// TTL; grants renew implicitly too).
    std::size_t heartbeat_ms = 2'000;
    /// Directory shard payloads are spooled to (created if missing).
    std::string spool_dir;
    /// Where the merged columnar store is published.
    std::string store_out;
    /// Optional: write the folded worker metrics snapshot as JSON here.
    std::string metrics_out;
  };

  struct Report {
    std::size_t workers_seen = 0;     ///< HELLOs accepted
    std::size_t workers_rejected = 0;
    std::size_t leases_granted = 0;
    std::size_t leases_expired = 0;   ///< TTL lapses (re-leased)
    std::size_t leases_revoked = 0;   ///< disconnect/error revocations
    std::size_t stale_results = 0;    ///< results for already-expired leases
    std::size_t protocol_errors = 0;
    std::size_t shards_ingested = 0;
    std::uint64_t ingest_bytes = 0;
    /// Fold of every worker's MetricsSnapshot (associative merge).
    util::telemetry::MetricsSnapshot worker_metrics;
  };

  /// Normalizes `spec`, opens the listener when `options.listen` is set.
  /// Throws std::invalid_argument on empty spool_dir/store_out and
  /// SocketError when the endpoint cannot be bound.
  Coordinator(campaign::CampaignSpec spec, Options options);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  [[nodiscard]] const campaign::CampaignSpec& spec() const noexcept {
    return spec_;
  }
  /// Resolved listen endpoint (ephemeral port filled in); empty when not
  /// listening.
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return server_.endpoint();
  }

  /// Serves a pre-connected peer (socketpair / FakeWorker) exactly like
  /// an accepted connection. Callable before or during serve().
  void adopt(util::Socket socket) { server_.adopt(std::move(socket)); }

  /// Runs the campaign to completion: accepts workers, leases work,
  /// ingests shards, then closes the listener, drains connections,
  /// canonically append-merges the spooled shards into store_out and
  /// returns the report. The merged store is byte-identical to a
  /// single-process run's save_columnar of the same spec.
  Report serve();

 private:
  void handle_connection(util::Socket& socket);
  void ingest(std::uint64_t lease_id, const std::vector<std::uint8_t>& bytes);

  campaign::CampaignSpec spec_;
  Options options_;
  std::string fingerprint_;

  std::mutex mutex_;
  std::condition_variable cv_;  ///< all_done wakeups
  LeaseTable table_;
  /// Every grant ever made, so a stale result can still be credited to
  /// its range. O(total leases) — bounded by items/lease_items + churn.
  std::unordered_map<std::uint64_t, std::pair<std::size_t, std::size_t>>
      granted_;
  std::vector<std::string> spooled_;  ///< shard files, ingest order
  Report report_;
  util::ConnectionServer server_;  ///< last: drained before the rest dies
};

}  // namespace ulpdream::dist
