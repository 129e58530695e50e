#pragma once
// The campaign query daemon: a long-lived service that keeps a warm
// campaign::Session (one shared WorkPool) plus a persistent ResultCache
// and answers spec queries over TCP or Unix sockets (serve/protocol.hpp).
//
// Query resolution, in order:
//   1. exact fingerprint hit  — answer straight from the cached columnar
//      file (slurp + optional streaming aggregate); the pool is never
//      touched and no Progress frames are sent.
//   2. overlap gap-fill       — the nearest cached store in the same
//      axes family (records a strict prefix of the query's) is adopted
//      as resume_from and only the gap items execute.
//   3. cold                   — the whole grid executes.
//   Either way the completed store is inserted into the cache, and the
//   Result's store bytes are read back from the published cache file —
//   so what the client receives is byte-identical to what a later hit
//   will serve, and to a single-process `campaign` save of the grid.
//
// Concurrency: util::ConnectionServer runs one handler thread per
// connection and joins it as it finishes, so memory stays flat in the
// number of clients ever served; queries from different clients
// interleave at work-item granularity on the shared Session. The cache
// and counters sit behind one mutex; campaign execution does not.
//
// Shutdown: request_stop() is async-signal-safe (one self-pipe write) —
// wire it directly to SIGTERM/SIGINT. run() then drains: idle clients see
// EOF, a query in flight still finishes and answers before the hang-up,
// every handler is joined, and run() returns a Report.

#include <cstddef>
#include <mutex>
#include <string>

#include "ulpdream/campaign/session.hpp"
#include "ulpdream/serve/cache.hpp"
#include "ulpdream/serve/protocol.hpp"
#include "ulpdream/util/conn_server.hpp"
#include "ulpdream/util/socket.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::serve {

class Daemon {
 public:
  struct Options {
    std::string listen;     ///< "host:port" (port 0 = ephemeral) or "unix:/path"
    std::string cache_dir;  ///< ResultCache directory (required)
    std::uint64_t cache_budget_bytes = std::uint64_t(256) << 20;
    unsigned threads = 0;  ///< session pool size; 0 = hardware_concurrency
    /// Cadence of Progress frames while a query executes.
    std::size_t progress_every_ms = 250;
  };

  /// What run() did, for the CLI's exit summary. Telemetry counters
  /// (serve.*) carry the same facts for metrics scrapes.
  struct Report {
    std::size_t clients = 0;
    std::size_t queries = 0;
    std::size_t cache_hits = 0;
    std::size_t gap_fills = 0;
    std::size_t cold_runs = 0;
    std::size_t errors = 0;
    std::size_t items_executed = 0;
    std::size_t items_reused = 0;  ///< items answered from cached stores
  };

  /// Binds the endpoint, builds the session pool and rehydrates the
  /// cache. Throws on bind/cache failure — fail at startup, not at the
  /// first query.
  explicit Daemon(Options options);

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The resolved listen endpoint (reports the real port for port 0).
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return server_.endpoint();
  }
  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }

  /// Serves until request_stop(), then drains gracefully. Call once.
  Report run();

  /// Async-signal-safe stop request (one write to a self-pipe) — the
  /// SIGTERM/SIGINT handler calls this. Idempotent.
  void request_stop() noexcept { server_.request_stop(); }

  /// Metrics accrued since construction (serve.*, session.*, workpool.*,
  /// codec.*, ... — the session's baseline diff).
  [[nodiscard]] util::telemetry::MetricsSnapshot telemetry() const {
    return session_.telemetry();
  }

 private:
  void handle_client(util::Socket& socket);
  /// Answers one decoded query, streaming Progress frames for executed
  /// grids. Throws SocketError/FrameError when the client dies mid-query
  /// (the in-flight campaign is cancelled first).
  Result answer(const Query& query, util::Socket& socket);

  Options options_;
  campaign::Session session_;
  ResultCache cache_;

  std::mutex mutex_;  ///< guards cache_, report_
  Report report_;
  util::ConnectionServer server_;  ///< last: drained before the rest dies
};

}  // namespace ulpdream::serve
