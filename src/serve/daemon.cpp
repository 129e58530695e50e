#include "ulpdream/serve/daemon.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "ulpdream/util/log.hpp"

namespace ulpdream::serve {

namespace {

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw campaign::StoreError(path, "cannot open for reading");
  const std::streamsize size = is.tellg();
  is.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 && !is.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw campaign::StoreError(path, "short read");
  }
  return bytes;
}

std::string rows_csv_text(const std::vector<campaign::AggregateRow>& rows) {
  std::ostringstream os;
  campaign::write_rows_csv(os, rows);
  return os.str();
}

}  // namespace

Daemon::Daemon(Options options)
    : options_(std::move(options)),
      session_(energy::SystemEnergyModel(), options_.threads),
      cache_(ResultCache::Options{options_.cache_dir,
                                  options_.cache_budget_bytes}),
      listener_(util::Listener::open(options_.listen)) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw util::SocketError(options_.listen,
                            std::string("pipe: ") + std::strerror(errno));
  }
  stop_rd_ = fds[0];
  stop_wr_ = fds[1];
}

Daemon::~Daemon() {
  if (stop_rd_ >= 0) (void)::close(stop_rd_);
  if (stop_wr_ >= 0) (void)::close(stop_wr_);
}

void Daemon::request_stop() noexcept {
  if (stop_wr_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(stop_wr_, &byte, 1);
  }
}

Daemon::Report Daemon::run() {
  util::log_info("serve: daemon listening on ", listener_.endpoint(),
                 " (cache ", cache_.dir(), ": ", cache_.entries(),
                 " entries, ", cache_.bytes(), " bytes rehydrated)");
  for (;;) {
    pollfd fds[2];
    fds[0] = pollfd{listener_.fd(), POLLIN, 0};
    fds[1] = pollfd{stop_rd_, POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw util::SocketError(listener_.endpoint(),
                              std::string("poll: ") + std::strerror(errno));
    }
    if ((fds[1].revents & POLLIN) != 0) break;
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    auto conn = std::make_shared<ClientConn>();
    conn->socket = listener_.accept();
    std::lock_guard lock(mutex_);
    report_.clients += 1;
    conns_.push_back(conn);
    handlers_.emplace_back([this, conn] { handle_client(conn); });
  }

  // Graceful drain: no new connections, idle clients wake to EOF, busy
  // handlers finish and answer their in-flight query, then everyone
  // joins.
  stopping_.store(true);
  listener_.close();
  {
    std::lock_guard lock(mutex_);
    for (const auto& conn : conns_) {
      if (!conn->busy.load()) conn->socket.shutdown();
    }
  }
  for (std::thread& handler : handlers_) handler.join();
  util::log_info("serve: daemon drained (", report_.queries, " queries, ",
                 report_.cache_hits, " hits, ", report_.gap_fills,
                 " gap-fills, ", report_.cold_runs, " cold)");
  std::lock_guard lock(mutex_);
  return report_;
}

void Daemon::handle_client(const std::shared_ptr<ClientConn>& conn) {
  static const util::telemetry::Counter errors("serve.errors");
  static const util::telemetry::Gauge connected("serve.clients_connected");
  connected.set(static_cast<double>(++connected_count_));
  try {
    util::Frame frame;
    while (receive(conn->socket, frame, options_.max_frame_bytes)) {
      Query query;
      try {
        query = decode_query(frame, conn->socket.peer());
      } catch (const ProtocolError& e) {
        // Payload garbage: tell the peer why, then hang up — a client
        // that cannot frame a Query will not frame the next one either.
        errors.add();
        {
          std::lock_guard lock(mutex_);
          report_.errors += 1;
        }
        send(conn->socket, Error{e.what()});
        break;
      }
      if (query.version != kProtocolVersion) {
        errors.add();
        {
          std::lock_guard lock(mutex_);
          report_.errors += 1;
        }
        send(conn->socket,
             Error{"protocol version mismatch: daemon speaks " +
                   std::to_string(kProtocolVersion) + ", client sent " +
                   std::to_string(query.version)});
        continue;
      }
      conn->busy.store(true);
      Result result;
      try {
        result = answer(query, *conn);
      } catch (const util::SocketError&) {
        conn->busy.store(false);
        throw;  // client died mid-query; already cancelled
      } catch (const std::exception& e) {
        // Query-level failure (unknown axis name, bad spec, store I/O):
        // answer with the reason and keep the connection — the client
        // may fix the spec and retry.
        conn->busy.store(false);
        errors.add();
        {
          std::lock_guard lock(mutex_);
          report_.errors += 1;
        }
        send(conn->socket, Error{e.what()});
        if (stopping_.load()) break;
        continue;
      }
      conn->busy.store(false);
      send(conn->socket, result);
      if (stopping_.load()) break;
    }
  } catch (const std::exception& e) {
    util::log_warn("serve: client ", conn->socket.peer(), ": ", e.what());
  }
  {
    // The drain shutdown()s idle sockets under mutex_; closing under it
    // too means it never touches a closed (or reused) descriptor.
    std::lock_guard lock(mutex_);
    conn->socket.close();
  }
  connected.set(static_cast<double>(--connected_count_));
}

Result Daemon::answer(const Query& query, ClientConn& conn) {
  static const util::telemetry::Counter queries("serve.queries");
  static const util::telemetry::Histogram hit_ns("serve.query.hit_ns");
  static const util::telemetry::Histogram cold_ns("serve.query.cold_ns");
  static const util::telemetry::Histogram gap_ns("serve.query.gapfill_ns");
  static const util::telemetry::Counter gap_executed(
      "serve.gapfill.items_executed");
  static const util::telemetry::Counter gap_reused(
      "serve.gapfill.items_reused");
  queries.add();
  {
    std::lock_guard lock(mutex_);
    report_.queries += 1;
  }
  const std::uint64_t t0 = util::telemetry::now_ns();

  const campaign::CampaignSpec spec = query.spec.normalized();
  const std::string fingerprint = spec.fingerprint();
  Result result;
  result.items_total = spec.item_count();

  // 1. Exact hit: answer from the published cache file; the pool is
  // never touched. The file read happens under the cache lock so a
  // concurrent insert's eviction sweep cannot unlink it mid-read.
  {
    std::unique_lock lock(mutex_);
    if (const auto hit = cache_.find(fingerprint)) {
      result.status = CacheStatus::kHit;
      if (query.want_store) result.store_bytes = slurp(hit->store_path);
      if (query.want_rows) {
        const auto store =
            campaign::ColumnarStore::open(hit->store_path, hit->spec);
        result.rows_csv = rows_csv_text(store.aggregate(query.group));
      }
      report_.cache_hits += 1;
      report_.items_reused += spec.item_count();
      lock.unlock();
      hit_ns.record(util::telemetry::now_ns() - t0);
      return result;
    }
  }

  // 2. Overlap gap-fill: adopt the nearest same-family cached store as
  // resume_from. submit() consumes the resume store synchronously (the
  // merge runs on this thread), so `adopted` may die with this frame.
  campaign::ResultStore adopted;
  bool have_donor = false;
  {
    std::lock_guard lock(mutex_);
    if (const auto donor = cache_.best_overlap(spec)) {
      const auto donor_store =
          campaign::ColumnarStore::open(donor->store_path, donor->spec);
      adopted = adopt_prefix(donor_store, spec);
      have_donor = true;
    }
  }

  campaign::SubmitOptions submit_options;
  if (have_donor) submit_options.resume_from = &adopted;
  const campaign::CampaignHandle handle =
      session_.submit(spec, submit_options);

  try {
    for (;;) {
      const campaign::Progress progress = handle.progress();
      send(conn.socket, Progress{progress.items_done, progress.items_total});
      if (progress.finished) break;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.progress_every_ms));
    }
  } catch (...) {
    // The client died mid-execution: stop burning the pool on an answer
    // nobody will read (unclaimed items never start; the partial result
    // is discarded, not cached).
    handle.cancel();
    throw;
  }

  const campaign::Progress final_progress = handle.progress();
  campaign::ResultStore store = handle.take();
  result.items_executed =
      final_progress.items_done - final_progress.items_resumed;
  result.status = have_donor ? CacheStatus::kGapFill : CacheStatus::kCold;

  // 3. Publish to the cache, then answer with the published file's
  // bytes — what the client gets is bit-identical to what the next hit
  // will serve (and to a single-process `campaign` save of this grid).
  {
    std::lock_guard lock(mutex_);
    const ResultCache::Entry entry = cache_.insert(spec, store);
    if (query.want_store) result.store_bytes = slurp(entry.store_path);
    report_.items_executed += result.items_executed;
    if (have_donor) {
      report_.gap_fills += 1;
      report_.items_reused += final_progress.items_resumed;
      gap_executed.add(result.items_executed);
      gap_reused.add(final_progress.items_resumed);
    } else {
      report_.cold_runs += 1;
    }
  }
  if (query.want_rows) {
    result.rows_csv = rows_csv_text(store.aggregate(query.group));
  }
  (have_donor ? gap_ns : cold_ns).record(util::telemetry::now_ns() - t0);
  return result;
}

}  // namespace ulpdream::serve
