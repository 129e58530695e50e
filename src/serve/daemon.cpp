#include "ulpdream/serve/daemon.hpp"

#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "ulpdream/util/log.hpp"

namespace ulpdream::serve {

namespace {

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
      server_(util::Listener::open(options_.listen),
              [this](util::Socket& socket) { handle_client(socket); },
              "serve.clients_connected") {}

Daemon::Report Daemon::run() {
  util::log_info("serve: daemon listening on ", server_.endpoint(),
                 " (cache ", cache_.dir(), ": ", cache_.entries(),
                 " entries, ", cache_.bytes(), " bytes rehydrated)");
  server_.serve();
  server_.drain();
  std::lock_guard lock(mutex_);
  util::log_info("serve: daemon drained (", report_.queries, " queries, ",
                 report_.cache_hits, " hits, ", report_.gap_fills,
                 " gap-fills, ", report_.cold_runs, " cold)");
  return report_;
}

void Daemon::handle_client(util::Socket& socket) {
  static const util::telemetry::Counter errors("serve.errors");
  const auto answer_error = [this, &socket](const std::string& message) {
    errors.add();
    {
      std::lock_guard lock(mutex_);
      report_.errors += 1;
    }
    send(socket, Error{message});
  };
  {
    std::lock_guard lock(mutex_);
    report_.clients += 1;
  }
  try {
    util::Frame frame;
    // Draining: the query in flight was answered; hang up.
    while (!server_.draining() && receive(socket, frame)) {
      Query query;
      try {
        query = decode_query(frame, socket.peer());
      } catch (const ProtocolError& e) {
        // Payload garbage: tell the peer why, then hang up — a client
        // that cannot frame a Query will not frame the next one either.
        answer_error(e.what());
        break;
      }
      if (query.version != kProtocolVersion) {
        answer_error("protocol version mismatch: daemon speaks " +
                     std::to_string(kProtocolVersion) + ", client sent " +
                     std::to_string(query.version));
        continue;
      }
      try {
        send(socket, answer(query, socket));
      } catch (const util::SocketError&) {
        throw;  // client died mid-query; already cancelled
      } catch (const std::exception& e) {
        // Query-level failure (unknown axis name, bad spec, store I/O):
        // answer with the reason and keep the connection — the client
        // may fix the spec and retry.
        answer_error(e.what());
      }
    }
  } catch (const std::exception& e) {
    util::log_warn("serve: client ", socket.peer(), ": ", e.what());
  }
}

Result Daemon::answer(const Query& query, util::Socket& socket) {
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
      send(socket, Progress{progress.items_done, progress.items_total});
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
