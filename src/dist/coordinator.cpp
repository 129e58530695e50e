#include "ulpdream/dist/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/dist/protocol.hpp"
#include "ulpdream/util/file_view.hpp"
#include "ulpdream/util/log.hpp"

namespace ulpdream::dist {

namespace {

namespace telemetry = util::telemetry;

struct DistCounters {
  telemetry::Counter leases_granted{"dist.leases_granted"};
  telemetry::Counter leases_expired{"dist.leases_expired"};
  telemetry::Counter leases_revoked{"dist.leases_revoked"};
  telemetry::Counter stale_results{"dist.stale_results"};
  telemetry::Counter ingest_bytes{"dist.ingest_bytes"};
  telemetry::Counter shards_ingested{"dist.shards_ingested"};
  telemetry::Counter protocol_errors{"dist.protocol_errors"};
  telemetry::Gauge items_done{"dist.items_done"};
};

const DistCounters& counters() {
  static const DistCounters c;
  return c;
}

}  // namespace

Coordinator::Coordinator(campaign::CampaignSpec spec, Options options)
    : spec_(spec.normalized()),
      options_(std::move(options)),
      fingerprint_(spec_.fingerprint()),
      table_(spec_.item_count(),
             options_.lease_items == 0 ? 1 : options_.lease_items,
             std::chrono::milliseconds(options_.lease_ttl_ms)),
      server_(options_.listen.empty() ? util::Listener()
                                      : util::Listener::open(options_.listen),
              [this](util::Socket& socket) { handle_connection(socket); },
              "dist.workers_connected") {
  if (options_.spool_dir.empty()) {
    throw std::invalid_argument("Coordinator: spool_dir must be set");
  }
  if (options_.store_out.empty()) {
    throw std::invalid_argument("Coordinator: store_out must be set");
  }
  std::filesystem::create_directories(options_.spool_dir);
}

void Coordinator::ingest(std::uint64_t lease_id,
                         const std::vector<std::uint8_t>& bytes) {
  // Spool to disk first (outside the lock): coordinator memory holds at
  // most one shard payload per connection at a time.
  const std::string path = options_.spool_dir + "/shard_" +
                           std::to_string(lease_id) + ".ulpdcol";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os ||
        !os.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()))) {
      throw std::runtime_error(tmp + ": failed to spool shard");
    }
  }
  util::publish_file_atomic(tmp, path);
  // Validate the shard is a well-formed store of *this* campaign before
  // crediting its range — a corrupt payload must not mark items done.
  (void)campaign::ColumnarStore::open(path, spec_);

  std::lock_guard<std::mutex> lock(mutex_);
  spooled_.push_back(path);
  ++report_.shards_ingested;
  report_.ingest_bytes += bytes.size();
  counters().shards_ingested.add();
  counters().ingest_bytes.add(bytes.size());
  if (!table_.complete(lease_id)) {
    // The lease expired (and its range was re-granted) before the
    // original worker finished. The work is valid all the same: credit
    // the range; append_merge dedups any overlap first-done-wins.
    ++report_.stale_results;
    counters().stale_results.add();
    const auto it = granted_.find(lease_id);
    if (it != granted_.end()) {
      table_.complete_range(it->second.first, it->second.second);
    }
  }
  counters().items_done.set(static_cast<double>(table_.items_done()));
  if (table_.all_done()) cv_.notify_all();
}

/// The per-connection conversation: HELLO handshake, then the worker's
/// request/response loop until Goodbye, EOF (the drain's included), or a
/// transport/protocol failure — every exit path revokes the peer's
/// leases.
void Coordinator::handle_connection(util::Socket& socket) {
  const std::string peer = socket.peer();
  std::string owner = peer;
  bool accepted = false;
  try {
    // A peer silent longer than the TTL is not heartbeating its leases;
    // time the read out so the handler can revoke and exit instead of
    // blocking forever on a wedged connection.
    socket.set_recv_timeout(options_.lease_ttl_ms * 2);
    util::Frame frame;
    bool open = receive(socket, frame);
    if (open) {
      const Hello hello = decode_hello(frame, peer);
      owner =
          hello.worker_name.empty() ? peer : hello.worker_name + "@" + peer;
      std::string reject;
      if (hello.version != kProtocolVersion) {
        reject = "protocol version mismatch: coordinator speaks " +
                 std::to_string(kProtocolVersion) + ", worker sent " +
                 std::to_string(hello.version);
      } else if (hello.fingerprint != fingerprint_) {
        reject = "campaign fingerprint mismatch: coordinator has \"" +
                 fingerprint_ + "\", worker sent \"" + hello.fingerprint +
                 "\"";
      }
      accepted = reject.empty();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++(accepted ? report_.workers_seen : report_.workers_rejected);
      }
      if (accepted) {
        send(socket, HelloOk{spec_.item_count(), options_.lease_items,
                             options_.heartbeat_ms});
      } else {
        send(socket, HelloReject{reject});
      }
      open = accepted;
    }

    while (open && !server_.draining() && receive(socket, frame)) {
      switch (static_cast<MsgType>(frame.type)) {
        case MsgType::kLeaseRequest: {
          LeaseTable::Lease lease;
          bool granted = false;
          bool done = false;
          {
            std::lock_guard<std::mutex> lock(mutex_);
            granted = table_.grant(owner, LeaseTable::Clock::now(), lease);
            if (granted) {
              granted_.emplace(lease.id,
                               std::make_pair(lease.begin, lease.end));
              ++report_.leases_granted;
            }
            done = table_.all_done();
          }
          if (granted) {
            counters().leases_granted.add();
            send(socket, LeaseGrant{lease.id, lease.begin, lease.end});
          } else {
            send(socket, NoWork{done, options_.heartbeat_ms});
          }
          break;
        }
        case MsgType::kHeartbeat: {
          const Heartbeat hb = decode_heartbeat(frame, peer);
          {
            std::lock_guard<std::mutex> lock(mutex_);
            (void)table_.renew(hb.lease_id, LeaseTable::Clock::now());
          }
          send(socket, HeartbeatAck{hb.lease_id});
          break;
        }
        case MsgType::kLeaseResult: {
          const LeaseResult result = decode_lease_result(frame, peer);
          ingest(result.lease_id, result.store_bytes);
          send(socket, ResultAck{result.lease_id});
          break;
        }
        case MsgType::kMetrics: {
          const Metrics metrics = decode_metrics(frame, peer);
          std::istringstream is(metrics.json);
          const auto snapshot = telemetry::MetricsSnapshot::read_json(is);
          std::lock_guard<std::mutex> lock(mutex_);
          report_.worker_metrics.merge(snapshot);
          break;
        }
        case MsgType::kGoodbye:
          open = false;
          break;
        default:
          throw ProtocolError(
              peer, std::string("unexpected ") +
                        to_string(static_cast<MsgType>(frame.type)) +
                        " frame (type " + std::to_string(frame.type) +
                        ") from a worker");
      }
    }
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++report_.protocol_errors;
    }
    counters().protocol_errors.add();
    util::log_warn("dist: connection ", peer, " failed: ", e.what());
  }

  if (!accepted) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto revoked = table_.revoke_owner(owner);
  report_.leases_revoked += revoked.size();
  counters().leases_revoked.add(revoked.size());
  for (const auto& lease : revoked) {
    util::log_warn("dist: worker ", owner, " left holding lease ", lease.id,
                   " [", lease.begin, ", ", lease.end, "); re-leasing");
  }
}

Coordinator::Report Coordinator::serve() {
  server_.start();
  {
    // Campaign completion: every item credited done. Each period without
    // it returns the leases past their TTL to the pool.
    const auto period = std::chrono::milliseconds(
        std::max<std::size_t>(1, options_.lease_ttl_ms / 4));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, period, [this] { return table_.all_done(); })) {
      const auto expired = table_.expire_due(LeaseTable::Clock::now());
      report_.leases_expired += expired.size();
      counters().leases_expired.add(expired.size());
      for (const auto& lease : expired) {
        util::log_warn("dist: lease ", lease.id, " [", lease.begin, ", ",
                       lease.end, ") of ", lease.owner, " expired; re-leasing");
      }
    }
  }
  // Grace period for connected workers to collect their NoWork{done},
  // ship metrics and say goodbye; then cut stragglers off.
  server_.drain(std::chrono::milliseconds(options_.heartbeat_ms * 4));

  Report report;
  std::vector<std::string> spooled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    report = report_;
    spooled = spooled_;
  }
  // The proof obligation: canonical merge of the spooled shards is
  // byte-identical to a single-process save_columnar of this campaign.
  campaign::ColumnarStore::append_merge(
      spooled, options_.store_out, spec_,
      campaign::ColumnarStore::AppendOptions{/*canonical=*/true});
  if (!options_.metrics_out.empty()) {
    std::ofstream os(options_.metrics_out, std::ios::trunc);
    if (!os) {
      throw std::runtime_error(options_.metrics_out +
                               ": cannot write merged metrics");
    }
    report.worker_metrics.write_json(os);
    os << '\n';
  }
  return report;
}

}  // namespace ulpdream::dist
