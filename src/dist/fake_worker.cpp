#include "ulpdream/dist/fake_worker.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lease_bytes.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/dist/protocol.hpp"

namespace ulpdream::dist {

FakeWorker::FakeWorker(campaign::CampaignSpec spec, Coordinator& coordinator,
                       Options options)
    : spec_(spec.normalized()), options_(std::move(options)) {
  if (options_.version == 0) options_.version = kProtocolVersion;
  auto [near, far] = util::Socket::socketpair(options_.name);
  coordinator.adopt(std::move(far));
  thread_ = std::thread(
      [this, s = std::move(near)]() mutable { loop(std::move(s)); });
}

FakeWorker::~FakeWorker() { join(); }

void FakeWorker::join() {
  if (thread_.joinable()) thread_.join();
}

void FakeWorker::loop(util::Socket socket) {
  const std::string peer = socket.peer();
  try {
    const std::string fingerprint = options_.fingerprint_override.empty()
                                        ? spec_.fingerprint()
                                        : options_.fingerprint_override;
    send(socket, Hello{options_.version, fingerprint, options_.name});
    util::Frame frame;
    if (!receive(socket, frame)) {
      throw util::SocketError(peer, "coordinator closed during handshake");
    }
    if (frame.type == static_cast<std::uint32_t>(MsgType::kHelloReject)) {
      throw std::runtime_error(peer + " rejected worker: " +
                               decode_hello_reject(frame, peer).reason);
    }
    (void)decode_hello_ok(frame, peer);

    campaign::Session session(energy::SystemEnergyModel(),
                              options_.threads);
    for (;;) {
      send(socket, LeaseRequest{});
      if (!receive(socket, frame)) {
        throw util::SocketError(peer, "coordinator closed while leasing");
      }
      if (frame.type == static_cast<std::uint32_t>(MsgType::kNoWork)) {
        const NoWork no_work = decode_no_work(frame, peer);
        if (no_work.campaign_done) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const LeaseGrant grant = decode_lease_grant(frame, peer);
      if (options_.die_mid_lease) return;  // vanish holding the lease

      campaign::SubmitOptions submit;
      submit.item_range = campaign::ItemRange{
          static_cast<std::size_t>(grant.begin),
          static_cast<std::size_t>(grant.end)};
      const campaign::ResultStore store =
          session.submit(spec_, std::move(submit)).take();

      LeaseResult result{
          grant.lease_id,
          lease_store_bytes(store, options_.name, grant.lease_id)};
      send(socket, result);
      if (!receive(socket, frame)) {
        throw util::SocketError(peer, "coordinator closed before ack");
      }
      (void)decode_result_ack(frame, peer);

      ++report_.leases_completed;
      report_.items_executed +=
          static_cast<std::size_t>(grant.end - grant.begin);
      if (report_.leases_completed >= options_.die_after_leases) {
        return;  // vanish without a Goodbye (death between leases)
      }
    }

    std::ostringstream os;
    session.telemetry().write_json(os);
    send(socket, Metrics{os.str()});
    send(socket, Goodbye{});
  } catch (const std::exception& e) {
    error_ = e.what();
  }
}

}  // namespace ulpdream::dist
