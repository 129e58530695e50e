#include "ulpdream/dist/protocol.hpp"

#include "ulpdream/util/wire.hpp"

namespace ulpdream::dist {

namespace {

using util::PayloadReader;
using util::PayloadWriter;

const util::FramedProtocol<MsgType>& wire() {
  static const util::FramedProtocol<MsgType> protocol("dist");
  return protocol;
}

}  // namespace

const char* to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kHelloOk: return "HelloOk";
    case MsgType::kHelloReject: return "HelloReject";
    case MsgType::kLeaseRequest: return "LeaseRequest";
    case MsgType::kLeaseGrant: return "LeaseGrant";
    case MsgType::kNoWork: return "NoWork";
    case MsgType::kLeaseResult: return "LeaseResult";
    case MsgType::kResultAck: return "ResultAck";
    case MsgType::kHeartbeat: return "Heartbeat";
    case MsgType::kHeartbeatAck: return "HeartbeatAck";
    case MsgType::kMetrics: return "Metrics";
    case MsgType::kGoodbye: return "Goodbye";
  }
  return "unknown";
}

void send(util::Socket& socket, const Hello& m) {
  PayloadWriter w;
  w.put_u32(m.version);
  w.put_string(m.fingerprint);
  w.put_string(m.worker_name);
  wire().send(socket, MsgType::kHello, w);
}

void send(util::Socket& socket, const HelloOk& m) {
  PayloadWriter w;
  w.put_u64(m.item_count);
  w.put_u64(m.lease_items);
  w.put_u64(m.heartbeat_ms);
  wire().send(socket, MsgType::kHelloOk, w);
}

void send(util::Socket& socket, const HelloReject& m) {
  PayloadWriter w;
  w.put_string(m.reason);
  wire().send(socket, MsgType::kHelloReject, w);
}

void send(util::Socket& socket, const LeaseRequest&) {
  wire().send(socket, MsgType::kLeaseRequest, PayloadWriter());
}

void send(util::Socket& socket, const LeaseGrant& m) {
  PayloadWriter w;
  w.put_u64(m.lease_id);
  w.put_u64(m.begin);
  w.put_u64(m.end);
  wire().send(socket, MsgType::kLeaseGrant, w);
}

void send(util::Socket& socket, const NoWork& m) {
  PayloadWriter w;
  w.put_u8(m.campaign_done ? 1 : 0);
  w.put_u64(m.retry_ms);
  wire().send(socket, MsgType::kNoWork, w);
}

void send(util::Socket& socket, const LeaseResult& m) {
  PayloadWriter w;
  w.put_u64(m.lease_id);
  w.put_blob(m.store_bytes);
  wire().send(socket, MsgType::kLeaseResult, w);
}

void send(util::Socket& socket, const ResultAck& m) {
  PayloadWriter w;
  w.put_u64(m.lease_id);
  wire().send(socket, MsgType::kResultAck, w);
}

void send(util::Socket& socket, const Heartbeat& m) {
  PayloadWriter w;
  w.put_u64(m.lease_id);
  wire().send(socket, MsgType::kHeartbeat, w);
}

void send(util::Socket& socket, const HeartbeatAck& m) {
  PayloadWriter w;
  w.put_u64(m.lease_id);
  wire().send(socket, MsgType::kHeartbeatAck, w);
}

void send(util::Socket& socket, const Metrics& m) {
  PayloadWriter w;
  w.put_string(m.json);
  wire().send(socket, MsgType::kMetrics, w);
}

void send(util::Socket& socket, const Goodbye&) {
  wire().send(socket, MsgType::kGoodbye, PayloadWriter());
}

Hello decode_hello(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kHello);
  Hello m;
  m.version = r.get_u32("version");
  m.fingerprint = r.get_string("fingerprint");
  m.worker_name = r.get_string("worker_name");
  r.finish();
  return m;
}

HelloOk decode_hello_ok(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kHelloOk);
  HelloOk m;
  m.item_count = r.get_u64("item_count");
  m.lease_items = r.get_u64("lease_items");
  m.heartbeat_ms = r.get_u64("heartbeat_ms");
  r.finish();
  return m;
}

HelloReject decode_hello_reject(const util::Frame& frame,
                                const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kHelloReject);
  HelloReject m;
  m.reason = r.get_string("reason");
  r.finish();
  return m;
}

LeaseGrant decode_lease_grant(const util::Frame& frame,
                              const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kLeaseGrant);
  LeaseGrant m;
  m.lease_id = r.get_u64("lease_id");
  m.begin = r.get_u64("begin");
  m.end = r.get_u64("end");
  r.finish();
  if (m.begin >= m.end) {
    throw ProtocolError(peer, "malformed LeaseGrant: empty range [" +
                                  std::to_string(m.begin) + ", " +
                                  std::to_string(m.end) + ")");
  }
  return m;
}

NoWork decode_no_work(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kNoWork);
  NoWork m;
  m.campaign_done = r.get_u8("campaign_done") != 0;
  m.retry_ms = r.get_u64("retry_ms");
  r.finish();
  return m;
}

LeaseResult decode_lease_result(const util::Frame& frame,
                                const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kLeaseResult);
  LeaseResult m;
  m.lease_id = r.get_u64("lease_id");
  m.store_bytes = r.get_blob("store_bytes");
  r.finish();
  return m;
}

ResultAck decode_result_ack(const util::Frame& frame,
                            const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kResultAck);
  ResultAck m;
  m.lease_id = r.get_u64("lease_id");
  r.finish();
  return m;
}

Heartbeat decode_heartbeat(const util::Frame& frame,
                           const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kHeartbeat);
  Heartbeat m;
  m.lease_id = r.get_u64("lease_id");
  r.finish();
  return m;
}

HeartbeatAck decode_heartbeat_ack(const util::Frame& frame,
                                  const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kHeartbeatAck);
  HeartbeatAck m;
  m.lease_id = r.get_u64("lease_id");
  r.finish();
  return m;
}

Metrics decode_metrics(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kMetrics);
  Metrics m;
  m.json = r.get_string("json");
  r.finish();
  return m;
}

bool receive(util::Socket& socket, util::Frame& out) {
  return wire().receive(socket, out);
}

}  // namespace ulpdream::dist
