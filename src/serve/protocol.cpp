#include "ulpdream/serve/protocol.hpp"

#include "ulpdream/ecg/generator.hpp"

namespace ulpdream::serve {

namespace {

using util::PayloadReader;
using util::PayloadWriter;

const util::FramedProtocol<MsgType>& wire() {
  static const util::FramedProtocol<MsgType> protocol("serve");
  return protocol;
}

}  // namespace

const char* to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kQuery: return "Query";
    case MsgType::kResult: return "Result";
    case MsgType::kProgress: return "Progress";
    case MsgType::kError: return "Error";
  }
  return "unknown";
}

const char* to_string(CacheStatus status) noexcept {
  switch (status) {
    case CacheStatus::kCold: return "cold";
    case CacheStatus::kHit: return "hit";
    case CacheStatus::kGapFill: return "gap-fill";
  }
  return "unknown";
}

void encode_spec(util::PayloadWriter& w, const campaign::CampaignSpec& spec) {
  w.put_u32(static_cast<std::uint32_t>(spec.apps.size()));
  for (const auto& a : spec.apps) w.put_string(a);
  w.put_u32(static_cast<std::uint32_t>(spec.emts.size()));
  for (const auto& e : spec.emts) w.put_string(e);
  w.put_u32(static_cast<std::uint32_t>(spec.voltages.size()));
  for (const double v : spec.voltages) w.put_f64(v);
  w.put_u32(static_cast<std::uint32_t>(spec.records.size()));
  for (const auto& r : spec.records) {
    w.put_string(std::string(ecg::pathology_name(r.pathology)));
    w.put_f64(r.noise_scale);
    w.put_u64(r.seed);
  }
  w.put_u64(spec.repetitions);
  w.put_u64(spec.seed);
  w.put_string(spec.ber_model);
  w.put_f64(spec.fs_hz);
  w.put_f64(spec.duration_s);
}

campaign::CampaignSpec decode_spec(util::PayloadReader& r) {
  campaign::CampaignSpec spec;
  const std::uint32_t n_apps = r.get_u32("n_apps");
  for (std::uint32_t i = 0; i < n_apps; ++i) {
    spec.apps.push_back(r.get_string("app"));
  }
  const std::uint32_t n_emts = r.get_u32("n_emts");
  for (std::uint32_t i = 0; i < n_emts; ++i) {
    spec.emts.push_back(r.get_string("emt"));
  }
  const std::uint32_t n_voltages = r.get_u32("n_voltages");
  for (std::uint32_t i = 0; i < n_voltages; ++i) {
    spec.voltages.push_back(r.get_f64("voltage"));
  }
  const std::uint32_t n_records = r.get_u32("n_records");
  for (std::uint32_t i = 0; i < n_records; ++i) {
    campaign::RecordAxis axis;
    const std::string pathology = r.get_string("pathology");
    axis.pathology = campaign::parse_pathology_list(pathology).front();
    axis.noise_scale = r.get_f64("noise_scale");
    axis.seed = r.get_u64("record_seed");
    spec.records.push_back(axis);
  }
  spec.repetitions = static_cast<std::size_t>(r.get_u64("repetitions"));
  spec.seed = r.get_u64("seed");
  spec.ber_model = r.get_string("ber_model");
  spec.fs_hz = r.get_f64("fs_hz");
  spec.duration_s = r.get_f64("duration_s");
  return spec;
}

std::uint8_t group_mask(const campaign::GroupBy& group) noexcept {
  return static_cast<std::uint8_t>(
      (group.record ? 1u : 0u) | (group.app ? 2u : 0u) |
      (group.emt ? 4u : 0u) | (group.voltage ? 8u : 0u));
}

campaign::GroupBy group_from_mask(std::uint8_t mask) noexcept {
  campaign::GroupBy group;
  group.record = (mask & 1u) != 0;
  group.app = (mask & 2u) != 0;
  group.emt = (mask & 4u) != 0;
  group.voltage = (mask & 8u) != 0;
  return group;
}

void send(util::Socket& socket, const Query& m) {
  PayloadWriter w;
  w.put_u32(m.version);
  encode_spec(w, m.spec);
  w.put_u8(m.want_store ? 1 : 0);
  w.put_u8(m.want_rows ? 1 : 0);
  w.put_u8(group_mask(m.group));
  wire().send(socket, MsgType::kQuery, w);
}

void send(util::Socket& socket, const Result& m) {
  PayloadWriter w;
  w.put_u8(static_cast<std::uint8_t>(m.status));
  w.put_u64(m.items_total);
  w.put_u64(m.items_executed);
  w.put_blob(m.store_bytes);
  w.put_string(m.rows_csv);
  wire().send(socket, MsgType::kResult, w);
}

void send(util::Socket& socket, const Progress& m) {
  PayloadWriter w;
  w.put_u64(m.items_done);
  w.put_u64(m.items_total);
  wire().send(socket, MsgType::kProgress, w);
}

void send(util::Socket& socket, const Error& m) {
  PayloadWriter w;
  w.put_string(m.message);
  wire().send(socket, MsgType::kError, w);
}

Query decode_query(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kQuery);
  Query m;
  m.version = r.get_u32("version");
  m.spec = decode_spec(r);
  m.want_store = r.get_u8("want_store") != 0;
  m.want_rows = r.get_u8("want_rows") != 0;
  m.group = group_from_mask(r.get_u8("group_mask"));
  r.finish();
  return m;
}

Result decode_result(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kResult);
  Result m;
  m.status = static_cast<CacheStatus>(r.get_u8("status"));
  m.items_total = r.get_u64("items_total");
  m.items_executed = r.get_u64("items_executed");
  m.store_bytes = r.get_blob("store_bytes");
  m.rows_csv = r.get_string("rows_csv");
  r.finish();
  return m;
}

Progress decode_progress(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kProgress);
  Progress m;
  m.items_done = r.get_u64("items_done");
  m.items_total = r.get_u64("items_total");
  r.finish();
  return m;
}

Error decode_error(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = wire().open(frame, peer, MsgType::kError);
  Error m;
  m.message = r.get_string("message");
  r.finish();
  return m;
}

bool receive(util::Socket& socket, util::Frame& out) {
  return wire().receive(socket, out);
}

}  // namespace ulpdream::serve
