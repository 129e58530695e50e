#include "ulpdream/campaign/result_store.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "aggregate_fold.hpp"
#include "ulpdream/util/file_view.hpp"
#include "ulpdream/util/stats.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::campaign {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

}  // namespace

ResultStore::ResultStore(CampaignSpec spec) : spec_(std::move(spec)) {
  max_snr_.assign(spec_.records.size() * spec_.apps.size(), kNan);
}

ResultStore::ResultStore(CampaignSpec spec, std::span<const WorkItem> items)
    : ResultStore(std::move(spec)) {
  item_index_.reserve(items.size());
  for (const WorkItem& item : items) {
    if (item.index >= spec_.item_count()) {
      throw std::invalid_argument("ResultStore: item index out of range");
    }
    item_index_.push_back(item.index);
  }
  std::sort(item_index_.begin(), item_index_.end());
  item_index_.erase(std::unique(item_index_.begin(), item_index_.end()),
                    item_index_.end());
  item_done_.assign(item_index_.size(), 0);
  samples_.resize(item_index_.size() * per_item());
}

std::size_t ResultStore::find_slot(std::size_t item) const noexcept {
  const auto it =
      std::lower_bound(item_index_.begin(), item_index_.end(), item);
  if (it == item_index_.end() || *it != item) return kNoSlot;
  return static_cast<std::size_t>(it - item_index_.begin());
}

std::size_t ResultStore::insert_slot(std::size_t item) {
  const auto it =
      std::lower_bound(item_index_.begin(), item_index_.end(), item);
  const auto slot = static_cast<std::size_t>(it - item_index_.begin());
  if (it != item_index_.end() && *it == item) return slot;
  item_index_.insert(it, item);
  item_done_.insert(item_done_.begin() + static_cast<std::ptrdiff_t>(slot), 0);
  samples_.insert(
      samples_.begin() + static_cast<std::ptrdiff_t>(slot * per_item()),
      per_item(), Sample{});
  return slot;
}

void ResultStore::record_item(const WorkItem& item,
                              const std::vector<Sample>& samples) {
  if (item.index >= spec_.item_count() || samples.size() != per_item()) {
    throw std::invalid_argument("ResultStore::record_item: bad item/samples");
  }
  std::size_t slot = find_slot(item.index);
  if (slot == kNoSlot) slot = insert_slot(item.index);
  const std::size_t base = slot * per_item();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples_[base + i] = samples[i];
  }
  item_done_[slot] = 1;
}

void ResultStore::set_max_snr(std::size_t record_index, std::size_t app_index,
                              double snr_db) {
  max_snr_.at(record_index * spec_.apps.size() + app_index) = snr_db;
}

double ResultStore::max_snr_db(std::size_t record_index,
                               std::size_t app_index) const {
  return max_snr_.at(record_index * spec_.apps.size() + app_index);
}

std::size_t ResultStore::items_done() const noexcept {
  std::size_t n = 0;
  for (char done : item_done_) n += done ? 1 : 0;
  return n;
}

bool ResultStore::complete() const noexcept {
  return items_done() == spec_.item_count();
}

bool ResultStore::item_done(std::size_t item_index) const noexcept {
  const std::size_t slot = find_slot(item_index);
  return slot != kNoSlot && item_done_[slot] != 0;
}

void ResultStore::merge(const ResultStore& other) {
  ULPDREAM_TRACE_SPAN("store.merge");
  static const util::telemetry::Counter merges("store.merges");
  static const util::telemetry::Histogram merge_ns("store.merge_ns");
  const std::uint64_t t0 = util::telemetry::now_ns();
  if (spec_.fingerprint() != other.spec_.fingerprint()) {
    throw std::invalid_argument(
        "ResultStore::merge: spec fingerprint mismatch — refusing to mix "
        "results from different campaign grids\n  this:  " +
        spec_.fingerprint() + "\n  other: " + other.spec_.fingerprint());
  }
  // Two-pointer merge of the sorted slot indices into fresh arrays: done
  // items already present here win, the other store fills the gaps.
  const std::size_t pi = per_item();
  std::vector<std::size_t> index;
  std::vector<char> done;
  std::vector<Sample> samples;
  index.reserve(item_index_.size() + other.item_index_.size());
  std::size_t a = 0;
  std::size_t b = 0;
  const auto append = [&](const ResultStore& from, std::size_t slot) {
    index.push_back(from.item_index_[slot]);
    done.push_back(from.item_done_[slot]);
    samples.insert(samples.end(), from.samples_.begin() + slot * pi,
                   from.samples_.begin() + (slot + 1) * pi);
  };
  while (a < item_index_.size() || b < other.item_index_.size()) {
    if (b >= other.item_index_.size() ||
        (a < item_index_.size() && item_index_[a] < other.item_index_[b])) {
      append(*this, a++);
    } else if (a >= item_index_.size() ||
               other.item_index_[b] < item_index_[a]) {
      append(other, b++);
    } else {
      if (item_done_[a] || !other.item_done_[b]) {
        append(*this, a);
      } else {
        append(other, b);
      }
      ++a;
      ++b;
    }
  }
  item_index_ = std::move(index);
  item_done_ = std::move(done);
  samples_ = std::move(samples);
  for (std::size_t i = 0; i < max_snr_.size(); ++i) {
    if (std::isnan(max_snr_[i])) max_snr_[i] = other.max_snr_[i];
  }
  merge_ns.record(util::telemetry::now_ns() - t0);
  merges.add();
}

std::vector<AggregateRow> ResultStore::aggregate(const GroupBy& group) const {
  if (!complete()) {
    throw std::logic_error(
        "ResultStore::aggregate: store incomplete — merge all shards first");
  }
  const std::size_t na = spec_.apps.size();
  const std::size_t ne = spec_.emts.size();

  // Canonical fold order: item index major, then app, then EMT — the slot
  // index is sorted by item, so this is a linear walk and every group
  // receives its samples in the same order however the campaign was
  // executed (and identically to the streaming columnar path, which feeds
  // the same folder in the same order).
  detail::AggregateFolder folder(spec_, group);
  for (std::size_t slot = 0; slot < item_index_.size(); ++slot) {
    const std::size_t item = item_index_[slot];
    const std::size_t base = slot * na * ne;
    for (std::size_t ai = 0; ai < na; ++ai) {
      for (std::size_t ei = 0; ei < ne; ++ei) {
        folder.add(item, ai, ei, samples_[base + ai * ne + ei]);
      }
    }
  }
  return folder.rows();
}

sim::SweepResult ResultStore::to_sweep_result(std::size_t record_index,
                                              std::size_t app_index) const {
  const std::vector<AggregateRow> rows = aggregate();
  if (record_index >= spec_.records.size() ||
      app_index >= spec_.apps.size()) {
    throw std::invalid_argument("ResultStore::to_sweep_result: bad index");
  }
  const std::size_t ne = spec_.emts.size();
  const std::size_t nv = spec_.voltages.size();
  const auto ber_model = mem::make_ber_model(spec_.ber_model);

  sim::SweepResult result;
  result.config.voltages = spec_.voltages;
  result.config.emts = spec_.emts;
  result.max_snr_db = max_snr_db(record_index, app_index);

  // Rows run record, app, EMT, voltage (voltage fastest); the sweep lists
  // its points voltage-major, EMT-minor.
  const std::size_t base = (record_index * spec_.apps.size() + app_index) *
                           ne * nv;
  for (std::size_t vi = 0; vi < nv; ++vi) {
    for (std::size_t ei = 0; ei < ne; ++ei) {
      const AggregateRow& row = rows[base + ei * nv + vi];
      sim::SweepPoint p;
      p.app = row.app;
      p.emt = row.emt;
      p.voltage = row.voltage;
      p.ber = ber_model->ber(p.voltage);
      p.snr_mean_db = row.snr_mean_db;
      p.snr_stddev_db = row.snr_stddev_db;
      p.snr_min_db = row.snr_min_db;
      p.snr_p10_db = row.snr_p10_db;
      p.energy_mean_j = row.energy_mean_j;
      p.energy_mean.data_dynamic_j = row.data_dynamic_j;
      p.energy_mean.side_dynamic_j = row.side_dynamic_j;
      p.energy_mean.codec_j = row.codec_j;
      p.energy_mean.data_leak_j = row.data_leak_j;
      p.energy_mean.side_leak_j = row.side_leak_j;
      p.corrected_words_mean = row.corrected_mean;
      p.detected_uncorrectable_mean = row.detected_mean;
      result.points.push_back(p);
    }
  }
  return result;
}

void ResultStore::save(std::ostream& os) const {
  ULPDREAM_TRACE_SPAN("store.save");
  static const util::telemetry::Counter saves("store.saves");
  static const util::telemetry::Counter save_bytes("store.save_bytes");
  static const util::telemetry::Histogram save_ns("store.save_ns");
  const std::uint64_t t0 = util::telemetry::now_ns();
  const std::streampos pos0 = os.tellp();
  os << "ulpdream-campaign-store v1\n";
  os << "fingerprint " << spec_.fingerprint() << '\n';
  os << "max_snr";
  for (double v : max_snr_) os << ' ' << util::fmt_exact(v);
  os << '\n';
  const std::size_t pi = per_item();
  for (std::size_t slot = 0; slot < item_index_.size(); ++slot) {
    if (!item_done_[slot]) continue;
    os << "item " << item_index_[slot];
    for (std::size_t i = 0; i < pi; ++i) {
      const Sample& s = samples_[slot * pi + i];
      os << ' ' << util::fmt_exact(s.snr_db) << ' '
         << util::fmt_exact(s.energy.data_dynamic_j) << ' '
         << util::fmt_exact(s.energy.side_dynamic_j) << ' '
         << util::fmt_exact(s.energy.codec_j) << ' '
         << util::fmt_exact(s.energy.data_leak_j) << ' '
         << util::fmt_exact(s.energy.side_leak_j) << ' '
         << util::fmt_exact(s.corrected_words) << ' '
         << util::fmt_exact(s.detected_uncorrectable);
    }
    os << '\n';
  }
  os << "end\n";
  save_ns.record(util::telemetry::now_ns() - t0);
  saves.add();
  // Seekable sinks (files) report size; pipes return -1 and skip the byte
  // count rather than poison it.
  const std::streampos pos1 = os.tellp();
  if (pos0 >= 0 && pos1 >= 0) {
    save_bytes.add(static_cast<std::uint64_t>(pos1 - pos0));
  }
}

void ResultStore::save_atomic(const std::string& path) const {
  ULPDREAM_TRACE_SPAN("store.save_atomic");
  // Stage under a pid-unique name: a second process checkpointing to the
  // same path (shard misconfiguration, overlapping cron runs) overwrites
  // its *own* staging file, not the bytes another writer is about to
  // rename into place.
  const std::string tmp =
#if defined(__unix__) || defined(__APPLE__)
      path + ".tmp." + std::to_string(::getpid());
#else
      path + ".tmp";
#endif
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    save(f);
    f.flush();
    if (!f) {
      std::remove(tmp.c_str());
      throw std::runtime_error("ResultStore::save_atomic: failed to write " +
                               tmp);
    }
  }
  // Staged bytes are fsync'd before the rename publishes the name, and
  // the parent directory is fsync'd after it — rename-then-crash must
  // never expose a page-cache-only file nor lose the directory entry.
  // (Shared with the columnar writer; see util::publish_file_atomic.)
  util::publish_file_atomic(tmp, path);
}

ResultStore ResultStore::load(std::istream& is, const CampaignSpec& spec) {
  ULPDREAM_TRACE_SPAN("store.load");
  static const util::telemetry::Counter loads("store.loads");
  static const util::telemetry::Histogram load_ns("store.load_ns");
  const std::uint64_t t0 = util::telemetry::now_ns();
  auto fail = [](const std::string& what) -> void {
    throw std::invalid_argument("ResultStore::load: " + what);
  };
  ResultStore store(spec.normalized());

  std::string line;
  if (!std::getline(is, line) || line != "ulpdream-campaign-store v1") {
    fail("bad magic");
  }
  if (!std::getline(is, line) || line.rfind("fingerprint ", 0) != 0) {
    fail("missing fingerprint");
  }
  if (line.substr(12) != store.spec_.fingerprint()) {
    fail(
        "spec fingerprint mismatch — the stream was saved for a different "
        "campaign grid\n  expected: " +
        store.spec_.fingerprint() + "\n  stream:   " + line.substr(12));
  }
  if (!std::getline(is, line) || line.rfind("max_snr", 0) != 0) {
    fail("missing max_snr");
  }
  {
    std::istringstream ls(line.substr(7));
    std::string tok;
    for (double& v : store.max_snr_) {
      if (!(ls >> tok)) fail("short max_snr line");
      v = tok == "nan" ? kNan : util::parse_double_exact(tok);
    }
  }
  const std::size_t pi = store.per_item();
  while (std::getline(is, line)) {
    if (line == "end") {
      load_ns.record(util::telemetry::now_ns() - t0);
      loads.add();
      return store;
    }
    if (line.rfind("item ", 0) != 0) fail("bad line: " + line);
    std::istringstream ls(line.substr(5));
    std::size_t index = 0;
    if (!(ls >> index) || index >= store.spec_.item_count()) {
      fail("bad item index");
    }
    // Slots grow with the stream's item lines (shard saves are written in
    // ascending item order, so this append-or-insert stays cheap).
    const std::size_t slot = store.insert_slot(index);
    std::string tok;
    for (std::size_t i = 0; i < pi; ++i) {
      Sample& s = store.samples_[slot * pi + i];
      auto next = [&]() -> double {
        if (!(ls >> tok)) fail("short item line");
        return util::parse_double_exact(tok);
      };
      s.snr_db = next();
      s.energy.data_dynamic_j = next();
      s.energy.side_dynamic_j = next();
      s.energy.codec_j = next();
      s.energy.data_leak_j = next();
      s.energy.side_leak_j = next();
      s.corrected_words = next();
      s.detected_uncorrectable = next();
    }
    store.item_done_[slot] = 1;
  }
  fail("missing end marker");
  return store;  // unreachable
}

// ---------------------------------------------------------------------------
// Serialization.

namespace {

std::string fmt_voltage(double v) {
  return std::isnan(v) ? "*" : util::fmt_exact(v);
}

double parse_voltage(const std::string& cell) {
  return cell == "*" ? kNan : util::parse_double_exact(cell);
}

std::vector<std::string> row_cells(const AggregateRow& r) {
  return {r.record,
          r.app,
          r.emt,
          fmt_voltage(r.voltage),
          std::to_string(r.n),
          util::fmt_exact(r.snr_mean_db),
          util::fmt_exact(r.snr_stddev_db),
          util::fmt_exact(r.snr_min_db),
          util::fmt_exact(r.snr_max_db),
          util::fmt_exact(r.snr_p10_db),
          util::fmt_exact(r.energy_mean_j),
          util::fmt_exact(r.data_dynamic_j),
          util::fmt_exact(r.side_dynamic_j),
          util::fmt_exact(r.codec_j),
          util::fmt_exact(r.data_leak_j),
          util::fmt_exact(r.side_leak_j),
          util::fmt_exact(r.corrected_mean),
          util::fmt_exact(r.detected_mean)};
}

AggregateRow row_from_cells(const std::vector<std::string>& cells) {
  if (cells.size() != aggregate_csv_header().size()) {
    throw std::invalid_argument("read_rows_csv: wrong column count");
  }
  AggregateRow r;
  std::size_t c = 0;
  r.record = cells[c++];
  r.app = cells[c++];
  r.emt = cells[c++];
  r.voltage = parse_voltage(cells[c++]);
  r.n = static_cast<std::size_t>(std::stoull(cells[c++]));
  r.snr_mean_db = util::parse_double_exact(cells[c++]);
  r.snr_stddev_db = util::parse_double_exact(cells[c++]);
  r.snr_min_db = util::parse_double_exact(cells[c++]);
  r.snr_max_db = util::parse_double_exact(cells[c++]);
  r.snr_p10_db = util::parse_double_exact(cells[c++]);
  r.energy_mean_j = util::parse_double_exact(cells[c++]);
  r.data_dynamic_j = util::parse_double_exact(cells[c++]);
  r.side_dynamic_j = util::parse_double_exact(cells[c++]);
  r.codec_j = util::parse_double_exact(cells[c++]);
  r.data_leak_j = util::parse_double_exact(cells[c++]);
  r.side_leak_j = util::parse_double_exact(cells[c++]);
  r.corrected_mean = util::parse_double_exact(cells[c++]);
  r.detected_mean = util::parse_double_exact(cells[c++]);
  return r;
}

}  // namespace

const std::vector<std::string>& aggregate_csv_header() {
  static const std::vector<std::string> kHeader = {
      "record",        "app",
      "emt",           "voltage",
      "n",             "snr_mean_db",
      "snr_stddev_db", "snr_min_db",
      "snr_max_db",    "snr_p10_db",
      "energy_mean_j", "data_dynamic_j",
      "side_dynamic_j", "codec_j",
      "data_leak_j",   "side_leak_j",
      "corrected_mean", "detected_mean"};
  return kHeader;
}

void write_rows_csv(std::ostream& os, const std::vector<AggregateRow>& rows) {
  util::CsvWriter csv(os);
  csv.write_row(aggregate_csv_header());
  for (const AggregateRow& r : rows) csv.write_row(row_cells(r));
}

std::vector<AggregateRow> read_rows_csv(std::istream& is) {
  const auto parsed = util::parse_csv(is);
  if (parsed.empty() || parsed.front() != aggregate_csv_header()) {
    throw std::invalid_argument("read_rows_csv: missing/unknown header");
  }
  std::vector<AggregateRow> rows;
  rows.reserve(parsed.size() - 1);
  for (std::size_t i = 1; i < parsed.size(); ++i) {
    rows.push_back(row_from_cells(parsed[i]));
  }
  return rows;
}

// Minimal JSON layer, restricted to the flat document this module emits:
// {"rows": [{<string|number|null fields>}, ...]}.

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default: os << ch; break;
    }
  }
  os << '"';
}

struct JsonParser {
  const std::string& text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("read_rows_json: " + what + " at offset " +
                                std::to_string(pos));
  }
  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }
  char peek() {
    skip_ws();
    if (pos >= text.size()) fail("unexpected end");
    return text[pos];
  }
  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos;
  }
  bool consume(char ch) {
    if (peek() != ch) return false;
    ++pos;
    return true;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      char ch = text[pos++];
      if (ch == '\\') {
        if (pos >= text.size()) fail("bad escape");
        switch (text[pos++]) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          default: fail("unsupported escape");
        }
      } else {
        out.push_back(ch);
      }
    }
    if (pos >= text.size()) fail("unterminated string");
    ++pos;  // closing quote
    return out;
  }
  /// Number, null, or a quoted non-finite token. JSON has no literal for
  /// NaN or the infinities, so the writer encodes NaN as null and +/-Inf
  /// as the strings "inf"/"-inf"; decode reverses both losslessly.
  double parse_number_or_null() {
    skip_ws();
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      return kNan;
    }
    if (pos < text.size() && text[pos] == '"') {
      const std::string token = parse_string();
      if (token == "inf") return std::numeric_limits<double>::infinity();
      if (token == "-inf") return -std::numeric_limits<double>::infinity();
      fail("expected number, null, \"inf\" or \"-inf\", got \"" + token +
           "\"");
    }
    const std::size_t start = pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
    }
    if (pos == start) fail("expected number");
    return util::parse_double_exact(text.substr(start, pos - start));
  }
};

}  // namespace

void write_rows_json(std::ostream& os, const std::vector<AggregateRow>& rows) {
  auto num = [&](const char* key, double v, bool last = false) {
    os << '"' << key << "\":";
    if (std::isnan(v)) {
      os << "null";
    } else if (std::isinf(v)) {
      // Bare inf is not JSON; encode as a string the reader maps back.
      os << (v > 0 ? "\"inf\"" : "\"-inf\"");
    } else {
      os << util::fmt_exact(v);
    }
    if (!last) os << ',';
  };
  os << "{\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AggregateRow& r = rows[i];
    if (i) os << ',';
    os << "\n{";
    os << "\"record\":";
    json_escape(os, r.record);
    os << ",\"app\":";
    json_escape(os, r.app);
    os << ",\"emt\":";
    json_escape(os, r.emt);
    os << ',';
    num("voltage", r.voltage);
    os << "\"n\":" << r.n << ',';
    num("snr_mean_db", r.snr_mean_db);
    num("snr_stddev_db", r.snr_stddev_db);
    num("snr_min_db", r.snr_min_db);
    num("snr_max_db", r.snr_max_db);
    num("snr_p10_db", r.snr_p10_db);
    num("energy_mean_j", r.energy_mean_j);
    num("data_dynamic_j", r.data_dynamic_j);
    num("side_dynamic_j", r.side_dynamic_j);
    num("codec_j", r.codec_j);
    num("data_leak_j", r.data_leak_j);
    num("side_leak_j", r.side_leak_j);
    num("corrected_mean", r.corrected_mean);
    num("detected_mean", r.detected_mean, /*last=*/true);
    os << '}';
  }
  os << "\n]}\n";
}

std::vector<AggregateRow> read_rows_json(std::istream& is) {
  const std::string text(std::istreambuf_iterator<char>(is), {});
  JsonParser p{text};
  p.expect('{');
  if (p.parse_string() != "rows") p.fail("expected \"rows\" key");
  p.expect(':');
  p.expect('[');
  std::vector<AggregateRow> rows;
  if (!p.consume(']')) {
    do {
      p.expect('{');
      AggregateRow r;
      do {
        const std::string key = p.parse_string();
        p.expect(':');
        if (key == "record") {
          r.record = p.parse_string();
        } else if (key == "app") {
          r.app = p.parse_string();
        } else if (key == "emt") {
          r.emt = p.parse_string();
        } else if (key == "voltage") {
          r.voltage = p.parse_number_or_null();
        } else if (key == "n") {
          const double n = p.parse_number_or_null();
          if (std::isnan(n) || n < 0.0 || n != std::floor(n)) {
            p.fail("\"n\" must be a non-negative integer");
          }
          r.n = static_cast<std::size_t>(n);
        } else if (key == "snr_mean_db") {
          r.snr_mean_db = p.parse_number_or_null();
        } else if (key == "snr_stddev_db") {
          r.snr_stddev_db = p.parse_number_or_null();
        } else if (key == "snr_min_db") {
          r.snr_min_db = p.parse_number_or_null();
        } else if (key == "snr_max_db") {
          r.snr_max_db = p.parse_number_or_null();
        } else if (key == "snr_p10_db") {
          r.snr_p10_db = p.parse_number_or_null();
        } else if (key == "energy_mean_j") {
          r.energy_mean_j = p.parse_number_or_null();
        } else if (key == "data_dynamic_j") {
          r.data_dynamic_j = p.parse_number_or_null();
        } else if (key == "side_dynamic_j") {
          r.side_dynamic_j = p.parse_number_or_null();
        } else if (key == "codec_j") {
          r.codec_j = p.parse_number_or_null();
        } else if (key == "data_leak_j") {
          r.data_leak_j = p.parse_number_or_null();
        } else if (key == "side_leak_j") {
          r.side_leak_j = p.parse_number_or_null();
        } else if (key == "corrected_mean") {
          r.corrected_mean = p.parse_number_or_null();
        } else if (key == "detected_mean") {
          r.detected_mean = p.parse_number_or_null();
        } else {
          p.fail("unknown key: " + key);
        }
      } while (p.consume(','));
      p.expect('}');
      rows.push_back(std::move(r));
    } while (p.consume(','));
    p.expect(']');
  }
  p.expect('}');
  return rows;
}

util::Table rows_to_table(const std::vector<AggregateRow>& rows,
                          const std::string& title) {
  util::Table table(title);
  table.set_header({"record", "app", "emt", "V", "n", "snr_dB", "sd_dB",
                    "p10_dB", "energy_uJ", "corr", "det"});
  for (const AggregateRow& r : rows) {
    table.add_row({r.record, r.app, r.emt, fmt_voltage(r.voltage),
                   std::to_string(r.n), util::fmt(r.snr_mean_db, 1),
                   util::fmt(r.snr_stddev_db, 1), util::fmt(r.snr_p10_db, 1),
                   util::fmt(r.energy_mean_j * 1e6, 4),
                   util::fmt(r.corrected_mean, 1),
                   util::fmt(r.detected_mean, 2)});
  }
  return table;
}

}  // namespace ulpdream::campaign
