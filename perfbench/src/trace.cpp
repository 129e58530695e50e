#include "trace.hpp"

#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace perfbench::trace {

namespace {

using ulpdream::util::telemetry::now_ns;

constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};

std::vector<std::string> g_app_names;  // app id -> name
std::vector<std::string> g_emt_names;  // EMT id -> name

struct ThreadBuf {
  std::vector<Span> spans;
  std::size_t open_from = 0;  ///< first span not yet stamped with an item
  std::uint32_t current_app = kNoSpan;
  // Codec tables, indexed by EMT id / app id.
  std::vector<std::uint64_t> decode_ns, decode_words;
  std::uint64_t encode_ns = 0;
  std::uint64_t encode_words = 0;
  std::vector<std::map<std::uint32_t, std::uint64_t>> windows;

  void reset() {
    spans.clear();
    open_from = 0;
    decode_ns.assign(g_emt_names.size(), 0);
    decode_words.assign(g_emt_names.size(), 0);
    encode_ns = 0;
    encode_words = 0;
    windows.assign(g_app_names.size(), {});
  }
};

/// Owns every thread's buffer for the process lifetime, so a pool worker
/// that outlives a phase never writes through a dangling pointer.
struct Buffers {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuf>> all;
};

Buffers& buffers() {
  static Buffers b;
  return b;
}

ThreadBuf& local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuf>();
    owned->reset();
    buf = owned.get();
    const std::lock_guard lock(buffers().mutex);
    buffers().all.push_back(std::move(owned));
  }
  return *buf;
}

/// Charges one codec call to the open app span and the codec tables.
/// Calls outside a campaign app run (none today) are not charged.
void charge_codec(ThreadBuf& buf, std::uint16_t emt, bool decode,
                  std::size_t words, std::uint64_t ns) {
  if (buf.current_app == kNoSpan) return;
  Span& parent = buf.spans[buf.current_app];
  parent.codec_ns += ns;
  parent.codec_calls += 1;
  if (decode) {
    buf.decode_ns[emt] += ns;
    buf.decode_words[emt] += words;
    buf.windows[parent.app][static_cast<std::uint32_t>(words)] += 1;
  } else {
    buf.encode_ns += ns;
    buf.encode_words += words;
  }
}

class TracedEmt final : public ulpdream::core::Emt {
 public:
  TracedEmt(std::unique_ptr<ulpdream::core::Emt> inner, std::uint16_t id)
      : inner_(std::move(inner)), id_(id) {}

  std::string name() const override { return inner_->name(); }
  int payload_bits() const override { return inner_->payload_bits(); }
  int safe_bits() const override { return inner_->safe_bits(); }
  std::uint32_t encode_payload(ulpdream::fixed::Sample s) const override {
    return inner_->encode_payload(s);
  }
  std::uint16_t encode_safe(ulpdream::fixed::Sample s) const override {
    return inner_->encode_safe(s);
  }
  ulpdream::fixed::Sample decode(
      std::uint32_t payload, std::uint16_t safe,
      ulpdream::core::CodecCounters* counters) const override {
    return inner_->decode(payload, safe, counters);
  }
  bool raw_data_path() const override { return inner_->raw_data_path(); }
  double encode_energy_pj() const override {
    return inner_->encode_energy_pj();
  }
  double decode_energy_pj() const override {
    return inner_->decode_energy_pj();
  }

  void encode_block(std::span<const ulpdream::fixed::Sample> in,
                    std::span<std::uint32_t> payload,
                    std::span<std::uint16_t> safe) const override {
    const std::uint64_t t0 = now_ns();
    inner_->encode_block(in, payload, safe);
    charge_codec(local(), id_, false, in.size(), now_ns() - t0);
  }
  void decode_block(std::span<const std::uint32_t> payload,
                    std::span<const std::uint16_t> safe,
                    std::span<ulpdream::fixed::Sample> out,
                    ulpdream::core::CodecCounters* counters) const override {
    const std::uint64_t t0 = now_ns();
    inner_->decode_block(payload, safe, out, counters);
    charge_codec(local(), id_, true, out.size(), now_ns() - t0);
  }

 private:
  std::unique_ptr<ulpdream::core::Emt> inner_;
  std::uint16_t id_;
};

class TracedApp final : public ulpdream::apps::BioApp {
 public:
  TracedApp(std::unique_ptr<ulpdream::apps::BioApp> inner, std::uint16_t id)
      : inner_(std::move(inner)), id_(id) {}

  std::string name() const override { return inner_->name(); }
  std::size_t input_length() const override { return inner_->input_length(); }
  std::size_t footprint_words() const override {
    return inner_->footprint_words();
  }
  std::optional<std::vector<double>> ideal_output(
      const ulpdream::ecg::Record& record) const override {
    return inner_->ideal_output(record);
  }

  std::vector<double> run(ulpdream::core::MemorySystem& system,
                          const ulpdream::ecg::Record& record) const override {
    // Clean and reference runs use an unwrapped EMT; they count as the
    // runner's overhead, not as app time.
    const bool campaign_run =
        dynamic_cast<const TracedEmt*>(&system.emt()) != nullptr;
    ThreadBuf& buf = local();
    buf.spans.push_back(Span{now_ns(), 0, kNoItem, 0, 0, id_,
                             campaign_run ? Kind::kApp : Kind::kReference});
    const auto index = static_cast<std::uint32_t>(buf.spans.size() - 1);
    struct Close {
      ThreadBuf& buf;
      std::uint32_t prev;
      std::uint32_t index;
      ~Close() {
        buf.current_app = prev;
        Span& span = buf.spans[index];
        span.dur_ns = now_ns() - span.start_ns;
      }
    } close{buf, buf.current_app, index};
    buf.current_app = index;
    return inner_->run(system, record);
  }

 private:
  std::unique_ptr<ulpdream::apps::BioApp> inner_;
  std::uint16_t id_;
};

}  // namespace

std::string traced(const std::string& name) { return "traced." + name; }

void register_wrappers() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& emts = ulpdream::core::emt_registry();
    auto& apps = ulpdream::apps::app_registry();
    const std::vector<std::string> emt_names = emts.names();
    const std::vector<std::string> app_names = apps.names();
    g_emt_names = emt_names;
    g_app_names = app_names;
    for (std::size_t i = 0; i < emt_names.size(); ++i) {
      const std::string name = emt_names[i];
      const auto id = static_cast<std::uint16_t>(i);
      emts.register_factory(traced(name), [name, id] {
        return std::make_unique<TracedEmt>(ulpdream::core::make_emt(name), id);
      });
    }
    for (std::size_t i = 0; i < app_names.size(); ++i) {
      const std::string name = app_names[i];
      const auto id = static_cast<std::uint16_t>(i);
      apps.register_factory(traced(name), [name, id] {
        return std::make_unique<TracedApp>(ulpdream::apps::make_app(name), id);
      });
    }
  });
}

void end_item(std::uint64_t item_id) {
  ThreadBuf& buf = local();
  for (std::size_t i = buf.open_from; i < buf.spans.size(); ++i) {
    buf.spans[i].item = item_id;
  }
  buf.open_from = buf.spans.size();
}

void clear() {
  const std::lock_guard lock(buffers().mutex);
  for (const auto& buf : buffers().all) buf->reset();
}

std::uint64_t Breakdown::total_app_ns() const {
  std::uint64_t total = 0;
  for (const auto& [name, ns] : app_ns) total += ns;
  return total;
}

std::uint64_t Breakdown::total_codec_ns() const {
  std::uint64_t total = 0;
  for (const auto& [name, ns] : app_codec_ns) total += ns;
  return total;
}

double Breakdown::window_p50(const std::string& app) const {
  const auto it = decode_windows.find(app);
  if (it == decode_windows.end()) return 0.0;
  std::uint64_t calls = 0;
  for (const auto& [words, n] : it->second) calls += n;
  std::uint64_t seen = 0;
  for (const auto& [words, n] : it->second) {
    seen += n;
    if (2 * seen >= calls) return words;
  }
  return 0.0;
}

Breakdown collect() {
  Breakdown out;
  const std::lock_guard lock(buffers().mutex);
  for (const auto& buf : buffers().all) {
    for (const Span& span : buf->spans) {
      // Unstamped spans are set-up work (clean runs inside submit).
      if (span.item == kNoItem || span.kind != Kind::kApp) continue;
      const std::string& app = g_app_names.at(span.app);
      out.app_ns[app] += span.dur_ns;
      out.app_codec_ns[app] += span.codec_ns;
    }
    for (std::size_t e = 0; e < buf->decode_ns.size(); ++e) {
      if (buf->decode_words[e] == 0) continue;
      out.decode_ns[g_emt_names[e]] += buf->decode_ns[e];
      out.decode_words[g_emt_names[e]] += buf->decode_words[e];
    }
    out.encode_ns += buf->encode_ns;
    out.encode_words += buf->encode_words;
    for (std::size_t a = 0; a < buf->windows.size(); ++a) {
      for (const auto& [words, n] : buf->windows[a]) {
        out.decode_windows[g_app_names[a]][words] += n;
      }
    }
  }
  return out;
}

void dump(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span dump " + path);
  os << "thread\tstart_ns\tdur_ns\titem\tkind\tapp\tcodec_ns\tcodec_calls\n";
  const std::lock_guard lock(buffers().mutex);
  for (std::size_t t = 0; t < buffers().all.size(); ++t) {
    for (const Span& s : buffers().all[t]->spans) {
      os << t << '\t' << s.start_ns << '\t' << s.dur_ns << '\t'
         << static_cast<long long>(s.item == kNoItem ? -1 : s.item) << '\t'
         << (s.kind == Kind::kApp ? "app" : "reference") << '\t'
         << g_app_names.at(s.app) << '\t' << s.codec_ns << '\t'
         << s.codec_calls << '\n';
    }
  }
}

}  // namespace perfbench::trace
