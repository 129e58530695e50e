#include "ulpdream/serve/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "ulpdream/serve/protocol.hpp"
#include "ulpdream/util/log.hpp"
#include "ulpdream/util/telemetry.hpp"
#include "ulpdream/util/wire.hpp"

namespace ulpdream::serve {

namespace fs = std::filesystem;
using campaign::StoreError;

namespace {

std::string sidecar_of(const std::string& store_path) {
  return fs::path(store_path).replace_extension(".spec").string();
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

void remove_quiet(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw StoreError(path, "cannot open for reading");
  const std::streamsize size = is.tellg();
  is.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 &&
      !is.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw StoreError(path, "short read");
  }
  return bytes;
}

bool is_resumable_prefix(const campaign::CampaignSpec& cached,
                         const campaign::CampaignSpec& query) {
  if (cached.records.size() >= query.records.size()) return false;
  if (cached.axes_fingerprint() != query.axes_fingerprint()) return false;
  for (std::size_t i = 0; i < cached.records.size(); ++i) {
    if (cached.records[i].label() != query.records[i].label()) return false;
  }
  return true;
}

campaign::ResultStore adopt_prefix(const campaign::ColumnarStore& cached,
                                   const campaign::CampaignSpec& query) {
  campaign::ResultStore out(query);
  const campaign::ResultStore donor = cached.materialize();
  std::vector<campaign::Sample> samples;
  for (std::size_t slot = 0; slot < donor.slot_items().size(); ++slot) {
    if (!donor.slot_done(slot)) continue;
    const std::size_t index = donor.slot_items()[slot];
    const campaign::WorkItem item =
        campaign::expand_range(query, index, index + 1).front();
    const auto span = donor.slot_samples(slot);
    samples.assign(span.begin(), span.end());
    out.record_item(item, samples);
  }
  return out;
}

ResultCache::ResultCache(Options options) : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw std::runtime_error("ResultCache needs a cache directory");
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    throw std::runtime_error(options_.dir + ": cannot create cache dir: " +
                             ec.message());
  }
  rehydrate();
  publish_gauges();
}

void ResultCache::rehydrate() {
  static const util::telemetry::Counter rehydrated("serve.cache.rehydrated");
  static const util::telemetry::Counter quarantines("serve.cache.quarantined");

  // Oldest mtime first, so the rebuilt LRU order approximates the
  // pre-restart recency order (insert() rewrites a refreshed entry's
  // files, updating its mtime).
  std::vector<std::pair<fs::file_time_type, std::string>> stores;
  for (const auto& dir_entry : fs::directory_iterator(options_.dir)) {
    if (!dir_entry.is_regular_file()) continue;
    if (dir_entry.path().extension() != ".ulpdcol") continue;
    stores.emplace_back(dir_entry.last_write_time(),
                        dir_entry.path().string());
  }
  std::sort(stores.begin(), stores.end());

  for (const auto& [mtime, store_path] : stores) {
    const std::string sidecar = sidecar_of(store_path);
    try {
      if (!fs::exists(sidecar)) {
        throw StoreError(store_path, "missing spec sidecar " + sidecar);
      }
      const std::vector<std::uint8_t> sidecar_bytes = slurp(sidecar);
      util::PayloadReader reader(sidecar_bytes, sidecar, "SpecSidecar");
      const campaign::CampaignSpec spec = decode_spec(reader).normalized();
      reader.finish();

      const std::string hash = spec.fingerprint_hash();
      if (fs::path(store_path).stem().string() != hash) {
        throw StoreError(store_path,
                         "file name does not match its sidecar's "
                         "fingerprint hash " +
                             hash + " — foreign or renamed cache file");
      }
      const campaign::ColumnarStore store =
          campaign::ColumnarStore::open(store_path, spec);
      if (!store.complete()) {
        throw StoreError(store_path,
                         "incomplete store in cache (" +
                             std::to_string(store.items_done()) + " of " +
                             std::to_string(spec.item_count()) + " items)");
      }

      Entry entry;
      entry.fingerprint = spec.fingerprint();
      entry.spec = spec;
      entry.store_path = store_path;
      entry.bytes = file_bytes(store_path) + file_bytes(sidecar);
      if (by_fingerprint_.count(entry.fingerprint) != 0) {
        throw StoreError(store_path, "duplicate cache entry for " +
                                         entry.fingerprint);
      }
      bytes_ += entry.bytes;
      lru_.push_back(std::move(entry));
      by_fingerprint_[lru_.back().fingerprint] = std::prev(lru_.end());
      rehydrated.add();
    } catch (const std::exception& e) {
      // Quarantine, never crash: move both files aside so the next
      // restart does not trip over them again, and keep serving.
      std::error_code ec;
      fs::rename(store_path, store_path + ".quarantined", ec);
      fs::rename(sidecar, sidecar + ".quarantined", ec);
      quarantined_.push_back(QuarantineEvent{store_path, e.what()});
      quarantines.add();
      util::log_warn("serve: quarantined cache file: ", e.what());
    }
  }
  evict_to_budget();
}

std::optional<ResultCache::Entry> ResultCache::find(
    const std::string& fingerprint) {
  static const util::telemetry::Counter hits("serve.cache.hits");
  static const util::telemetry::Counter misses("serve.cache.misses");
  const auto it = by_fingerprint_.find(fingerprint);
  if (it == by_fingerprint_.end()) {
    misses.add();
    return std::nullopt;
  }
  hits.add();
  touch(it->second);
  return *it->second;
}

std::optional<ResultCache::Entry> ResultCache::best_overlap(
    const campaign::CampaignSpec& spec) {
  auto best = lru_.end();
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (!is_resumable_prefix(it->spec, spec)) continue;
    if (best == lru_.end() ||
        it->spec.records.size() > best->spec.records.size()) {
      best = it;
    }
  }
  if (best == lru_.end()) return std::nullopt;
  touch(best);
  return *best;
}

ResultCache::Entry ResultCache::insert(const campaign::CampaignSpec& spec,
                                       const campaign::ResultStore& store) {
  const std::string fingerprint = spec.fingerprint();
  const std::string hash = spec.fingerprint_hash();
  const std::string store_path =
      (fs::path(options_.dir) / (hash + ".ulpdcol")).string();
  const std::string sidecar = sidecar_of(store_path);

  store.save_columnar(store_path);
  {
    util::PayloadWriter writer;
    encode_spec(writer, spec);
    // Same staged-rename publish discipline as the store itself (minus
    // the fsyncs — losing a sidecar to power loss just quarantines the
    // store on the next rehydrate).
    const std::string staging =
        sidecar + ".tmp." + std::to_string(::getpid());
    std::ofstream os(staging, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(writer.bytes().data()),
             static_cast<std::streamsize>(writer.bytes().size()));
    os.close();
    if (!os) {
      remove_quiet(staging);
      throw StoreError(sidecar, "cannot write spec sidecar");
    }
    std::error_code ec;
    fs::rename(staging, sidecar, ec);
    if (ec) {
      remove_quiet(staging);
      throw StoreError(sidecar, "cannot publish spec sidecar: " +
                                    ec.message());
    }
  }

  Entry entry;
  entry.fingerprint = fingerprint;
  entry.spec = spec;
  entry.store_path = store_path;
  entry.bytes = file_bytes(store_path) + file_bytes(sidecar);

  const auto it = by_fingerprint_.find(fingerprint);
  if (it != by_fingerprint_.end()) {
    bytes_ -= it->second->bytes;
    *it->second = entry;
    bytes_ += entry.bytes;
    touch(it->second);
  } else {
    bytes_ += entry.bytes;
    lru_.push_back(entry);
    by_fingerprint_[fingerprint] = std::prev(lru_.end());
  }
  evict_to_budget();
  publish_gauges();
  return entry;
}

void ResultCache::evict_to_budget() {
  static const util::telemetry::Counter evictions("serve.cache.evictions");
  while (bytes_ > options_.budget_bytes && lru_.size() > 1) {
    const Entry& victim = lru_.front();
    remove_quiet(victim.store_path);
    remove_quiet(sidecar_of(victim.store_path));
    bytes_ -= victim.bytes;
    by_fingerprint_.erase(victim.fingerprint);
    lru_.pop_front();
    evictions.add();
  }
  publish_gauges();
}

void ResultCache::touch(std::list<Entry>::iterator it) {
  lru_.splice(lru_.end(), lru_, it);
}

void ResultCache::publish_gauges() const {
  static const util::telemetry::Gauge bytes_gauge("serve.cache.bytes");
  static const util::telemetry::Gauge entries_gauge("serve.cache.entries");
  bytes_gauge.set(static_cast<double>(bytes_));
  entries_gauge.set(static_cast<double>(lru_.size()));
}

}  // namespace ulpdream::serve
