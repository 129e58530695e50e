#pragma once
// Internal (non-installed) helper shared by Worker and FakeWorker: a
// completed lease ships as the exact columnar file bytes of its store, so
// the coordinator can spool them verbatim and open them like any shard.

#include <cstdint>
#include <string>
#include <vector>

#include "ulpdream/campaign/result_store.hpp"

namespace ulpdream::dist {

/// The columnar file bytes of `store`. It is saved through a temp file
/// whose name is unique to this process and call, so workers that share a
/// name (in one process or in concurrent ones) never touch each other's
/// file.
[[nodiscard]] std::vector<std::uint8_t> lease_store_bytes(
    const campaign::ResultStore& store, const std::string& worker_name,
    std::uint64_t lease_id);

}  // namespace ulpdream::dist
