#pragma once
// Campaign runners shared by the workloads: run a list of campaign jobs on
// a Session for a time budget while timing set-up, waits, whole campaigns
// and single items from the caller's side, and turn a dark + traced pair
// of such runs into the item-layer metrics (campaign, ecg, mem, apps,
// core, sim, util.workpool).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"
#include "ulpdream/campaign/session.hpp"

namespace perfbench {

/// One campaign to submit: its spec, an optional resume store (gap-fill)
/// and the check its completed store must pass.
struct CampaignJob {
  ulpdream::campaign::CampaignSpec spec;
  const ulpdream::campaign::ResultStore* resume_from = nullptr;
  std::function<bool(const ulpdream::campaign::ResultStore&)> check;
};

struct CampaignRun {
  std::vector<double> submit_s;   ///< Session::submit, per campaign
  std::vector<double> wait_s;     ///< submit return -> store taken
  std::vector<double> latency_s;  ///< submit call -> store taken
  std::vector<double> items_per_s;  ///< executed items / wait, per campaign
  std::vector<double> item_ms;    ///< per-item wall time on its worker
  std::size_t campaigns = 0;
  std::size_t items = 0;          ///< items executed
  std::uint64_t failed_items = 0; ///< items of campaigns failing their check
  Snapshot telemetry;             ///< the Session's metrics after the run
};

/// Runs `jobs` round-robin on a fresh Session of `threads` workers until
/// `seconds` have elapsed and every job ran at least once. With `traced`,
/// each executed item's spans are stamped with its id.
[[nodiscard]] CampaignRun run_campaigns(const std::vector<CampaignJob>& jobs,
                                        unsigned threads, double seconds,
                                        bool traced);

/// The spec with every app and EMT replaced by its traced wrapper.
[[nodiscard]] ulpdream::campaign::CampaignSpec traced_spec(
    const ulpdream::campaign::CampaignSpec& spec);

/// Item-layer inputs: the deterministic counting run (1-thread reference
/// computation), a dark run, a traced run of the same jobs and a metered
/// run (hot-path telemetry on, as --metrics-out sets it).
struct LayerRuns {
  const CampaignRun* counting = nullptr;
  const CampaignRun* dark = nullptr;
  const CampaignRun* traced = nullptr;
  const CampaignRun* metered = nullptr;
  trace::Breakdown spans;
  std::vector<ulpdream::campaign::CampaignSpec> specs;  ///< built-in names
};

/// Appends campaign.*, ecg.*, mem.*, apps.*, core.*, sim.* and
/// util.workpool.* / util.telemetry.* metrics.
void add_item_layers(RunResult& out, const LayerRuns& runs);

/// Appends the serve.* and util.wire.* metrics as zeros: the grid
/// workloads bypass the daemon and the wire codec.
void add_serve_bypass(RunResult& out);

/// The apps and EMTs the per-layer metric names enumerate.
[[nodiscard]] const std::vector<std::string>& layer_apps();
[[nodiscard]] const std::vector<std::string>& layer_emts();

/// Session thread count for "nproc".
[[nodiscard]] unsigned nproc();

}  // namespace perfbench
