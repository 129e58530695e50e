#pragma once
// Shared work-stealing pool — the execution substrate of the async
// runtime. A WorkPool owns a fixed set of long-lived worker threads onto
// which any number of index jobs are submitted concurrently; each job is
// a range [0, count) of independent indices plus a per-worker state
// factory. Workers claim one (job, index) pair at a time in
// submission order, so concurrent jobs interleave at item granularity
// and a cancel() takes effect at the next claim. Determinism is the
// caller's contract: a job's result must be keyed on its indices alone
// (the campaign pattern), never on which worker ran an index or in
// what order — then any interleaving of any number of jobs reproduces
// the isolated runs exactly.
//
// Claim accounting is mutex-based (one lock per claim and one per
// completion): pool items are simulation runs measured in milliseconds,
// so a sub-microsecond critical section is noise, and it buys fair
// cross-job interleaving, item-granular cancellation and exact progress
// counters without atomics gymnastics.

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace ulpdream::util {

class WorkPool {
 public:
  /// Per-index work function, private to one (job, worker) pair.
  using WorkerFn = std::function<void(std::size_t)>;
  /// Invoked lazily, once per worker thread that participates in a job,
  /// to build that worker's private state (e.g. an ExperimentRunner).
  /// Must be safe to invoke from several pool threads concurrently.
  using WorkerFactory = std::function<WorkerFn()>;

  class Job;

  /// `threads` == 0 picks std::thread::hardware_concurrency().
  explicit WorkPool(unsigned threads = 0);
  /// Cancels every outstanding job (in-flight indices finish), then
  /// joins the workers. Job handles outlive the pool safely.
  ~WorkPool();

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  /// Enqueues a job of `count` independent indices. Returns immediately;
  /// the handle observes and controls the job.
  [[nodiscard]] std::shared_ptr<Job> submit(std::size_t count,
                                            WorkerFactory factory);

  /// submit(), but workers leave the job untouched until Job::start() is
  /// called — for callers that must publish the handle (e.g. into
  /// callback-visible state) before the first index can possibly run.
  [[nodiscard]] std::shared_ptr<Job> submit_deferred(std::size_t count,
                                                     WorkerFactory factory);

  /// submit() + wait(): a blocking index-parallel loop. Throws
  /// std::runtime_error if the job was cancelled before completing (the
  /// pool being destroyed mid-run) — a blocking caller must never
  /// mistake truncated execution for a finished result.
  void run(std::size_t count, WorkerFactory factory);

  [[nodiscard]] unsigned threads() const noexcept;

 private:
  struct State;
  void worker_main(unsigned worker_id);

  std::shared_ptr<State> state_;
  std::vector<std::thread> workers_;
};

/// A submitted job: future-like observation and cooperative control.
/// All methods are thread-safe and remain valid after the pool is gone.
class WorkPool::Job {
 public:
  /// Blocks until every claimed index has finished and no more can be
  /// claimed (completion, cancellation, or a worker error). Rethrows the
  /// first exception a worker hit, if any.
  void wait();
  /// Cooperative, item-granular: already-claimed indices run to
  /// completion, unclaimed ones are dropped. Idempotent.
  void cancel();
  /// Releases a submit_deferred() job to the workers. No-op on an
  /// already-started job.
  void start();

  [[nodiscard]] bool finished() const;
  [[nodiscard]] bool cancelled() const;
  [[nodiscard]] std::size_t total() const noexcept { return count_; }
  /// Indices fully executed so far.
  [[nodiscard]] std::size_t done() const;
  /// done(), broken down by pool worker — the throughput view.
  [[nodiscard]] std::vector<std::size_t> done_per_worker() const;

 private:
  friend class WorkPool;
  Job(std::shared_ptr<State> state, std::size_t count, WorkerFactory factory);

  /// Per-(job, worker) slot. `fn` is created and used only by the owning
  /// worker thread; `done` is guarded by the pool mutex.
  struct Slot {
    WorkerFn fn;
    std::size_t done = 0;
  };

  std::shared_ptr<State> state_;
  const std::size_t count_;
  // All remaining fields are guarded by State::mutex.
  WorkerFactory factory_;
  std::vector<Slot> slots_;
  std::size_t next_ = 0;       ///< first unclaimed index
  std::size_t in_flight_ = 0;  ///< claimed, still executing
  std::size_t done_ = 0;
  /// Worker that claimed the previous index — consecutive indices landing
  /// on different workers count as steals (telemetry only).
  unsigned last_worker_ = ~0u;
  bool started_ = false;       ///< submit_deferred gates claims on this
  bool cancelled_ = false;
  bool finished_ = false;
  std::exception_ptr error_;
};

}  // namespace ulpdream::util
