/**
 * @file
 * A persistent pool of worker threads draining one task queue — shared
 * by the study orchestrator and by standalone campaigns.
 *
 * The process-wide sharedWorkerPool() exists so every direct
 * runCampaign() call (examples, benches, tests) reuses one set of
 * threads instead of spawning a fresh pool per campaign: before, a
 * sweep like examples/ace_vs_fi.cc created and joined
 * hardware_concurrency threads once per sample size, and concurrent
 * campaigns oversubscribed the machine.
 */

#ifndef GPR_COMMON_WORKER_POOL_HH
#define GPR_COMMON_WORKER_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpr {

/**
 * A persistent pool of worker threads draining one task queue.  Tasks
 * may be submitted from any thread; waitIdle() blocks until the queue is
 * empty and every worker is idle, so one pool can serve several waves of
 * tasks (golden runs, then shards) without re-spawning threads.
 */
class WorkerPool
{
  public:
    /** @p jobs worker threads; 0 = hardware concurrency. */
    explicit WorkerPool(unsigned jobs = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    void submit(std::function<void()> task);
    /** Block until all submitted tasks have finished. */
    void waitIdle();

    unsigned size() const { return static_cast<unsigned>(threads_.size()); }

    /**
     * True when the calling thread is a worker of *any* WorkerPool.
     * Code that would block waiting on pool tasks (runOnSharedPool)
     * checks this and runs inline instead — a worker waiting on its own
     * pool's queue is a deadlock, and fanning out from inside another
     * pool is exactly the oversubscription the shared pool exists to
     * prevent.
     */
    static bool onWorkerThread();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    std::size_t active_ = 0;
    bool stop_ = false;
    std::vector<std::thread> threads_;
};

/**
 * The process-wide pool (hardware_concurrency threads, created on first
 * use).  Campaigns cap their parallelism by submitting fewer worker
 * tasks, not by resizing the pool.
 */
WorkerPool& sharedWorkerPool();

/**
 * Run @p copies concurrent calls of @p task on the shared pool (at most
 * one per pool thread) and wait for all of them.  Runs one call inline
 * when @p copies <= 1 or when the caller is itself a pool worker.  The
 * first exception any call throws is rethrown here, after every call
 * has returned — a throwing task never leaves the caller waiting.
 */
void runOnSharedPool(unsigned copies, const std::function<void()>& task);

} // namespace gpr

#endif // GPR_COMMON_WORKER_POOL_HH
