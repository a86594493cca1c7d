#include "common/worker_pool.hh"

#include <algorithm>
#include <exception>

#include "common/logging.hh"

namespace gpr {
namespace {

thread_local bool tls_on_worker_thread = false;

} // namespace

WorkerPool::WorkerPool(unsigned jobs)
{
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    threads_.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_)
        t.join();
}

void
WorkerPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        GPR_ASSERT(!stop_, "submit() on a stopped pool");
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
WorkerPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

bool
WorkerPool::onWorkerThread()
{
    return tls_on_worker_thread;
}

void
WorkerPool::workerLoop()
{
    tls_on_worker_thread = true;
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0)
                idle_.notify_all();
        }
    }
}

WorkerPool&
sharedWorkerPool()
{
    // Magic-static init is thread-safe; all post-init state is behind
    // the pool's own lock.
    // gpr:guarded_by(WorkerPool::mutex_)
    static WorkerPool pool;
    return pool;
}

void
runOnSharedPool(unsigned copies, const std::function<void()>& task)
{
    if (copies <= 1 || WorkerPool::onWorkerThread()) {
        // Blocking a worker on tasks it queued behind itself can
        // deadlock, and fanning out from inside a pool is the
        // oversubscription the shared pool exists to avoid.
        task();
        return;
    }
    WorkerPool& pool = sharedWorkerPool();
    copies = std::min(copies, pool.size());
    // Completion is tracked with a local latch rather than waitIdle()
    // so concurrent callers can share the pool.
    std::mutex mutex;
    std::condition_variable done_cv;
    unsigned done = 0;
    std::exception_ptr first_error;
    for (unsigned t = 0; t < copies; ++t) {
        pool.submit([&]() {
            std::exception_ptr error;
            try {
                task();
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mutex);
            if (error && !first_error)
                first_error = error;
            ++done;
            done_cv.notify_one();
        });
    }
    std::unique_lock<std::mutex> lock(mutex);
    done_cv.wait(lock, [&] { return done == copies; });
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace gpr
