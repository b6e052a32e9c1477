#include "common/thread_pool.hh"

#include <algorithm>

namespace flashmem {

ThreadPool::ThreadPool(int threads)
{
    const int n = std::max(threads, 1);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

int
ThreadPool::defaultThreadCount()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push(std::move(job));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this]() { return stopping_ || !queue_.empty(); });
            // Drain the queue even when stopping: submitted futures
            // must complete.
            if (queue_.empty())
                return;
            job = std::move(queue_.front());
            queue_.pop();
        }
        // submit() wraps tasks in a packaged_task, which captures the
        // task's exception into its future — the waiter rethrows it on
        // get(). An exception escaping job() anyway (a future_error
        // from the packaged_task itself, or a raw internal job) must
        // not take the worker thread down with std::terminate and
        // strand every queued future: swallow it and keep serving.
        try {
            job();
        } catch (...) {
        }
    }
}

} // namespace flashmem
