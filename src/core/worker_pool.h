// A small fixed-size thread pool with one FIFO queue per worker.
//
// The clone engine partitions a batch's children across workers
// deterministically (child i -> worker i % size), so work placement never
// depends on scheduling luck; only the interleaving of the workers' memory
// operations varies between runs, and the engine's staging jobs write
// disjoint state. WaitIdle() is the batch barrier: it returns once every queue
// is drained and every worker is parked.
//
// Jobs must not touch the pool itself (no nested Submit). A job that throws
// does not take the worker thread down: the exception is swallowed and
// counted in exceptions_caught().

#ifndef SRC_CORE_WORKER_POOL_H_
#define SRC_CORE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nephele {

class WorkerPool {
 public:
  // Spawns `size` threads (at least one). Threads live until Shutdown() or
  // destruction.
  explicit WorkerPool(unsigned size);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Enqueues `job` on worker `worker % size()`. Jobs on one worker run in
  // submission order. After Shutdown() the job is dropped (never run) and
  // counted in rejected_jobs().
  void Submit(unsigned worker, std::function<void()> job);

  // Blocks until every worker has an empty queue and is not running a job.
  void WaitIdle();

  // Drains every queue (pending jobs still run), then joins all threads.
  // Idempotent; the destructor calls it.
  void Shutdown();

  bool shut_down() const { return shut_down_.load(std::memory_order_acquire); }
  // Jobs dropped by Submit() after Shutdown().
  std::uint64_t rejected_jobs() const { return rejected_jobs_.load(std::memory_order_relaxed); }
  // Jobs whose exception was caught by the worker loop.
  std::uint64_t exceptions_caught() const {
    return exceptions_caught_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::mutex mu;
    std::condition_variable cv;       // signals the worker thread
    std::condition_variable idle_cv;  // signals WaitIdle
    std::deque<std::function<void()>> queue;
    bool busy = false;
    bool stop = false;
    std::thread thread;
  };

  void RunWorker(Worker& w);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> shut_down_{false};
  std::atomic<std::uint64_t> rejected_jobs_{0};
  std::atomic<std::uint64_t> exceptions_caught_{0};
};

}  // namespace nephele

#endif  // SRC_CORE_WORKER_POOL_H_
