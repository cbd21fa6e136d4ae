// Fixed-size work-stealing thread pool (C++20 std::jthread, no external
// dependencies). Tasks are submitted round-robin onto per-worker deques;
// a worker pops its own deque LIFO (cache-warm) and steals FIFO from the
// others when it runs dry. Built for the Datalog verifier's fan-out —
// coarse, independent batches of per-guess solves — so the queues are
// mutex-guarded rather than lock-free: task granularity is milliseconds,
// queue operations are nanoseconds.
#ifndef RAPAR_COMMON_THREAD_POOL_H_
#define RAPAR_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rapar {

class ThreadPool {
 public:
  // `threads` = 0 resolves to std::thread::hardware_concurrency() (minimum
  // 1). The pool starts its workers immediately and keeps them until
  // destruction.
  explicit ThreadPool(unsigned threads = 0);
  // Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(deques_.size()); }

  // Enqueues a task. Never blocks; callers that need backpressure bound
  // their in-flight count themselves (the Datalog driver keeps at most a
  // small multiple of the pool's size in chunks dispatched and unfolded).
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished. Establishes
  // happens-before with the completed tasks, so their results may be read
  // without further synchronization.
  void Wait();

  // Tasks a worker took from another worker's deque.
  std::size_t steals() const;

  // Index of the calling pool worker in [0, size()), or -1 when called
  // from a thread that is not a worker of any pool. Lets per-worker state
  // (one dl::Engine per worker) be indexed without locks: a worker runs
  // one task at a time, so its slot is never shared.
  static int CurrentWorkerIndex();

 private:
  void WorkerLoop(unsigned me);
  // Pops the next task for worker `me` (own deque back, else steal a
  // front); null when everything is empty. Caller holds m_.
  std::function<void()> Take(unsigned me);

  mutable std::mutex m_;
  std::condition_variable work_cv_;  // workers sleep here
  std::condition_variable idle_cv_;  // Wait() sleeps here
  std::vector<std::deque<std::function<void()>>> deques_;
  std::size_t pending_ = 0;  // submitted but not yet finished
  std::size_t steals_ = 0;
  unsigned next_deque_ = 0;  // round-robin submission target
  bool stopping_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace rapar

#endif  // RAPAR_COMMON_THREAD_POOL_H_
