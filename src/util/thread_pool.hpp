// Fixed-size worker pool with a blocking parallel_for, used to parallelise
// the pairwise glyph-distance computation (the paper used 15 concurrent
// processes for the same step; see Table 5).
//
// parallel_for / parallel_for_chunks track completion per call (not via the
// pool-wide in-flight counter), so independent callers may drive one shared
// pool concurrently; today every caller (a parallel detect(), a SimChar
// build) makes a pool of its own. wait_idle() still waits for *everything*,
// including tasks enqueued with submit().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sham::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueue a task. Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have finished.
  void wait_idle();

  /// Split [begin, end) into chunks and run `body(chunk_begin, chunk_end)`
  /// on the pool; blocks until every chunk of *this call* is done (other
  /// callers' tasks are not waited for). `chunks` of 0 picks 4× the worker
  /// count for load balancing of irregular work.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t chunks = 0);

  /// Like parallel_for, but with a fixed chunk count and a chunk-id hook:
  /// runs `body(chunk, chunk_begin, chunk_end)` for chunk ids 0..chunks-1,
  /// where chunk c covers [begin + c*step, begin + (c+1)*step) ∩ [begin, end)
  /// with step = ceil((end-begin)/chunks). Ascending chunk ids therefore
  /// cover ascending, contiguous index ranges, so callers can write into
  /// preallocated per-chunk slots without synchronisation and merge them in
  /// chunk order to reproduce the serial iteration order exactly. Chunks
  /// whose range is empty (chunks > end-begin) are never invoked. Blocks
  /// until every chunk is done.
  void parallel_for_chunks(
      std::size_t begin, std::size_t end, std::size_t chunks,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace sham::util
