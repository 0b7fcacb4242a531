#ifndef KPJ_UTIL_THREAD_POOL_H_
#define KPJ_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kpj {

/// Fixed-size worker pool with a shared FIFO task queue.
///
/// Reusable threads: the KPJ engine keeps per-worker solver state alive
/// across many queries, so workers need stable identities (`worker` in
/// `[0, num_workers())`) and must outlive individual submissions.
///
/// The pool spawns exactly `threads` workers (minimum 1) without clamping
/// to the hardware: callers that want the advisory hardware clamp apply
/// EffectiveWorkers() first. Determinism and sanitizer tests deliberately
/// oversubscribe a small machine, which is safe for correctness.
///
/// Destruction waits for all queued tasks to run before joining, so every
/// submitted task is eventually executed exactly once.
class ThreadPool {
 public:
  /// A task receives the id of the worker executing it.
  using Task = std::function<void(unsigned worker)>;

  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_workers() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues `task` for execution on some worker. Thread-safe.
  void Submit(Task task);

  /// Blocks until the queue is empty and no worker is running a task.
  /// Tasks submitted concurrently with the wait may or may not be covered.
  void WaitIdle();

  /// Runs `body(index, worker)` for every index in `[0, count)` on the
  /// pool's workers, pulling indices from a shared atomic counter (dynamic
  /// load balancing). Blocks the caller until all indices are done; the
  /// caller does not participate, so `worker` ids stay stable pool ids.
  void ParallelFor(size_t count,
                   const std::function<void(size_t index, unsigned worker)>&
                       body);

  /// Owner-helping variant of ParallelFor for nested use *from inside* a
  /// pool task (or any external thread): the caller participates as lane 0
  /// and drains the shared index counter itself, while up to `helpers`
  /// one-shot tasks are submitted to the pool to steal indices as lanes
  /// `1..helpers`. This is deadlock-free under nesting by construction —
  /// the owner never blocks on queue capacity and makes progress alone if
  /// every worker is busy (the helper tasks then find the counter
  /// exhausted and exit without running `body`).
  ///
  /// `body(index, lane)` must be safe to call concurrently from different
  /// lanes for different indices; two calls on the same lane never overlap,
  /// so callers can keep per-lane workspaces indexed by `lane` in
  /// `[0, helpers]`. Returns the number of indices executed by helper
  /// lanes (0 when the pool was saturated and the owner did everything).
  size_t HelpedParallelFor(size_t count, unsigned helpers,
                           const std::function<void(size_t index,
                                                    unsigned lane)>& body);

  /// Advisory hardware clamp; forwards to EffectiveWorkers() in
  /// util/concurrency.h, the single implementation of the clamp shared by
  /// the engine, the landmark builder, and the CLI.
  static unsigned ClampToHardware(unsigned threads);

 private:
  void WorkerLoop(unsigned worker);

  std::mutex mu_;
  std::condition_variable work_cv_;   // signalled when tasks arrive / stop
  std::condition_variable idle_cv_;   // signalled when the pool may be idle
  std::deque<Task> queue_;
  unsigned active_ = 0;  // workers currently running a task
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace kpj

#endif  // KPJ_UTIL_THREAD_POOL_H_
