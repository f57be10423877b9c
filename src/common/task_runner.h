#ifndef INCDB_COMMON_TASK_RUNNER_H_
#define INCDB_COMMON_TASK_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace incdb {

/// One worker per hardware thread, and at least one.
inline size_t HardwareWorkers() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Runs task(worker, i) for every i in [0, tasks) and returns when all are
/// done. min(workers, tasks) workers, at least one, numbered from 0, claim
/// the indexes in ascending order; the calling thread is worker 0, so one
/// worker starts no thread. A task returns a Status: after a failure its
/// worker claims no more (the others go on), and RunTasks returns the
/// failure with the lowest index, or OK.
template <typename Task>
Status RunTasks(size_t tasks, size_t workers, const Task& task) {
  workers = std::max<size_t>(1, std::min(workers, tasks));
  std::atomic<size_t> next{0};
  std::vector<std::pair<size_t, Status>> failures(
      workers, {tasks, Status::OK()});
  auto work = [&](size_t worker) {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks) return;
      Status status = task(worker, i);
      if (!status.ok()) {
        failures[worker] = {i, std::move(status)};
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t worker = 1; worker < workers; ++worker) {
    threads.emplace_back(work, worker);
  }
  work(0);
  for (std::thread& thread : threads) thread.join();
  return std::min_element(failures.begin(), failures.end(),
                          [](const auto& a, const auto& b) {
                            return a.first < b.first;
                          })
      ->second;
}

}  // namespace incdb

#endif  // INCDB_COMMON_TASK_RUNNER_H_
