#include "common/task_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace incdb {
namespace {

TEST(TaskRunnerTest, RunsEveryTaskOnceOnAtMostOneWorkerPerTask) {
  std::vector<std::atomic<int>> runs(100);
  std::vector<std::atomic<int>> by_worker(8);
  const Status status = RunTasks(runs.size(), 8, [&](size_t worker, size_t i) {
    runs[i].fetch_add(1);
    by_worker[worker].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  for (const std::atomic<int>& count : runs) EXPECT_EQ(count.load(), 1);
  int total = 0;
  for (const std::atomic<int>& count : by_worker) total += count.load();
  EXPECT_EQ(total, 100);

  std::atomic<size_t> max_worker{0};
  ASSERT_TRUE(RunTasks(3, 8, [&](size_t worker, size_t) {
                size_t seen = max_worker.load();
                while (worker > seen &&
                       !max_worker.compare_exchange_weak(seen, worker)) {
                }
                return Status::OK();
              }).ok());
  EXPECT_LT(max_worker.load(), 3u);
}

TEST(TaskRunnerTest, OneWorkerRunsInOrderOnTheCallingThread) {
  std::vector<size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  ASSERT_TRUE(RunTasks(5, 1, [&](size_t worker, size_t i) {
                EXPECT_EQ(worker, 0u);
                EXPECT_EQ(std::this_thread::get_id(), caller);
                order.push_back(i);
                return Status::OK();
              }).ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  // Zero workers still means one, and zero tasks run nothing.
  ASSERT_TRUE(RunTasks(2, 0, [&](size_t, size_t i) {
                order.push_back(i);
                return Status::OK();
              }).ok());
  EXPECT_EQ(order.size(), 7u);
  ASSERT_TRUE(RunTasks(0, 4, [](size_t, size_t) {
                ADD_FAILURE() << "no task to run";
                return Status::OK();
              }).ok());
}

TEST(TaskRunnerTest, ReturnsTheLowestIndexedFailure) {
  std::vector<std::atomic<int>> runs(64);
  const Status status = RunTasks(runs.size(), 4, [&](size_t, size_t i) {
    runs[i].fetch_add(1);
    if (i == 40 || i == 17) {
      return Status::InvalidArgument("task " + std::to_string(i));
    }
    return Status::OK();
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "task 17");
  // A failure stops only its own worker; the others run every task left.
  for (const std::atomic<int>& count : runs) EXPECT_EQ(count.load(), 1);

  // With one worker the first failure ends the run.
  size_t ran = 0;
  const Status serial = RunTasks(10, 1, [&](size_t, size_t i) {
    ++ran;
    return i == 3 ? Status::Internal("stop") : Status::OK();
  });
  EXPECT_EQ(serial.message(), "stop");
  EXPECT_EQ(ran, 4u);
}

}  // namespace
}  // namespace incdb
