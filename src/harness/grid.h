#ifndef CLOUDDB_HARNESS_GRID_H_
#define CLOUDDB_HARNESS_GRID_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace clouddb::harness {

/// The one parallel-grid runner behind RunSweep and RunControlSweep, and the
/// one sanctioned home of real threads in the tree (clouddb-thread).
///
/// Calls `run(cell)` for every planned cell — on `jobs` worker threads when
/// jobs > 1 (0 means one per hardware core) — and hands each outcome to
/// `progress(cell, outcome)` on the calling thread right after that cell,
/// strictly in plan order. Every cell is an independent single-threaded
/// Simulation whose seed the caller derived from its grid coordinates up
/// front, so the progress sequence is byte-identical for every `jobs`.
///
/// `run` returns Result<T>. The first failure in plan order is returned and
/// no later cell reaches `progress`; workers still drain the remaining
/// cells so every thread is joined.
template <typename Cell, typename Run, typename Progress>
Status RunGrid(const std::vector<Cell>& cells, int jobs, const Run& run,
               const Progress& progress) {
  using Outcome = std::invoke_result_t<const Run&, const Cell&>;
  const size_t n = cells.size();
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs > static_cast<int>(n)) jobs = static_cast<int>(n);

  if (jobs <= 1) {
    for (const Cell& cell : cells) {
      Outcome outcome = run(cell);
      if (!outcome.ok()) return outcome.status();
      progress(cell, std::move(outcome).value());
    }
    return Status::Ok();
  }

  // Workers claim cells from a shared cursor; the calling thread consumes
  // outcomes strictly in plan order.
  std::vector<std::optional<Outcome>> outcomes(n);
  std::atomic<size_t> cursor{0};
  std::mutex mu;
  std::condition_variable cell_ready;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        size_t i = cursor.fetch_add(1);
        if (i >= n) return;
        Outcome outcome = run(cells[i]);
        {
          std::lock_guard<std::mutex> lock(mu);
          outcomes[i] = std::move(outcome);
        }
        cell_ready.notify_all();
      }
    });
  }

  Status failed = Status::Ok();
  for (size_t i = 0; i < n; ++i) {
    std::unique_lock<std::mutex> lock(mu);
    cell_ready.wait(lock, [&] { return outcomes[i].has_value(); });
    Outcome& outcome = *outcomes[i];
    if (!outcome.ok()) {
      failed = outcome.status();
      break;
    }
    auto value = std::move(outcome).value();
    lock.unlock();
    progress(cells[i], std::move(value));
  }
  for (std::thread& worker : workers) worker.join();
  return failed;
}

}  // namespace clouddb::harness

#endif  // CLOUDDB_HARNESS_GRID_H_
