// Mirrors the sanctioned parallel grid runner: worker threads over
// independent simulations are allowed here and only here.
#include <atomic>
#include <mutex>
#include <thread>
void RunCells() {
  std::atomic<int> cursor{0};
  std::mutex mu;
  std::thread worker([&] { std::lock_guard<std::mutex> lock(mu); });
  worker.join();
}
