#include <thread>
void RunSweep() { std::thread t([] {}); t.join(); }
