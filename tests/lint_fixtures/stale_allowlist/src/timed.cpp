// Fixture: a file that reads the clock earns its allowlist entry.
#include <chrono>
auto tick() { return std::chrono::steady_clock::now(); }
