#include "reference.hpp"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBufferWords = std::size_t{1} << 22;  // 32 MiB

// Keeps every kernel's result alive, so the compiler cannot drop the work.
volatile std::uint64_t g_sink;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// Eight independent integer chains: bound by how many instructions the
/// core retires per cycle.
double chains() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  for (int i = 0; i < 4'000'000; ++i) {
    a = a * 2862933555777941757ULL + 3037000493ULL;
    b = b * 2862933555777941757ULL + 1;
    c ^= c << 7;
    c ^= c >> 9;
    d += a ^ b;
    e += c | d;
    f ^= e + a;
    g += f >> 3;
    h ^= g + b;
  }
  g_sink = a + b + c + d + e + f + g + h;
  return seconds_since(t0);
}

/// Random read-modify-writes over 32 MiB: more than a core's private
/// caches hold, so they go to the shared cache and memory.
double read_modify_writes(std::vector<std::uint64_t>& buffer) {
  std::uint64_t s = 7, acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 1'500'000; ++i) {
    std::uint64_t& v = buffer[xorshift(s) & (buffer.size() - 1)];
    v += acc;
    acc ^= v;
  }
  g_sink = acc;
  return seconds_since(t0);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Times both kernels in rounds, at least three, until `budget_s` has
/// passed; the geometric mean of the two kernels' median times.
double one_copy(double budget_s) {
  std::vector<std::uint64_t> buffer(kBufferWords, 1);
  std::vector<double> t_chains, t_rmw;
  const Clock::time_point start = Clock::now();
  while (t_chains.size() < 3 || seconds_since(start) < budget_s) {
    t_chains.push_back(chains());
    t_rmw.push_back(read_modify_writes(buffer));
  }
  return std::sqrt(median(t_chains) * median(t_rmw));
}

[[noreturn]] void child(int out, unsigned threads, double budget_s) {
  std::vector<double> each(threads, 0.0);
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < threads; ++i) {
    pool.emplace_back([&each, i, budget_s] { each[i] = one_copy(budget_s); });
  }
  each[0] = one_copy(budget_s);
  for (std::thread& t : pool) t.join();
  double sum = 0.0;
  for (const double t : each) sum += t;
  const double value = sum / threads;
  const bool ok = write(out, &value, sizeof value) == sizeof value;
  _exit(ok ? 0 : 1);
}

}  // namespace

void pin_to_cpus(unsigned count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  unsigned taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < count; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++taken;
    }
  }
  if (taken != 0) (void)sched_setaffinity(0, sizeof pinned, &pinned);
}

double reference_seconds(unsigned threads, double budget_s) {
  if (threads == 0) threads = 1;
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("reference: pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("reference: fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    child(fds[1], threads, budget_s);
  }
  close(fds[1]);
  double value = 0.0;
  ssize_t got = 0;
  do {
    got = read(fds[0], &value, sizeof value);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof value) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || !(value > 0.0)) {
    throw std::runtime_error("reference: the timing child failed");
  }
  return value;
}

}  // namespace perfbench
