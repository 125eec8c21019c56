// Host-speed reference: a fixed piece of host work, independent of the
// simulator, timed between campaigns so that the benchmark can tell the
// host's drift from the program's speed.
//
// The host this benchmark runs on shares its cores, caches and memory
// with other tenants. Its speed drifts by tens of percent over tens of
// seconds, and a campaign's wall time drifts with it. Timed on the same
// CPUs right before and right after each campaign, the reference slows
// down with the host and not with the simulator: perfbench/run.py scales
// each campaign's times by the reference's slowdown (see README.md,
// "Host-speed reference").
#pragma once

namespace perfbench {

/// Pin this thread, and every thread and process it starts later, to the
/// last `count` of the CPUs it may run on: the campaigns and the
/// reference then share their CPUs, and every run of the benchmark uses
/// the same ones (the speed of a shared host's CPUs differs). Call it
/// before starting any thread. A failure leaves the affinity as it was.
void pin_to_cpus(unsigned count);

/// Seconds the reference takes now: the geometric mean of two kernels --
/// eight independent integer chains (core throughput, which a busy
/// sibling hyperthread takes) and random read-modify-writes over 32 MiB
/// (shared cache and memory) -- each the median of its timings, taken in
/// rounds (at least three) for `budget_s` seconds. `threads` copies run
/// at once, one per campaign worker thread, and their times are
/// averaged. It runs in a forked child, so its buffers never count in
/// the harness's peak resident set.
[[nodiscard]] double reference_seconds(unsigned threads, double budget_s);

}  // namespace perfbench
