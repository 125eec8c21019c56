// Trace capture & replay: substitute recorded memory-operation traces for
// the synthetic generators -- the integration path for real target traces.
//
// 1. Capture an op trace from a workload generator (stand-in for a trace
//    collected on real hardware) and save it as CSV.
// 2. Reload it and replay it through the platform: identical op streams
//    produce identical execution times under the same seed.
// 3. Attach a transaction-level bus tracer and dump what actually
//    happened on the bus, transaction by transaction.
//
//   ./trace_replay [kernel] [ops]
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "platform/multicore.hpp"
#include "platform/platform_config.hpp"
#include "trace/bus_trace.hpp"
#include "trace/op_trace.hpp"
#include "workloads/eembc_like.hpp"

int main(int argc, char** argv) {
  using namespace cbus;

  const std::string kernel = argc > 1 ? argv[1] : "canrdr";
  const auto ops_to_capture =
      static_cast<std::size_t>(argc > 2 ? std::atoi(argv[2]) : 2000);
  const auto dir = std::filesystem::temp_directory_path();
  const std::string op_path = (dir / "cbus_ops.csv").string();
  const std::string bus_path = (dir / "cbus_bus.csv").string();

  // 1. Capture.
  auto generator = workloads::make_eembc(kernel);
  generator->reset(42);
  const auto ops = trace::capture(*generator, ops_to_capture);
  trace::save_ops(op_path, ops);
  std::cout << "captured " << ops.size() << " ops from '" << kernel
            << "' -> " << op_path << "\n";

  // 2. Reload & replay twice: determinism check.
  const auto loaded = trace::load_ops(op_path);
  const auto cfg = platform::PlatformConfig::paper(platform::BusSetup::kCba);

  auto replay_once = [&](trace::BusTraceRecorder* recorder) {
    auto stream = trace::replay(loaded);
    platform::Multicore machine(cfg, 7, *stream);
    if (recorder != nullptr) machine.set_bus_observer(recorder);
    return machine.run().tua_cycles;
  };

  const Cycle t1 = replay_once(nullptr);
  const Cycle t2 = replay_once(nullptr);
  std::cout << "replay #1: " << t1 << " cycles, replay #2: " << t2
            << " cycles -> " << (t1 == t2 ? "deterministic" : "MISMATCH!")
            << "\n";

  // 3. Replay with the bus analyzer attached.
  trace::BusTraceRecorder recorder;
  (void)replay_once(&recorder);
  trace::save_bus_trace(bus_path, recorder.transactions());
  std::cout << "bus analyzer: " << recorder.transactions().size()
            << " transactions -> " << bus_path << "\n";
  const auto waits = recorder.wait_stats(0);
  std::cout << "master 0 wait cycles: mean=" << waits.mean()
            << " max=" << waits.max() << " over " << waits.count()
            << " transactions\n";

  std::cout << "\nAny trace in the same CSV format (kind,addr_hex,gap) can "
               "be dropped in place\nof the synthetic kernels -- including "
               "traces collected on real LEON3 hardware.\n";
  return 0;
}
