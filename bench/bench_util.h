// Shared helper for the bench binaries: the usable-CPU count the perf
// reports record.
#pragma once

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>

namespace rrs {
namespace bench {

// CPUs this process can actually run on: the smaller of its affinity mask
// and the cgroup v2 `cpu.max` quota / period, rounded down, at least 1.
// std::thread::hardware_concurrency() counts every online CPU, so a run
// pinned with `taskset -c 0` would claim the whole machine.
inline unsigned UsableCpus() {
  unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<unsigned>(CPU_COUNT(&set));
  }
  // cgroup v2 `cpu.max`: "<quota> <period>", or "max <period>" when
  // unlimited.
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string quota;
  double period = 0;
  if (in >> quota >> period && quota != "max" && period > 0) {
    cpus = std::min(cpus, static_cast<unsigned>(std::stod(quota) / period));
  }
  return std::max(1u, cpus);
}

}  // namespace bench
}  // namespace rrs
