// Spans, machine context, quantiles and the result line.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "obs/trace.h"

namespace stackbench {

// ---- Spans -----------------------------------------------------------------

const char* SpanLog::Intern(std::string_view name) {
  auto it = interned_.find(name);
  if (it != interned_.end()) return it->second;
  names_.emplace_back(name);
  const char* stable = names_.back().c_str();
  interned_.emplace(names_.back(), stable);
  return stable;
}

size_t SpanLog::Open(std::string_view name, uint64_t op) {
  Span span;
  span.name = Intern(name);
  span.op = op;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.start_ns = rrs::obs::NowNs();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) {
  spans_[index].end_ns = rrs::obs::NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

namespace {

std::string LayerOf(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const uint64_t dur = span.end_ns - span.start_ns;
    self[LayerOf(span.name)] +=
        static_cast<double>(dur - std::min(dur, child_ns[i])) * 1e-9;
  }
  return self;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  if (spans_.empty()) return false;
  // One track: the spans come from one thread and nest properly, so the
  // viewer draws each layer call inside the span that caused it.
  rrs::obs::Tracer::Options options;
  options.events_per_track = spans_.size();
  rrs::obs::Tracer tracer(options);
  rrs::obs::TraceTrack* track = tracer.RegisterTrack("stackbench");
  // The tracer's epoch is its construction; rebase the span clock onto it.
  const uint64_t first = spans_.front().start_ns;
  for (const Span& span : spans_) {
    tracer.Emit(track, span.name, tracer.epoch_ns() + (span.start_ns - first),
                span.end_ns - span.start_ns, span.op);
  }
  return tracer.WriteChromeJson(path);
}

// ---- Clock -----------------------------------------------------------------

// The calling thread is running, so its schedstat can lag by a tick; its own
// CPU clock is exact.
uint64_t CpuSpan::SelfNs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<uint64_t>(now.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(now.tv_nsec);
}

std::map<long, uint64_t> CpuSpan::OtherThreadsNs() {
  std::map<long, uint64_t> times;
  const long self = static_cast<long>(gettid());
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) throw std::runtime_error("cannot list /proc/self/task");
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const long tid = std::strtol(entry->d_name, nullptr, 10);
    if (tid == self) continue;
    // The first schedstat field is the thread's run time in ns, up to date
    // for a thread that is not running. A thread that just exited has none.
    std::ifstream in(std::string("/proc/self/task/") + entry->d_name +
                     "/schedstat");
    uint64_t ns = 0;
    if (in >> ns) times[tid] = ns;
  }
  closedir(dir);
  return times;
}

double CpuSpan::Seconds() const {
  const uint64_t self = SelfNs();
  uint64_t longest = self - self_;
  for (const auto& [tid, ns] : OtherThreadsNs()) {
    const auto it = others_.find(tid);
    const uint64_t before = it == others_.end() ? 0 : it->second;  // new
    longest = std::max(longest, ns - std::min(ns, before));
  }
  return static_cast<double>(longest) * 1e-9;
}

// ---- Statistics ------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// ---- Machine context -------------------------------------------------------

MachineContext::CpuTimes MachineContext::ReadProcStat() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return times;
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already inside user/nice.
  uint64_t fields[8] = {};
  for (uint64_t& field : fields) in >> field;
  for (uint64_t field : fields) times.total += field;
  times.iowait = fields[4];
  times.steal = fields[7];
  return times;
}

MachineContext::MachineContext() : start_(ReadProcStat()) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    affinity_cpus_ = CPU_COUNT(&set);
  }
  // cgroup v2 `cpu.max`: "<quota> <period>" or "max <period>".
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string quota;
  double period = 0;
  if (in >> quota >> period && quota != "max" && period > 0) {
    cgroup_cpus_ = std::stod(quota) / period;
  }
}

bool MachineContext::comparable() const {
  double usable = affinity_cpus_;
  if (cgroup_cpus_ > 0) usable = std::min(usable, cgroup_cpus_);
  return usable >= 3;
}

void MachineContext::Print(uint64_t seed, FILE* out) {
  const CpuTimes end = ReadProcStat();
  const double total = static_cast<double>(end.total - start_.total);
  auto share = [total](uint64_t delta) {
    return total > 0 ? 100.0 * static_cast<double>(delta) / total : 0.0;
  };
  double usable = affinity_cpus_;
  if (cgroup_cpus_ > 0) usable = std::min(usable, cgroup_cpus_);
  std::fprintf(out,
               "context {\"seed\": %llu, \"usable_cpus\": %.2f, "
               "\"affinity_cpus\": %d, \"cgroup_cpu_max\": %.2f, "
               "\"steal_pct\": %.3f, \"iowait_pct\": %.3f, "
               "\"pool_threads\": %zu, \"dist_workers\": %zu, "
               "\"comparable\": %s}\n",
               static_cast<unsigned long long>(seed), usable, affinity_cpus_,
               cgroup_cpus_, share(end.steal - start_.steal),
               share(end.iowait - start_.iowait), kPoolThreads, kDistWorkers,
               comparable() ? "true" : "false");
  if (!comparable()) {
    std::fprintf(out,
                 "context: fewer than 3 usable CPUs; this run is flagged and "
                 "must not be compared\n");
  }
}

double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);  // reaped dist workers
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// ---- Result ----------------------------------------------------------------

void PrintResult(FILE* out, bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::fprintf(out, "%-40s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::fprintf(out, "%-40s %16.6g  %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(out, "metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    json << (i > 0 ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << value << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::fprintf(out, "%s\n", json.str().c_str());
  std::fflush(out);
}

}  // namespace stackbench
