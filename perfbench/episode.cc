// Episode runner: runs one episode of one workload and prints one JSON object.
//
//   perfbench_episode --workload <overlay_lookup|fl_concurrent_apps|forest_churn>
//                    --seed <n> [--traced]
//
// The episode refuses to run when the build lacks optimisation or when any TOTORO_*
// variable is set (the program must run with its defaults; --traced allows exactly
// TOTORO_PROFILE=1). run.py repeats episodes, takes medians and checks that every
// virtual value repeats across them. Exit code: 0 when every correctness check held,
// 1 when one failed (the JSON still prints), 2 on a usage or environment error.
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/perfbench.h"
#include "src/ml/kernels.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/profiler.h"
#include "src/sim/simulator.h"

extern char** environ;

namespace perfbench {
namespace {

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtod(line.c_str() + key_len + 1, nullptr) / 1024.0;  // kB -> MB.
    }
  }
  return 0.0;
}

double PeakRssMb() { return ProcStatusMb("VmHWM"); }

CounterSnapshot Snapshot(totoro::Network& net) {
  CounterSnapshot s;
  const totoro::NetworkMetrics& m = net.metrics();
  s.msgs = m.total_messages();
  s.bytes = m.total_bytes();
  s.bytes_tcp = m.TotalBytesTcp();
  s.bytes_udp = m.TotalBytesUdp();
  s.dropped = m.dropped_messages();
  s.events = net.sim()->events_fired();
  s.cancelled = net.sim()->events_cancelled();
  if (const totoro::Histogram* hops = totoro::GlobalMetrics().FindHistogram("dht.route.hops")) {
    s.route_hops_count = hops->count();
    s.route_hops_sum = hops->sum();
  }
  return s;
}

// Summed self seconds (wall minus direct children) of every phase called `name`.
double PhaseSelf(const std::string& name) {
  const auto& nodes = totoro::GlobalProfiler().nodes();
  double total = 0.0;
  for (const totoro::Profiler::PhaseNode& node : nodes) {
    if (node.depth == 0 || node.name != name) {
      continue;
    }
    double self = node.stats.wall_seconds;
    for (const auto& [child_name, child] : node.children) {
      (void)child_name;
      self -= nodes[child].stats.wall_seconds;
    }
    total += self;
  }
  return total;
}

// Nearest-rank quantile of an ascending sample, q in [0, 1].
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

double CurrentRssMb() { return ProcStatusMb("VmRSS"); }

int Spans::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = WallSeconds();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Spans::End(int id) {
  spans_[static_cast<size_t>(id)].end_s = WallSeconds();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

double Spans::Wall(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.end_s - s.start_s;
    }
  }
  return total;
}

double Spans::Self(const std::string& name) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) {
      continue;
    }
    double self = spans_[i].end_s - spans_[i].start_s;
    for (const Span& child : spans_) {
      if (child.parent == static_cast<int>(i)) {
        self -= child.end_s - child.start_s;
      }
    }
    total += self;
  }
  return total;
}

void Result::Fail(const std::string& why) {
  correct = false;
  if (failures.size() < 20) {
    failures.push_back(why);
  }
}

double PhaseWall(const std::string& name) {
  double total = 0.0;
  for (const totoro::Profiler::PhaseNode& node : totoro::GlobalProfiler().nodes()) {
    if (node.depth > 0 && node.name == name) {
      total += node.stats.wall_seconds;
    }
  }
  return total;
}

void BeginRunPhase(Result& r, totoro::Network& net) {
  r.run_start = Snapshot(net);
  totoro::GlobalProfiler().Reset();
}

void CaptureRunPhase(Result& r, totoro::Network& net) {
  r.run_end = Snapshot(net);
  const CounterSnapshot& a = r.run_start;
  const CounterSnapshot& b = r.run_end;
  const double events = static_cast<double>(b.events - a.events);
  auto& v = r.virtual_layer;
  v["sim.events"] = events;
  v["sim.events_cancelled"] = static_cast<double>(b.cancelled - a.cancelled);
  v["net.msgs"] = static_cast<double>(b.msgs - a.msgs);
  v["net.bytes"] = static_cast<double>(b.bytes - a.bytes);
  v["net.bytes.tcp"] = static_cast<double>(b.bytes_tcp - a.bytes_tcp);
  v["net.bytes.udp"] = static_cast<double>(b.bytes_udp - a.bytes_udp);
  v["net.msgs_dropped"] = static_cast<double>(b.dropped - a.dropped);
  // Mean hops of messages routed in the run phase; overlay_lookup overrides it with the
  // mean over its checked lookups.
  const uint64_t routed = b.route_hops_count - a.route_hops_count;
  v["dht.hops_per_lookup"] =
      routed > 0 ? (b.route_hops_sum - a.route_hops_sum) / static_cast<double>(routed) : 0.0;

  // Profiler phases (non-zero only in traced episodes). The sim layer's own time is the
  // event loop minus the engine phases nested inside it.
  auto& h = r.host_layer;
  h["dht.build_s"] = r.spans.Self("build");
  const double sim_wall = PhaseWall("sim_run");
  const double sim_self = PhaseSelf("sim_run");
  h["sim.run_s"] = sim_self;
  h["sim.events_per_s"] = sim_wall > 0.0 ? events / sim_wall : 0.0;
  h["sim.ns_per_event"] = events > 0.0 ? sim_self * 1e9 / events : 0.0;
  h["engine.plan_s"] = PhaseSelf("plan");
  h["engine.disseminate_s"] = PhaseSelf("disseminate");
  h["fl.train_s"] = PhaseSelf("train");
  h["fl.aggregate_s"] = PhaseSelf("aggregate");
  h["fl.compute_task_s"] = PhaseSelf("compute_task");
  h["ml.evaluate_s"] = PhaseSelf("evaluate");
  double named = 0.0;
  for (const totoro::Profiler::PhaseNode& node : totoro::GlobalProfiler().nodes()) {
    if (node.depth == 1) {
      named += node.stats.wall_seconds;
    }
  }
  const double run_wall = r.spans.Wall("run");
  h["obs.profile_coverage"] = run_wall > 0.0 ? named / run_wall : 0.0;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMap(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += JsonString(k) + ": " + JsonNumber(v);
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Every TOTORO_* variable in the environment, except TOTORO_PROFILE when `traced`.
std::vector<std::string> StrayKnobs(bool traced) {
  std::vector<std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("TOTORO_", 0) != 0) {
      continue;
    }
    if (traced && entry == "TOTORO_PROFILE=1") {
      continue;
    }
    out.push_back(entry.substr(0, entry.find('=')));
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_episode --workload "
               "<overlay_lookup|fl_concurrent_apps|forest_churn> --seed <n> [--traced]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--traced") {
      traced = true;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || !have_seed) {
    return Usage();
  }

#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to time a build without optimisation\n");
  return 2;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "perfbench: refusing to time a %s build\n", build_type.c_str());
    return 2;
  }
  const std::vector<std::string> stray = StrayKnobs(traced);
  if (!stray.empty()) {
    std::fprintf(stderr, "perfbench: %s is set; the benchmark runs the program's defaults\n",
                 stray.front().c_str());
    return 2;
  }
  if (traced != totoro::GlobalProfiler().enabled()) {
    std::fprintf(stderr, "perfbench: --traced needs TOTORO_PROFILE=1 (and only then)\n");
    return 2;
  }

  Result r;
  if (workload == "overlay_lookup") {
    RunOverlayLookup(seed, r);
  } else if (workload == "fl_concurrent_apps") {
    RunFlConcurrentApps(seed, r);
  } else if (workload == "forest_churn") {
    RunForestChurn(seed, r);
  } else {
    return Usage();
  }

  std::vector<double>& lat = r.latencies_ms;
  std::sort(lat.begin(), lat.end());
  const double completed = static_cast<double>(lat.size());
  if (r.attempted == 0) {
    r.Fail("no op was attempted");
  }
  if (r.attempted != lat.size() + r.failed) {
    r.Fail("attempted != completed + failed");
  }

  // Tail: the highest of p99/p95/p90 with at least ten samples beyond it.
  double tail_pct = 90.0;
  for (double pct : {99.0, 95.0, 90.0}) {
    const double rank = std::ceil(pct / 100.0 * completed);
    if (completed - rank >= 10.0) {
      tail_pct = pct;
      break;
    }
  }
  const double tail_rank = std::ceil(tail_pct / 100.0 * completed);

  std::map<std::string, double> host;
  const double run_s = r.spans.Wall("run");
  host["setup_s"] = r.spans.Wall("setup");
  host["run_s"] = run_s;
  host["ops_per_s"] = run_s > 0.0 ? completed / run_s : 0.0;
  host["peak_rss_mb"] = PeakRssMb();

  std::map<std::string, double> virt;
  virt["op_latency_p50_ms"] = Quantile(lat, 0.5);
  virt["op_latency_tail_ms"] = Quantile(lat, tail_pct / 100.0);
  virt["op_latency_tail_pct"] = tail_pct;
  virt["op_latency_tail_beyond"] = completed - tail_rank;
  virt["ops_completed"] = completed;
  virt["ops_failed_ratio"] =
      r.attempted == 0 ? 0.0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  virt["wire_bytes_per_op"] =
      completed > 0.0 ? static_cast<double>(r.run_end.bytes - r.run_start.bytes) / completed
                      : 0.0;
  if (r.tta_virtual_s >= 0.0) {
    virt["tta_virtual_s"] = r.tta_virtual_s;
  }

  struct utsname uts {};
  uname(&uts);
  std::map<std::string, std::string> env = {
      {"build_type", build_type},
      {"cpu_model", CpuModel()},
      {"kernel", uts.release},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"simd", totoro::SimdLevelName(totoro::ActiveSimdLevel())},
      {"sim_shards", "1"},
      {"compute_threads", "1"},
  };

  std::string spans = "[";
  for (const Spans::Span& s : r.spans.all()) {
    if (spans.size() > 1) {
      spans += ", ";
    }
    spans += "{\"name\": " + JsonString(s.name) + ", \"parent\": " + std::to_string(s.parent) +
             ", \"start_s\": " + JsonNumber(s.start_s) + ", \"end_s\": " + JsonNumber(s.end_s) +
             "}";
  }
  spans += "]";
  std::string failures = "[";
  for (const std::string& f : r.failures) {
    failures += (failures.size() > 1 ? ", " : "") + JsonString(f);
  }
  failures += "]";
  std::string env_json = "{";
  for (const auto& [k, v] : env) {
    env_json += (env_json.size() > 1 ? ", " : "") + JsonString(k) + ": " + JsonString(v);
  }
  env_json += "}";

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, \"correct\": %s, "
      "\"failures\": %s, \"attempted\": %llu, \"failed\": %llu, \"host\": %s, "
      "\"virtual\": %s, \"host_layer\": %s, \"virtual_layer\": %s, \"spans\": %s, "
      "\"env\": %s}\n",
      JsonString(workload).c_str(), static_cast<unsigned long long>(seed),
      traced ? "true" : "false", r.correct ? "true" : "false", failures.c_str(),
      static_cast<unsigned long long>(r.attempted), static_cast<unsigned long long>(r.failed),
      JsonMap(host).c_str(), JsonMap(virt).c_str(), JsonMap(r.host_layer).c_str(),
      JsonMap(r.virtual_layer).c_str(), spans.c_str(), env_json.c_str());
  return r.correct ? 0 : 1;
}
