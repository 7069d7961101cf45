/// perfbench: the repository benchmark program.
///
///   perfbench --workload campaign-corrupt|campaign-omission|fronts
///             --seed N --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]
///
/// Prints a human-readable report (environment, every metric with its unit
/// and sample count, failures, and for --trace 1 the per-layer self times)
/// and, as the last line, one JSON object
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// holding the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1).  Exits 1 when any check failed, 2 on bad arguments and 3
/// when the build is not a Release build.
#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

using perfbench::Metric;

struct Named {
  const char* name;
  const char* unit;
};

const std::vector<Named> kEndToEnd = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"runs_per_s", "1/s"}, {"op_p50_ms", "ms"}};

const std::vector<Named> kPerLayer = {
    {"sim.run_us_p50", "us"},
    {"sim.rounds_per_run", "count"},
    {"sim.build_us_per_run", "us"},
    {"sim.executor_overhead_pct", "%"},
    {"sim.step_delivery_ns_per_round", "ns"},
    {"adversary.apply_ns_per_round", "ns"},
    {"adversary.altered_per_round", "count"},
    {"adversary.omitted_per_round", "count"},
    {"adversary.alpha_use", "ratio"},
    {"core.send_ns_per_round", "ns"},
    {"core.transition_ns_per_round", "ns"},
    {"model.assign_faithful_ns", "ns"},
    {"model.put_altered_ns", "ns"},
    {"model.omit_ns", "ns"},
    {"model.ground_truth_ns", "ns"},
    {"predicates.on_round_ns_per_round", "ns"},
    {"predicates.finish_ns_per_run", "ns"},
    {"scenario.resolve_us", "us"},
    {"scenario.spec_dump_us", "us"},
    {"util.json_dump_us_per_kb", "us/KB"},
    {"util.json_parse_us_per_kb", "us/KB"},
    {"dispatch.frame_encode_us_per_kb", "us/KB"},
    {"dispatch.frame_decode_us_per_kb", "us/KB"},
    {"dispatch.overhead_ms_per_point", "ms"},
    {"dispatch.workers_spawned", "count"},
    {"dispatch.resubmitted_points", "count"},
    {"service.overhead_ms", "ms"},
    {"service.encode_result_us", "us"},
    {"service.parse_server_message_us", "us"},
    {"service.cache_hits", "count"},
    {"service.cache_misses", "count"},
    {"service.jobs_shed", "count"},
    {"service.jobs_failed", "count"},
    {"refine.generations", "count"},
    {"refine.points", "count"},
    {"refine.runs_saved_pct", "%"},
    {"refine.local_ms_per_generation", "ms"},
    {"refine.served_ms_per_generation", "ms"},
    {"refine.pump_us", "us"},
    {"trace.overhead_pct", "%"},
    {"local_job_p50_ms", "ms"},
    {"served_cold_p50_ms", "ms"},
    {"served_cold_p95_ms", "ms"},
    {"served_cached_p50_ms", "ms"},
    {"sweep_local_p50_ms", "ms"},
    {"sweep_dispatch_p50_ms", "ms"},
    {"sweep_served_p50_ms", "ms"},
    {"refine_local_p50_ms", "ms"},
    {"refine_served_p50_ms", "ms"},
};

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(CPU_COUNT(&set), 1);
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int usage(const std::string& what) {
  std::cerr << "perfbench: " << what
            << "\nusage: perfbench --workload campaign-corrupt|campaign-omission|fronts"
               " --seed N --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.out_dir = ".bench_out";
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") options.workload = value;
      else if (arg == "--seed") options.seed = std::stoull(value);
      else if (arg == "--seconds") options.seconds = std::stod(value);
      else if (arg == "--trace") options.trace = std::stoi(value) != 0;
      else if (arg == "--out-dir") options.out_dir = value;
      else if (arg == "--commit") commit = value;
      else return usage("unknown argument " + arg);
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  const std::set<std::string> workloads = {"campaign-corrupt", "campaign-omission",
                                           "fronts"};
  if (workloads.count(options.workload) == 0)
    return usage("unknown workload '" + options.workload + "'");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

#ifndef NDEBUG
  std::cerr << "perfbench: refusing to report from a build without NDEBUG\n";
  return 3;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to report from a " << PERFBENCH_BUILD_TYPE
              << " build\n";
    return 3;
  }
  options.threads = nproc();
  ::mkdir(options.out_dir.c_str(), 0755);

  const std::map<std::string, std::string> env = {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", number(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"nproc", std::to_string(options.threads)},
      {"hardware_concurrency", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", commit},
      {"clock", "steady_clock wall time"},
  };
  std::cout << "# perfbench";
  for (const auto& [key, value] : env) std::cout << ' ' << key << "=\"" << value << '"';
  std::cout << std::endl;

  perfbench::Report report;
  try {
    if (options.workload == "fronts")
      perfbench::run_fronts_workload(options, report);
    else
      perfbench::run_campaign_workload(options, report);
  } catch (const std::exception& error) {
    report.op(false, std::string("workload aborted: ") + error.what());
  }
  if (!options.trace) report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB", 1);

  // Every metric of this mode, in declaration order; a per-layer metric
  // the workload does not exercise reads 0.
  std::map<std::string, Metric> measured;
  for (const Metric& metric : report.metrics()) measured[metric.name] = metric;
  std::vector<Metric> reported;
  for (const Named& named : options.trace ? kPerLayer : kEndToEnd) {
    auto it = measured.find(named.name);
    Metric metric = it != measured.end() ? it->second : Metric{named.name, 0.0, named.unit, 0};
    if (metric.unit != named.unit || !std::isfinite(metric.value)) {
      report.op(false, "metric " + metric.name + " is " + number(metric.value) + " " +
                           metric.unit + ", expected unit " + named.unit);
      metric.value = 0.0;
    }
    reported.push_back(metric);
  }

  std::printf("%-36s %22s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& metric : report.metrics())
    std::printf("%-36s %22.6f %-6s %zu%s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples,
                metric.samples == 0 ? "  (not exercised by this workload)" : "");
  for (const Metric& metric : reported)
    if (measured.count(metric.name) == 0)
      std::printf("%-36s %22.6f %-6s 0  (not exercised by this workload)\n",
                  metric.name.c_str(), metric.value, metric.unit.c_str());
  const double failed_pct =
      report.attempted() ? 100.0 * report.failed() / report.attempted() : 0.0;
  std::printf("# attempted=%ld failed=%ld failed_pct=%.4f\n", report.attempted(),
              report.failed(), failed_pct);
  for (const std::string& failure : report.failures())
    std::printf("# FAILED: %s\n", failure.c_str());

  if (options.trace) {
    const auto spans = perfbench::Tracer::instance().spans();
    const std::string path = options.out_dir + "/trace-" + options.workload + ".json";
    perfbench::write_chrome_trace(path, spans, env);
    std::printf("# trace: %zu spans (%zu dropped) written to %s\n", spans.size(),
                perfbench::Tracer::instance().dropped_spans(), path.c_str());
    std::printf("# %-12s %10s %14s %14s\n", "layer", "spans", "total_ms", "self_ms");
    for (const auto& layer : perfbench::layer_self_times(spans))
      std::printf("# %-12s %10lld %14.3f %14.3f\n", layer.layer.c_str(),
                  static_cast<long long>(layer.spans), layer.total_ms, layer.self_ms);
  }

  std::string json = "{\"correct\": ";
  json += report.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i)
    json += (i ? ", \"" : "\"") + reported[i].name + "\": {\"value\": " +
            number(reported[i].value) + ", \"unit\": \"" + reported[i].unit + "\"}";
  json += "}}";
  std::cout << json << std::endl;
  return report.failed() == 0 ? 0 : 1;
}
