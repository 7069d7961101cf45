#pragma once
/// \file common.hpp
/// What the workloads share: run options, the report they fill, sample
/// statistics and the probes that time single layers in isolation.
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "trace.hpp"
#include "util/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;      ///< nproc: pool size, forked workers, connections
  std::string out_dir;  ///< relative directory for sockets and trace files
};

/// One reported metric.  `samples` is how many measurements the value
/// summarises (1 for a single ratio or a count).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Operations attempted and failed, plus the metrics, of one run.
class Report {
 public:
  /// Records one attempted operation; `ok` false counts it as failed.
  void op(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  long attempted() const noexcept { return attempted_; }
  long failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept { return failures_; }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;  ///< first few failure descriptions
  std::vector<Metric> metrics_;
};

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}
double sum(const std::vector<double>& samples);
double seconds_since(std::int64_t start_ns);
double peak_rss_mb();

/// Repeats `setup` `times` times and returns the median wall time in
/// seconds; the object built by the last repetition is kept in `keep`.
template <typename Setup, typename Kept>
double timed_setups(int times, Setup&& setup, Kept& keep) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    keep.reset();
    const std::int64_t start = now_ns();
    setup(keep);
    samples.push_back(seconds_since(start));
  }
  return median(samples);
}

/// Builds a spec from a JSON document template in which every "@SEED@"
/// is replaced by `seed`.
hoval::ScenarioSpec scenario_from(const std::string& text, std::uint64_t seed);
hoval::SweepSpec sweep_from(const std::string& text, std::uint64_t seed);

/// Per-layer probes of the traced run; each adds its metrics to `report`.
/// Codec costs measured on `document` (the workload's own result) and
/// `spec` (the workload's own scenario).
void probe_codecs(const hoval::ScenarioSpec& spec, const hoval::Json& document,
                  Report& report);
/// DeliveredRound calls replayed at the scenario's n with the ledger's
/// mean faults per receiver-round (rounded).
void probe_delivery(const hoval::ResolvedScenario& resolved, const Ledger& ledger,
                    std::uint64_t seed, Report& report);
/// Single-thread Simulator::step() minus the send, apply and transition
/// time inside it.
void probe_step(const hoval::ResolvedScenario& resolved, std::uint64_t seed,
                Report& report);
/// The per-layer metrics read off the tracer's counters and ledger after
/// the traced phase: `wall_s` is the phase's job wall time and `alpha`
/// the scenario's corruption bound.
void layer_metrics(const Counters& counters, const Ledger& ledger,
                   double wall_s, int threads, double alpha, Report& report);

void run_campaign_workload(const Options& options, Report& report);
void run_fronts_workload(const Options& options, Report& report);

}  // namespace perfbench
