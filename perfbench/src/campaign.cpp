/// The campaign workloads: back-to-back fixed-size campaigns of one
/// resolved scenario on one Executor of nproc threads, in a closed loop.
///
///   campaign-corrupt   A_{T,E} n=64 alpha=12 under full-alpha random
///                      corruption, p-alpha streamed, 30 rounds, no early stop
///   campaign-omission  A_{T,E} n=16 alpha=3 under omit(0.2) + good-rounds(5),
///                      p-alpha and p-a-live streamed, early stop on decision
#include <algorithm>
#include <memory>
#include <string>

#include "common.hpp"
#include "decorate.hpp"
#include "sim/executor.hpp"
#include "sim/result_json.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

const char* const kCorruptSpec = R"({
  "description": "perfbench campaign-corrupt",
  "algorithm": {"name": "ate", "params": {"n": 64, "alpha": 12}},
  "adversary": [{"name": "corrupt", "params": {"alpha": 12}}],
  "predicates": ["p-alpha"],
  "campaign": {"runs": 64, "rounds": 30, "stop_when_all_decided": false,
               "seed": @SEED@}
})";

const char* const kOmissionSpec = R"({
  "description": "perfbench campaign-omission",
  "algorithm": {"name": "ate", "params": {"n": 16, "alpha": 3}},
  "adversary": [{"name": "omit", "params": {"drop_probability": 0.2}},
                {"name": "good-rounds", "params": {"period": 5}}],
  "predicates": ["p-alpha", "p-a-live"],
  "campaign": {"runs": 512, "rounds": 50, "seed": @SEED@}
})";

constexpr int kSetups = 15;
constexpr int kCountedJobs = 2;   ///< traced jobs feeding the exact counts
constexpr int kDetailedJobs = 1;  ///< traced jobs recording per-call spans
constexpr std::size_t kKeptResults = 32;

struct Pool {
  std::unique_ptr<hoval::Executor> executor;
  hoval::ResolvedScenario resolved;
  void reset() { executor.reset(); }
};

std::uint64_t job_seed(std::uint64_t seed, std::size_t job) {
  return hoval::mix_seed(seed, job, 0x70B);
}

std::string result_bytes(const hoval::CampaignResult& result) {
  return hoval::campaign_result_to_json(result).dump();
}

struct Phase {
  std::vector<double> latency_s;  ///< per campaign
  std::vector<double> rate;       ///< per campaign: runs / latency
  std::vector<std::string> bytes;  ///< results of the first kKeptResults jobs
  double runs_per_s() const { return median(rate); }
};

/// Submits campaign after campaign until `seconds` elapse (and at least
/// `min_jobs` ran), checking every result; `traced` installs the
/// decorators.
Phase run_phase(const Pool& pool, const Options& options, double seconds,
                bool traced, std::size_t min_jobs, Report& report) {
  Phase phase;
  const std::int64_t until = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t job = 0; job < min_jobs || now_ns() < until; ++job) {
    TracedJob traced_job;
    if (traced)
      traced_job = trace_job(pool.resolved, "sim.campaign", job < kDetailedJobs,
                             job < kCountedJobs);
    const hoval::ResolvedScenario& scenario = traced ? traced_job.scenario : pool.resolved;
    hoval::CampaignConfig config = scenario.config;
    config.base_seed = job_seed(options.seed, job);
    const std::int64_t start = now_ns();
    const hoval::CampaignResult result =
        pool.executor
            ->submit(scenario.values, scenario.instance, scenario.adversary, config)
            .take();
    phase.latency_s.push_back(seconds_since(start));
    phase.rate.push_back(result.runs / phase.latency_s.back());
    traced_job.span.reset();
    // Theorem 1: canonical A_{T,E} (E >= n/2 + alpha) never violates
    // agreement or integrity under P_alpha.
    report.op(result.runs == config.runs && result.safety_clean(),
              "campaign " + std::to_string(job) + ": " + result.summary());
    if (job < kKeptResults) phase.bytes.push_back(result_bytes(result));
  }
  return phase;
}

}  // namespace

void run_campaign_workload(const Options& options, Report& report) {
  const bool corrupt = options.workload == "campaign-corrupt";
  const hoval::ScenarioSpec spec =
      scenario_from(corrupt ? kCorruptSpec : kOmissionSpec, options.seed);

  // Set-up: pool spin-up, spec resolution and the first (warm-up) run.
  Pool pool;
  const double setup_s = timed_setups(options.trace ? 1 : kSetups, [&](Pool& p) {
    p.executor = std::make_unique<hoval::Executor>(options.threads);
    p.resolved = hoval::resolve_scenario(spec);
    hoval::CampaignConfig warm = p.resolved.config;
    warm.runs = 1;
    warm.base_seed = job_seed(options.seed, ~std::size_t{0});
    p.executor->submit(p.resolved.values, p.resolved.instance, p.resolved.adversary,
                       warm).take();
  }, pool);

  if (!options.trace) {
    const Phase phase = run_phase(pool, options, options.seconds, false, 1, report);
    // Thread-count invariance: the first campaign again on one thread.
    hoval::Executor serial(1);
    hoval::CampaignConfig config = pool.resolved.config;
    config.base_seed = job_seed(options.seed, 0);
    report.op(result_bytes(serial.submit(pool.resolved.values, pool.resolved.instance,
                                         pool.resolved.adversary, config)
                               .take()) == phase.bytes.front(),
              "campaign 0 differs between " + std::to_string(options.threads) +
                  " threads and 1 thread");
    report.metric("setup_s", setup_s, "s", kSetups);
    report.metric("runs_per_s", phase.runs_per_s(), "1/s", phase.rate.size());
    report.metric("op_p50_ms", median(phase.latency_s) * 1e3, "ms",
                  phase.latency_s.size());
    return;
  }

  // Traced run: an untraced phase, then the same jobs traced (their
  // results must be byte-identical), then the single-layer probes.
  const Phase plain = run_phase(pool, options, options.seconds * 0.4, false, 1, report);
  const Phase traced =
      run_phase(pool, options, options.seconds * 0.4, true, kCountedJobs, report);
  const Counters counters = Tracer::instance().totals();
  const Ledger ledger = Tracer::instance().ledger();
  const std::size_t compared = std::min(plain.bytes.size(), traced.bytes.size());
  for (std::size_t job = 0; job < compared; ++job)
    report.op(plain.bytes[job] == traced.bytes[job],
              "traced campaign " + std::to_string(job) + " differs from untraced");

  layer_metrics(counters, ledger, sum(traced.latency_s), options.threads,
                pool.resolved.context.alpha, report);
  report.metric("trace.overhead_pct",
                100.0 * (1.0 - traced.runs_per_s() / plain.runs_per_s()), "%",
                traced.latency_s.size());
  probe_step(pool.resolved, options.seed, report);
  probe_delivery(pool.resolved, ledger, options.seed, report);
  hoval::ScenarioSpec job_spec = spec;
  job_spec.campaign.seed = job_seed(options.seed, 0);
  probe_codecs(job_spec, hoval::Json::parse(plain.bytes.front()), report);
}

}  // namespace perfbench
