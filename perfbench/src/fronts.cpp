/// The fronts workload: one client thread runs the same small jobs through
/// every front — local Executor, hovald (in-process service::Server on a
/// Unix socket, cold and cached), run_sweep, dispatch_sweep over nproc
/// forked workers, and RefinementDriver locally and served — in a seeded
/// order per pass, checking that every front returns the local bytes.
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "common.hpp"
#include "decorate.hpp"
#include "dispatch/dispatch.hpp"
#include "refine/driver.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sim/executor.hpp"
#include "sim/result_json.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace service = hoval::service;

/// The 100-run A_{T,E} n=16 corruption job every front runs.
const char* const kJobSpec = R"({
  "description": "perfbench fronts job",
  "algorithm": {"name": "ate", "params": {"n": 16, "alpha": 3}},
  "adversary": [{"name": "corrupt", "params": {"alpha": 3}}],
  "predicates": ["p-alpha"],
  "campaign": {"runs": 100, "rounds": 30, "seed": @SEED@}
})";

/// An omission-threshold sweep refined around the termination collapse.
const char* const kRefineSpec = R"({
  "scenario": {
    "description": "perfbench fronts refine",
    "algorithm": {"name": "ate", "params": {"n": 16, "alpha": 3}},
    "adversary": [{"name": "omit", "params": {"drop_probability": 0.0}}],
    "predicates": ["p-alpha"],
    "campaign": {"runs": 40, "rounds": 20, "seed": @SEED@}
  },
  "axes": [{"path": "adversary.0.params.drop_probability",
            "points": [0.0, 0.25, 0.5, 0.75, 1.0]}],
  "refine": {"max_depth": 3, "max_points": 24, "monitor": "termination"}
})";

constexpr int kSetups = 15;
constexpr int kJobsPerPass = 6;    ///< local + served-cold job pairs
constexpr int kCachedPerPass = 6;  ///< cached 8-point sweep resubmissions
constexpr int kSweepPoints = 32;
constexpr int kCachedSweepPoints = 8;
constexpr int kSweepRuns = 20;       ///< runs per sweep point
constexpr std::size_t kCountedPasses = 2;

/// An attack-probability sweep of the job at `points` points.
std::string sweep_text(int points) {
  std::string values;
  for (int i = 0; i < points; ++i)
    values += (i ? ", " : "") + std::to_string(static_cast<double>(i) / (points - 1));
  std::string job = kJobSpec;
  job.replace(job.find("\"runs\": 100"), 11, "\"runs\": " + std::to_string(kSweepRuns));
  return "{\"scenario\": " + job +
         ", \"axes\": [{\"path\": \"adversary.0.params.attack_probability\", "
         "\"points\": [" + values + "]}]}";
}

/// Executor, in-process daemon on its own thread, one connected client,
/// the resolved job, and the primed cache entry.
struct Fronts {
  std::unique_ptr<hoval::Executor> executor;
  std::unique_ptr<service::Server> server;
  std::thread server_thread;
  std::unique_ptr<service::ServiceClient> client;
  hoval::ResolvedScenario job;
  hoval::SweepSpec cached_sweep;
  std::string cached_bytes;
  std::string socket_path;

  ~Fronts() { reset(); }
  void reset() {
    client.reset();
    if (server) {
      server->stop();
      server_thread.join();
      server.reset();
      ::unlink(socket_path.c_str());
    }
    executor.reset();
  }
};

std::string socket_path(const Options& options) {
  static int counter = 0;
  return options.out_dir + "/hovald-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

void set_up(Fronts& f, const Options& options, Report& report) {
  f.executor = std::make_unique<hoval::Executor>(options.threads);
  service::ServerConfig config;
  f.socket_path = socket_path(options);
  config.address = f.socket_path;
  config.executor_threads = options.threads;
  config.cache_bytes = 1u << 20;
  config.log = [](const std::string&) {};
  f.server = std::make_unique<service::Server>(std::move(config));
  f.server_thread = std::thread([server = f.server.get()] { server->run(); });
  f.client = std::make_unique<service::ServiceClient>(f.server->address());
  f.job = hoval::resolve_scenario(scenario_from(kJobSpec, options.seed));

  // The first (warm-up) run, then prime the cache with the 8-point sweep.
  hoval::CampaignConfig warm = f.job.config;
  warm.runs = 1;
  f.executor->submit(f.job.values, f.job.instance, f.job.adversary, warm).take();
  f.cached_sweep =
      sweep_from(sweep_text(kCachedSweepPoints), hoval::mix_seed(options.seed, 0xCAC));
  hoval::SweepOptions sweep_options;
  sweep_options.executor = f.executor.get();
  f.cached_bytes = hoval::campaign_results_to_json(
                       hoval::run_sweep(f.cached_sweep, sweep_options))
                       .dump();
  const service::JobOutcome primed = f.client->submit_sweep(f.cached_sweep.to_json());
  report.op(primed.ok && primed.result.dump() == f.cached_bytes,
            "priming the cache: " + (primed.ok ? "bytes differ" : primed.error));
}

enum class Front {
  kLocalJob,
  kServedCold,
  kServedCached,
  kSweepLocal,
  kSweepDispatch,
  kSweepServed,
  kRefineLocal,
  kRefineServed,
};

/// Latencies in ms per front, pass wall times and work done.
struct Phase {
  std::vector<std::vector<double>> ms = std::vector<std::vector<double>>(8);
  std::vector<double> pass_s;
  std::vector<double> pass_rate;  ///< per pass: runs executed / pass wall time
  std::vector<double> local_job_s;  ///< traced-phase Executor wall time
  std::vector<double> refine_local_ms_per_gen, refine_served_ms_per_gen, pump_us;
  std::vector<std::size_t> digests;  ///< per pass: hash of every result
  // Exact counts over the first kCountedPasses passes.
  long long workers_spawned = 0, resubmitted = 0;
  long long generations = 0, points = 0, refine_runs = 0, dense_runs = 0;
  service::ServerStats stats_before, stats_counted;

  std::vector<double>& of(Front front) { return ms[static_cast<std::size_t>(front)]; }
  double runs_per_s() const { return median(pass_rate); }
};

/// One pass: every front once (the job pair and the cached resubmission
/// kJobsPerPass / kCachedPerPass times) in an order drawn from the seed.
void run_pass(Fronts& f, const Options& options, std::size_t pass, bool traced,
              Phase& phase, Report& report) {
  std::vector<std::pair<Front, int>> plan;
  for (int k = 0; k < kJobsPerPass; ++k) {
    plan.emplace_back(Front::kLocalJob, k);
    plan.emplace_back(Front::kServedCold, k);
  }
  for (int k = 0; k < kCachedPerPass; ++k) plan.emplace_back(Front::kServedCached, k);
  for (const Front front : {Front::kSweepLocal, Front::kSweepDispatch, Front::kSweepServed,
                            Front::kRefineLocal, Front::kRefineServed})
    plan.emplace_back(front, 0);
  hoval::Rng order(hoval::mix_seed(options.seed, pass, 0x0DE));
  order.shuffle(plan);

  const std::string tag = "pass " + std::to_string(pass) + ": ";
  const bool counted = pass < kCountedPasses;
  const hoval::SweepSpec sweep =
      sweep_from(sweep_text(kSweepPoints), hoval::mix_seed(options.seed, pass, 0x5EE));
  const hoval::SweepSpec refine =
      sweep_from(kRefineSpec, hoval::mix_seed(options.seed, pass, 0x4EF));
  const hoval::Json sweep_json = sweep.to_json();
  const hoval::Json refine_json = refine.to_json();
  auto job_seed = [&](int k) { return hoval::mix_seed(options.seed, pass, 100 + k); };

  std::vector<std::string> local_jobs(kJobsPerPass), served_jobs(kJobsPerPass);
  std::string sweep_bytes[3], refine_bytes[2];
  long long job_runs = 0, sweep_runs = 0, refine_runs = 0;
  int generations = 1;
  double refine_ms[2] = {0, 0};

  auto served = [&](const hoval::Json& spec, bool sweep_kind, const char* span_name,
                    const std::string& what) {
    ScopedSpan span(traced, span_name);
    const service::JobOutcome outcome = sweep_kind ? f.client->submit_sweep(spec)
                                                   : f.client->submit_scenario(spec);
    report.op(outcome.ok && !outcome.cache_hit,
              tag + what + (outcome.ok ? " was a cache hit" : ": " + outcome.error));
    return outcome.result.dump();
  };

  const std::int64_t pass_start = now_ns();
  for (const auto& [front, k] : plan) {
    const std::int64_t start = now_ns();
    switch (front) {
      case Front::kLocalJob: {
        TracedJob traced_job;
        if (traced)
          traced_job = trace_job(f.job, "sim.local_job", pass == 0 && k == 0, counted);
        const hoval::ResolvedScenario& scenario = traced ? traced_job.scenario : f.job;
        hoval::CampaignConfig config = scenario.config;
        config.base_seed = job_seed(k);
        const std::int64_t submitted = now_ns();
        const hoval::CampaignResult result =
            f.executor
                ->submit(scenario.values, scenario.instance, scenario.adversary, config)
                .take();
        phase.local_job_s.push_back(seconds_since(submitted));
        report.op(result.safety_clean(), tag + "local job: " + result.summary());
        job_runs += result.runs;
        local_jobs[static_cast<std::size_t>(k)] =
            hoval::campaign_result_to_json(result).dump();
        break;
      }
      case Front::kServedCold:
        served_jobs[static_cast<std::size_t>(k)] =
            served(scenario_from(kJobSpec, job_seed(k)).to_json(), false,
                   "service.submit_job", "served job");
        break;
      case Front::kServedCached: {
        ScopedSpan span(traced, "service.submit_cached");
        const service::JobOutcome outcome =
            f.client->submit_sweep(f.cached_sweep.to_json());
        report.op(outcome.ok && outcome.cache_hit &&
                      outcome.result.dump() == f.cached_bytes,
                  tag + "cached sweep: " +
                      (outcome.ok ? "miss or differing bytes" : outcome.error));
        break;
      }
      case Front::kSweepLocal: {
        ScopedSpan span(traced, "sim.run_sweep");
        hoval::SweepOptions sweep_options;
        sweep_options.executor = f.executor.get();
        const std::vector<hoval::CampaignResult> results =
            hoval::run_sweep(sweep, sweep_options);
        for (const auto& result : results) sweep_runs += result.runs;
        sweep_bytes[0] = hoval::campaign_results_to_json(results).dump();
        break;
      }
      case Front::kSweepDispatch: {
        // Forks in-process workers: every benchmark thread is idle here
        // (all calls are synchronous), so none holds a lock in the child.
        std::cout.flush();
        ScopedSpan span(traced, "dispatch.sweep");
        hoval::dispatch::DispatchOptions dispatch_options;
        dispatch_options.workers = options.threads;
        dispatch_options.log = [](const std::string&) {};
        const hoval::dispatch::DispatchReport dispatched =
            hoval::dispatch::dispatch_sweep(sweep, dispatch_options);
        report.op(dispatched.complete(), tag + "dispatch: " + dispatched.summary());
        sweep_bytes[1] = hoval::campaign_results_to_json(dispatched.results).dump();
        if (counted) {
          phase.workers_spawned += dispatched.workers_spawned;
          phase.resubmitted += dispatched.resubmitted_points;
        }
        break;
      }
      case Front::kSweepServed:
        sweep_bytes[2] = served(sweep_json, true, "service.submit_sweep", "served sweep");
        break;
      case Front::kRefineLocal: {
        ScopedSpan span(traced, "refine.local");
        hoval::RefinementDriver refiner(refine, *f.executor);
        while (true) {
          bool done = false;
          {
            ScopedSpan pump_span(traced, "refine.pump");
            const std::int64_t pump_start = now_ns();
            done = refiner.pump();
            phase.pump_us.push_back(static_cast<double>(now_ns() - pump_start) / 1e3);
          }
          if (done) break;
          refiner.wait_current();
        }
        const hoval::RefinedSweepResult result = refiner.take();
        generations = std::max(result.generations, 1);
        refine_runs = result.runs_executed;
        refine_bytes[0] = result.to_json().dump();
        if (counted) {
          phase.generations += result.generations;
          phase.points += static_cast<long long>(result.points.size());
          phase.refine_runs += result.runs_executed;
          phase.dense_runs += result.dense_runs_estimate;
        }
        break;
      }
      case Front::kRefineServed:
        refine_bytes[1] =
            served(refine_json, true, "service.submit_refine", "served refine");
        break;
    }
    const double ms = seconds_since(start) * 1e3;
    phase.of(front).push_back(ms);
    if (front == Front::kRefineLocal) refine_ms[0] = ms;
    if (front == Front::kRefineServed) refine_ms[1] = ms;
  }
  phase.pass_s.push_back(seconds_since(pass_start));
  // Served and dispatched work re-executes the same runs.
  phase.pass_rate.push_back(
      static_cast<double>(2 * job_runs + 3 * sweep_runs + 2 * refine_runs) /
      phase.pass_s.back());
  phase.refine_local_ms_per_gen.push_back(refine_ms[0] / generations);
  phase.refine_served_ms_per_gen.push_back(refine_ms[1] / generations);

  // Every front must return the local bytes for the same spec.
  std::string all;
  for (int k = 0; k < kJobsPerPass; ++k) {
    const auto i = static_cast<std::size_t>(k);
    report.op(served_jobs[i] == local_jobs[i],
              tag + "served job " + std::to_string(k) + " differs from local");
    all += local_jobs[i];
  }
  report.op(sweep_bytes[1] == sweep_bytes[0], tag + "dispatched sweep differs from local");
  report.op(sweep_bytes[2] == sweep_bytes[0], tag + "served sweep differs from local");
  report.op(refine_bytes[1] == refine_bytes[0], tag + "served refine differs from local");
  phase.digests.push_back(std::hash<std::string>{}(all + sweep_bytes[0] + refine_bytes[0]));
  if (pass + 1 == kCountedPasses) phase.stats_counted = f.server->stats();
}

Phase run_phase(Fronts& f, const Options& options, double seconds, bool traced,
                Report& report) {
  Phase phase;
  phase.stats_before = f.server->stats();
  const std::int64_t until = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t pass = 0; pass < kCountedPasses || now_ns() < until; ++pass)
    run_pass(f, options, pass, traced, phase, report);
  return phase;
}

void front_metrics(Phase& a, Report& report) {
  auto latency = [&](const char* name, Front front, double q) {
    report.metric(name, quantile(a.of(front), q), "ms", a.of(front).size());
  };
  latency("local_job_p50_ms", Front::kLocalJob, 0.5);
  latency("served_cold_p50_ms", Front::kServedCold, 0.5);
  latency("served_cold_p95_ms", Front::kServedCold, 0.95);
  latency("served_cached_p50_ms", Front::kServedCached, 0.5);
  latency("sweep_local_p50_ms", Front::kSweepLocal, 0.5);
  latency("sweep_dispatch_p50_ms", Front::kSweepDispatch, 0.5);
  latency("sweep_served_p50_ms", Front::kSweepServed, 0.5);
  latency("refine_local_p50_ms", Front::kRefineLocal, 0.5);
  latency("refine_served_p50_ms", Front::kRefineServed, 0.5);
  report.metric("service.overhead_ms",
                median(a.of(Front::kServedCold)) - median(a.of(Front::kLocalJob)), "ms",
                a.of(Front::kServedCold).size());
  report.metric("dispatch.overhead_ms_per_point",
                (median(a.of(Front::kSweepDispatch)) - median(a.of(Front::kSweepLocal))) /
                    kSweepPoints,
                "ms", a.of(Front::kSweepDispatch).size());
  report.metric("refine.local_ms_per_generation", median(a.refine_local_ms_per_gen), "ms",
                a.refine_local_ms_per_gen.size());
  report.metric("refine.served_ms_per_generation", median(a.refine_served_ms_per_gen),
                "ms", a.refine_served_ms_per_gen.size());
  report.metric("refine.pump_us", median(a.pump_us), "us", a.pump_us.size());
}

}  // namespace

void run_fronts_workload(const Options& options, Report& report) {
  std::unique_ptr<Fronts> fronts = std::make_unique<Fronts>();
  const double setup_s = timed_setups(
      options.trace ? 1 : kSetups,
      [&](std::unique_ptr<Fronts>& f) {
        f = std::make_unique<Fronts>();
        set_up(*f, options, report);
      },
      fronts);

  if (!options.trace) {
    Phase phase = run_phase(*fronts, options, options.seconds, false, report);
    report.metric("setup_s", setup_s, "s", kSetups);
    report.metric("runs_per_s", phase.runs_per_s(), "1/s", phase.pass_rate.size());
    report.metric("op_p50_ms", median(phase.pass_s) * 1e3, "ms", phase.pass_s.size());
    front_metrics(phase, report);
    return;
  }

  // Traced run: an untraced phase, then the same passes traced against a
  // fresh daemon (so served jobs are cold again), then the probes.
  Phase plain = run_phase(*fronts, options, options.seconds * 0.4, false, report);
  fronts = std::make_unique<Fronts>();
  set_up(*fronts, options, report);
  Phase traced = run_phase(*fronts, options, options.seconds * 0.4, true, report);
  const Counters counters = Tracer::instance().totals();
  const Ledger ledger = Tracer::instance().ledger();
  const std::size_t compared = std::min(plain.digests.size(), traced.digests.size());
  for (std::size_t pass = 0; pass < compared; ++pass)
    report.op(plain.digests[pass] == traced.digests[pass],
              "traced pass " + std::to_string(pass) + " differs from untraced");

  front_metrics(plain, report);
  layer_metrics(counters, ledger, sum(traced.local_job_s), options.threads,
                fronts->job.context.alpha, report);
  report.metric("trace.overhead_pct",
                100.0 * (1.0 - traced.runs_per_s() / plain.runs_per_s()), "%",
                traced.pass_s.size());
  const service::ServerStats& b = traced.stats_before;
  const service::ServerStats& c = traced.stats_counted;
  report.metric("service.cache_hits", static_cast<double>(c.cache_hits - b.cache_hits),
                "count", 1);
  report.metric("service.cache_misses",
                static_cast<double>(c.cache_misses - b.cache_misses), "count", 1);
  report.metric("service.jobs_shed", static_cast<double>(c.jobs_shed - b.jobs_shed),
                "count", 1);
  report.metric("service.jobs_failed", static_cast<double>(c.jobs_failed - b.jobs_failed),
                "count", 1);
  report.op(c.jobs_shed == b.jobs_shed && c.jobs_failed == b.jobs_failed,
            "daemon shed or failed jobs");
  report.metric("dispatch.workers_spawned", static_cast<double>(traced.workers_spawned),
                "count", kCountedPasses);
  report.metric("dispatch.resubmitted_points", static_cast<double>(traced.resubmitted),
                "count", kCountedPasses);
  report.metric("refine.generations", static_cast<double>(traced.generations), "count",
                kCountedPasses);
  report.metric("refine.points", static_cast<double>(traced.points), "count",
                kCountedPasses);
  report.metric("refine.runs_saved_pct",
                traced.dense_runs > 0
                    ? 100.0 * static_cast<double>(traced.dense_runs - traced.refine_runs) /
                          static_cast<double>(traced.dense_runs)
                    : 0.0,
                "%", kCountedPasses);

  probe_step(fronts->job, options.seed, report);
  probe_delivery(fronts->job, ledger, options.seed, report);
  const hoval::SweepSpec sweep =
      sweep_from(sweep_text(kSweepPoints), hoval::mix_seed(options.seed, 0, 0x5EE));
  hoval::SweepOptions sweep_options;
  sweep_options.executor = fronts->executor.get();
  probe_codecs(scenario_from(kJobSpec, options.seed),
               hoval::campaign_results_to_json(hoval::run_sweep(sweep, sweep_options)),
               report);
}

}  // namespace perfbench
