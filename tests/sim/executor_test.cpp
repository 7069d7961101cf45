/// The acceptance contract of the persistent Executor (sim/executor.hpp):
/// campaigns submitted to a shared pool — at any pool size, under any
/// submission interleaving, overlapped with whole sweeps — are
/// bit-identical to the classic one-campaign CampaignEngine path,
/// CampaignHandle's cancel/ready/wait/result semantics hold from
/// cancel-before-start through cancel-midway to post-completion, and the
/// completion hook fires exactly once per campaign on every finishing path.

#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "adversary/corruption.hpp"
#include "core/factories.hpp"
#include "predicates/liveness.hpp"
#include "predicates/safety.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"
#include "sim/initial_values.hpp"
#include "sim/result_json.hpp"
#include "util/check.hpp"

namespace hoval {
namespace {

ValueGenerator random_of(int n, int distinct) {
  return [n, distinct](Rng& rng) { return random_values(n, distinct, rng); };
}

InstanceBuilder ate_instance(const AteParams& params) {
  return [params](const std::vector<Value>& initial) {
    return make_ate_instance(params, initial);
  };
}

AdversaryBuilder corruption_of(int alpha) {
  return [alpha] {
    RandomCorruptionConfig config;
    config.alpha = alpha;
    return std::make_shared<RandomCorruptionAdversary>(config);
  };
}

CampaignConfig base_config(int runs, std::uint64_t seed) {
  CampaignConfig config;
  config.runs = runs;
  config.sim.max_rounds = 60;
  config.base_seed = seed;
  config.predicates.push_back(std::make_shared<PAlpha>(2));
  config.predicates.push_back(std::make_shared<PBenign>());
  return config;
}

/// Full structural equality, including diagnostic string order, sample
/// order, adaptive intervals and the rendered summary.
void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.runs_requested, b.runs_requested);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.integrity_violations, b.integrity_violations);
  EXPECT_EQ(a.irrevocability_violations, b.irrevocability_violations);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.last_decision_rounds.samples(), b.last_decision_rounds.samples());
  EXPECT_EQ(a.first_decision_rounds.samples(),
            b.first_decision_rounds.samples());
  EXPECT_EQ(a.predicate_holds, b.predicate_holds);
  EXPECT_EQ(a.predicate_names, b.predicate_names);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.stopped_early, b.stopped_early);
  EXPECT_EQ(a.ci_confidence, b.ci_confidence);
  ASSERT_EQ(a.predicate_intervals.size(), b.predicate_intervals.size());
  for (std::size_t i = 0; i < a.predicate_intervals.size(); ++i) {
    EXPECT_EQ(a.predicate_intervals[i].lower, b.predicate_intervals[i].lower);
    EXPECT_EQ(a.predicate_intervals[i].upper, b.predicate_intervals[i].upper);
  }
  EXPECT_EQ(a.summary(), b.summary());
}

// --- submission determinism -------------------------------------------------

TEST(Executor, SubmittedCampaignMatchesEngineAtAnyPoolSize) {
  const auto config = base_config(64, 0xEB61);
  CampaignConfig serial = config;
  serial.threads = 1;
  const CampaignResult reference = CampaignEngine(serial).run(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2));
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("pool threads=" + std::to_string(threads));
    Executor executor(threads);
    EXPECT_EQ(executor.threads(), threads);
    CampaignHandle handle = executor.submit(
        random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), config);
    ASSERT_TRUE(handle.valid());
    handle.wait();
    EXPECT_TRUE(handle.ready());
    expect_identical(handle.result(), reference);
  }
}

TEST(Executor, InterleavedSubmissionsStayBitIdentical) {
  // Two campaign families — one fixed-budget, one adaptive (different
  // wave structure) — interleaved on one pool, three instances each.
  // Interleaving changes only which worker runs what and when; every
  // result must match its isolated engine reference exactly.
  auto adaptive_config = [](std::uint64_t seed) {
    CampaignConfig config = base_config(512, seed);
    config.adaptive.enabled = true;
    config.adaptive.min_runs = 32;
    config.adaptive.ci_epsilon = 0.04;
    config.adaptive.ci_confidence = 0.95;
    return config;
  };
  auto reference_of = [&](const CampaignConfig& config) {
    CampaignConfig serial = config;
    serial.threads = 1;
    return CampaignEngine(serial).run(
        random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2));
  };

  std::vector<CampaignConfig> configs;
  for (int i = 0; i < 3; ++i) {
    configs.push_back(base_config(64, 0xEB61 + i));
    configs.push_back(adaptive_config(0xADA0 + i));
  }

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("pool threads=" + std::to_string(threads));
    Executor executor(threads);
    std::vector<CampaignHandle> handles;
    for (const CampaignConfig& config : configs)
      handles.push_back(executor.submit(
          random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
          corruption_of(2), config));
    for (std::size_t i = 0; i < handles.size(); ++i) {
      SCOPED_TRACE("submission " + std::to_string(i));
      // Fresh reference per comparison: SampleSet's quantile accessors
      // sort the mutable store lazily, so a reference whose summary() ran
      // once would no longer expose run-order samples.
      expect_identical(handles[i].result(), reference_of(configs[i]));
    }
  }
}

// --- whole-sweep scheduling -------------------------------------------------

SweepSpec alpha_sweep() {
  SweepSpec sweep;
  sweep.base.algorithm = component("ate", {{"n", 12}, {"alpha", 2}});
  sweep.base.values = component("random", {{"distinct", 3}});
  sweep.base.adversaries = {component("corrupt", {{"alpha", 2}}),
                            component("good-rounds", {{"period", 5}})};
  sweep.base.predicates = {component("p-alpha")};
  sweep.base.campaign.runs = 256;
  sweep.base.campaign.rounds = 35;
  sweep.base.campaign.seed = 0x5EED;
  // Adaptive sizing makes the points stop at different waves — exactly
  // the uneven-tail shape whole-sweep overlap is meant to exploit.
  sweep.base.campaign.adaptive.enabled = true;
  sweep.base.campaign.adaptive.min_runs = 32;
  sweep.base.campaign.adaptive.ci_epsilon = 0.06;
  sweep.axes.push_back(SweepAxis::single(
      "adversary.0.params.alpha", {Json(0), Json(1), Json(2), Json(3)}));
  sweep.reseed_per_point = true;
  return sweep;
}

TEST(Executor, ParallelSweepSubmissionBitIdenticalToSequentialRunSweep) {
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("pool threads=" + std::to_string(threads));
    // A fresh sequential reference per pool size: expect_identical renders
    // summaries, which lazily sorts the SampleSet stores — a reused
    // reference would no longer expose run-order samples.
    SweepOptions sequential;
    sequential.overlap_points = false;
    const std::vector<CampaignResult> reference =
        run_sweep(alpha_sweep(), sequential);
    ASSERT_EQ(reference.size(), 4u);

    Executor executor(threads);
    SweepOptions parallel;
    parallel.executor = &executor;
    parallel.overlap_points = true;
    const std::vector<CampaignResult> overlapped =
        run_sweep(alpha_sweep(), parallel);
    ASSERT_EQ(overlapped.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      expect_identical(overlapped[i], reference[i]);
    }
  }
}

TEST(Executor, SweepsInterleavedWithForeignCampaignsStayBitIdentical) {
  // A whole sweep and an unrelated campaign share the pool; both must
  // come out exactly as if each had the pool to itself.
  SweepOptions sequential;
  sequential.overlap_points = false;
  const std::vector<CampaignResult> sweep_reference =
      run_sweep(alpha_sweep(), sequential);
  const CampaignResult campaign_reference = CampaignEngine([] {
    auto config = base_config(96, 0xF00D);
    config.threads = 1;
    return config;
  }()).run(random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
           corruption_of(2));

  Executor executor(4);
  CampaignHandle foreign = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(96, 0xF00D));
  SweepOptions shared;
  shared.executor = &executor;
  shared.overlap_points = true;
  const std::vector<CampaignResult> overlapped =
      run_sweep(alpha_sweep(), shared);

  expect_identical(foreign.result(), campaign_reference);
  ASSERT_EQ(overlapped.size(), sweep_reference.size());
  for (std::size_t i = 0; i < sweep_reference.size(); ++i)
    expect_identical(overlapped[i], sweep_reference[i]);
}

// --- handle semantics -------------------------------------------------------

TEST(Executor, CancelBeforeStartYieldsEmptyCancelledResult) {
  // A single worker pool, fully occupied by the first submission (workers
  // drain jobs in submission order), guarantees the second campaign has
  // not started when we cancel it.
  Executor executor(1);
  CampaignHandle busy = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(256, 0xEB61));
  CampaignHandle doomed = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(256, 0xD00D));

  EXPECT_TRUE(doomed.cancel());
  const CampaignResult& cancelled = doomed.result();
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_EQ(cancelled.runs, 0);
  EXPECT_EQ(cancelled.runs_requested, 256);
  EXPECT_EQ(cancelled.predicate_holds, (std::vector<int>{0, 0}));
  EXPECT_FALSE(doomed.cancel());  // nothing left to cancel

  // The occupying campaign is untouched.
  CampaignConfig serial = base_config(256, 0xEB61);
  serial.threads = 1;
  expect_identical(busy.result(),
                   CampaignEngine(serial).run(
                       random_of(9, 3),
                       ate_instance(AteParams::canonical(9, 2)),
                       corruption_of(2)));
}

TEST(Executor, CancelMidwayKeepsTheExecutedPrefix) {
  // The progress callback parks its worker until the main thread has
  // issued the cancel, so the campaign can never race to completion
  // before the cancel lands.
  std::mutex mu;
  std::condition_variable cv;
  bool progress_seen = false;
  bool cancel_issued = false;

  CampaignConfig config = base_config(4096, 0xEB61);
  config.progress_batch = 16;
  config.progress = [&](const CampaignProgress& progress) {
    std::unique_lock<std::mutex> lock(mu);
    progress_seen = true;
    cv.notify_all();
    cv.wait(lock, [&] { return cancel_issued; });
    return progress.completed >= 0;
  };

  Executor executor(2);
  CampaignHandle handle = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), config);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return progress_seen; });
  }
  EXPECT_TRUE(handle.cancel());
  {
    std::lock_guard<std::mutex> lock(mu);
    cancel_issued = true;
  }
  cv.notify_all();

  const CampaignResult& result = handle.result();
  EXPECT_TRUE(result.cancelled);
  EXPECT_GT(result.runs, 0);
  EXPECT_LT(result.runs, 4096);
  EXPECT_EQ(result.runs_requested, 4096);
}

TEST(Executor, ErrorsPropagateThroughHandlesAndPoolSurvives) {
  Executor executor(2);
  const auto throwing_instance = [](const std::vector<Value>&) {
    return ProcessVector{};  // size mismatch trips the run precondition
  };
  CampaignHandle failing = executor.submit(
      random_of(9, 3), throwing_instance, corruption_of(2),
      base_config(32, 0xEB61));
  EXPECT_THROW(failing.result(), PreconditionError);

  // A failed campaign must not poison the pool.
  CampaignHandle good = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(32, 0xEB61));
  EXPECT_FALSE(good.result().cancelled);
  EXPECT_EQ(good.result().runs, 32);
}

TEST(Executor, HandleOutlivesExecutor) {
  CampaignHandle handle;
  {
    Executor executor(2);
    handle = executor.submit(random_of(9, 3),
                             ate_instance(AteParams::canonical(9, 2)),
                             corruption_of(2), base_config(48, 0xEB61));
    // ~Executor drains the submission before joining the pool.
  }
  EXPECT_TRUE(handle.ready());
  EXPECT_EQ(handle.result().runs, 48);
  EXPECT_FALSE(handle.cancel());
}

TEST(Executor, RunCampaignOverloadMatchesOneShotFacade) {
  auto config = base_config(40, 0xEB61);
  const CampaignResult one_shot =
      run_campaign(random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
                   corruption_of(2), config);
  Executor executor(4);
  const CampaignResult shared =
      run_campaign(random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
                   corruption_of(2), config, executor);
  expect_identical(one_shot, shared);
}

TEST(Executor, TakeMovesRetainedTracesWithoutCopying) {
  CampaignConfig config = base_config(12, 0xEB61);
  config.keep_traces = TraceRetention::kAll;
  Executor executor(2);
  CampaignHandle handle = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), config);
  CampaignResult result = handle.take();
  ASSERT_EQ(result.traces.size(), 12u);
  EXPECT_EQ(result.traces.front().run, 0);
  EXPECT_EQ(result.traces.front().trace.universe_size(), 9);
}

TEST(Executor, ValidatesConfigAndThreadsAtSubmit) {
  EXPECT_THROW(Executor(-1), PreconditionError);
  Executor executor(1);
  auto config = base_config(10, 1);
  config.runs = 0;
  EXPECT_THROW(executor.submit(random_of(9, 3),
                               ate_instance(AteParams::canonical(9, 2)),
                               corruption_of(2), config),
               PreconditionError);
  config = base_config(10, 1);
  config.batch_size = -1;
  EXPECT_THROW(executor.submit(random_of(9, 3),
                               ate_instance(AteParams::canonical(9, 2)),
                               corruption_of(2), config),
               PreconditionError);
  EXPECT_THROW(executor.submit(nullptr,
                               ate_instance(AteParams::canonical(9, 2)),
                               corruption_of(2), base_config(10, 1)),
               PreconditionError);
}

// --- completion hook --------------------------------------------------------

/// Records every completion-hook call.  From inside the hook it checks
/// that at least as many watched campaigns are ready() as hooks have
/// fired (each hook follows its campaign's finish), and calls ready() and
/// cancel() on every watched handle — a hook run under a job lock would
/// deadlock right there.  Tests watch a handle before its campaign can
/// finish.  Declared before the Executor it observes, so it outlives the
/// pool drain.
class HookProbe {
 public:
  std::function<void()> hook() {
    return [this] { on_complete(); };
  }

  /// Adds a handle the hook inspects.
  void watch(const CampaignHandle& handle) {
    std::lock_guard<std::mutex> lock(mu_);
    watched_.push_back(handle);
  }

  /// Waits (bounded) until the hook has fired `count` times.
  bool wait_fired(int count) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return fired_ >= count; });
  }

  int fired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fired_;
  }
  bool ready_before_hook() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ready_before_hook_;
  }
  std::thread::id last_thread() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_thread_;
  }

 private:
  void on_complete() {
    std::vector<CampaignHandle> handles;
    int fired = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      handles = watched_;
      fired = fired_;
    }
    int ready = 0;
    for (CampaignHandle& handle : handles) {
      if (!handle.ready()) continue;
      ++ready;
      handle.cancel();  // finished: a no-op that must not deadlock
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (ready < fired + 1) ready_before_hook_ = false;
    ++fired_;
    last_thread_ = std::this_thread::get_id();
    cv_.notify_all();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<CampaignHandle> watched_;
  int fired_ = 0;
  bool ready_before_hook_ = true;
  std::thread::id last_thread_;
};

/// Blocks every run of a campaign at its value draw until open().
class Gate {
 public:
  ValueGenerator guard(ValueGenerator inner) {
    return [this, inner](Rng& rng) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return open_; });
      }
      return inner(rng);
    };
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ExecutorHook, FiresOnceForAFixedBudgetAfterTheHandleIsReady) {
  HookProbe probe;
  Gate gate;
  CampaignResult result;
  {
    Executor executor(2, probe.hook());
    CampaignHandle handle = executor.submit(
        gate.guard(random_of(9, 3)), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), base_config(64, 0xEB61));
    probe.watch(handle);
    gate.open();
    ASSERT_TRUE(probe.wait_fired(1));
    EXPECT_TRUE(handle.ready());
    result = handle.take();
  }
  EXPECT_EQ(result.runs, 64);
  EXPECT_EQ(probe.fired(), 1);  // still once after the pool drained
  EXPECT_TRUE(probe.ready_before_hook());
}

TEST(ExecutorHook, FiresOnceForAnAdaptiveEarlyStop) {
  CampaignConfig config = base_config(4096, 0xADA0);
  config.adaptive.enabled = true;
  config.adaptive.min_runs = 32;
  config.adaptive.ci_epsilon = 0.2;
  config.adaptive.ci_confidence = 0.9;
  HookProbe probe;
  Gate gate;
  CampaignResult result;
  {
    Executor executor(2, probe.hook());
    CampaignHandle handle = executor.submit(
        gate.guard(random_of(9, 3)), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), config);
    probe.watch(handle);
    gate.open();
    ASSERT_TRUE(probe.wait_fired(1));
    result = handle.take();
  }
  EXPECT_TRUE(result.stopped_early);
  EXPECT_LT(result.runs, 4096);
  EXPECT_EQ(probe.fired(), 1);  // one hook, not one per wave
  EXPECT_TRUE(probe.ready_before_hook());
}

TEST(ExecutorHook, CancelBeforeStartFiresOnTheCancellersThread) {
  HookProbe probe;
  Gate gate;
  {
    // The single worker is parked inside `busy`, so `doomed` never starts
    // and the cancel closes it on this thread.
    Executor executor(1, probe.hook());
    CampaignHandle busy = executor.submit(
        gate.guard(random_of(9, 3)), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), base_config(32, 0xEB61));
    CampaignHandle doomed = executor.submit(
        random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), base_config(32, 0xD00D));
    probe.watch(doomed);

    EXPECT_TRUE(doomed.cancel());
    EXPECT_EQ(probe.fired(), 1);  // synchronously, before cancel() returned
    EXPECT_EQ(probe.last_thread(), std::this_thread::get_id());
    EXPECT_TRUE(doomed.result().cancelled);
    EXPECT_EQ(doomed.result().runs, 0);
    EXPECT_FALSE(doomed.cancel());
    EXPECT_EQ(probe.fired(), 1);

    probe.watch(busy);
    gate.open();
    ASSERT_TRUE(probe.wait_fired(2));
    EXPECT_EQ(busy.result().runs, 32);
    EXPECT_NE(probe.last_thread(), std::this_thread::get_id());
  }
  EXPECT_EQ(probe.fired(), 2);
  EXPECT_TRUE(probe.ready_before_hook());
}

TEST(ExecutorHook, FiresOnceWhenCancelledMidway) {
  std::mutex mu;
  std::condition_variable cv;
  bool progress_seen = false;
  bool cancel_issued = false;
  CampaignConfig config = base_config(4096, 0xEB61);
  config.progress_batch = 16;
  config.progress = [&](const CampaignProgress&) {
    std::unique_lock<std::mutex> lock(mu);
    progress_seen = true;
    cv.notify_all();
    cv.wait(lock, [&] { return cancel_issued; });
    return true;
  };

  HookProbe probe;
  {
    Executor executor(2, probe.hook());
    CampaignHandle handle = executor.submit(
        random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), config);
    probe.watch(handle);
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return progress_seen; });
    }
    // A worker is mid-claim, so the cancel cannot close the campaign here;
    // the hook fires from the worker that releases the last claim.
    EXPECT_TRUE(handle.cancel());
    EXPECT_EQ(probe.fired(), 0);
    {
      std::lock_guard<std::mutex> lock(mu);
      cancel_issued = true;
    }
    cv.notify_all();
    ASSERT_TRUE(probe.wait_fired(1));
    EXPECT_TRUE(handle.result().cancelled);
    EXPECT_GT(handle.result().runs, 0);
  }
  EXPECT_EQ(probe.fired(), 1);
  EXPECT_TRUE(probe.ready_before_hook());
}

TEST(ExecutorHook, FiresOnceWhenABuilderFails) {
  HookProbe probe;
  Gate gate;
  {
    Executor executor(2, probe.hook());
    const auto throwing_instance = [](const std::vector<Value>&) {
      return ProcessVector{};  // size mismatch trips the run precondition
    };
    CampaignHandle failing = executor.submit(
        gate.guard(random_of(9, 3)), throwing_instance, corruption_of(2),
        base_config(32, 0xEB61));
    probe.watch(failing);
    gate.open();
    ASSERT_TRUE(probe.wait_fired(1));
    EXPECT_THROW(failing.result(), PreconditionError);
  }
  EXPECT_EQ(probe.fired(), 1);
  EXPECT_TRUE(probe.ready_before_hook());
}

TEST(ExecutorHook, HookedAndPlainExecutorsGiveIdenticalBytes) {
  CampaignConfig adaptive = base_config(512, 0xADA1);
  adaptive.adaptive.enabled = true;
  adaptive.adaptive.min_runs = 32;
  adaptive.adaptive.ci_epsilon = 0.04;
  const std::vector<CampaignConfig> configs = {base_config(96, 0xEB62),
                                               adaptive};
  auto run_all = [&](Executor& executor) {
    std::vector<CampaignHandle> handles;
    for (const CampaignConfig& config : configs)
      handles.push_back(executor.submit(
          random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
          corruption_of(2), config));
    std::vector<CampaignResult> results;
    for (CampaignHandle& handle : handles) results.push_back(handle.take());
    return campaign_results_to_json(results).dump();
  };
  Executor plain(3);
  const std::string reference = run_all(plain);
  std::atomic<int> fired{0};
  std::string hooked_bytes;
  {
    Executor hooked(3, [&fired] { fired.fetch_add(1); });
    hooked_bytes = run_all(hooked);
  }
  EXPECT_EQ(hooked_bytes, reference);
  EXPECT_EQ(fired.load(), 2);
}

// --- sweep-level cancellation ----------------------------------------------

TEST(Executor, SweepProgressVetoCancelsTheWholeSweep) {
  // Cancel the sweep from point 0's very first progress batch: the
  // remaining points must come back cancelled (skipped sequential points
  // with zero runs), not execute to completion.
  SweepSpec sweep = alpha_sweep();
  sweep.base.campaign.adaptive.enabled = false;
  sweep.base.campaign.runs = 4096;

  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlapping points" : "sequential points");
    Executor executor(2);
    SweepOptions options;
    options.executor = &executor;
    options.overlap_points = overlap;
    std::atomic<int> calls{0};
    options.progress = [&](const SweepProgress& progress) {
      calls.fetch_add(1);
      EXPECT_EQ(progress.points, 4);
      EXPECT_EQ(progress.total, 4096);
      return false;  // veto immediately
    };
    const std::vector<CampaignResult> results = run_sweep(sweep, options);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_GE(calls.load(), 1);
    long long executed = 0;
    int cancelled_points = 0;
    for (const CampaignResult& result : results) {
      executed += result.runs;
      cancelled_points += result.cancelled ? 1 : 0;
    }
    // The veto lands in one point's stream; everything else is cancelled
    // long before the sweep's 16384-run budget.
    EXPECT_GE(cancelled_points, 3);
    EXPECT_LT(executed, 4 * 4096);
  }
}

}  // namespace
}  // namespace hoval
