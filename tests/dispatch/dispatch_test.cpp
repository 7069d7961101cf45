/// Cross-process dispatch: merged results are bit-identical to an
/// in-process run_sweep at any worker count — including under an injected
/// mid-sweep worker kill with resubmission — and worker failures degrade
/// into diagnosed quarantines, never hangs or wrong answers.
///
/// The default workers here are fork()ed children serving their socket
/// with an in-process service::Server (no binary paths to plumb); the exec
/// path is covered by the CI dispatch-smoke and chaos steps, which drive
/// the installed hoval_dispatch and hoval_cli --worker binaries against
/// each other.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "dispatch/dispatch.hpp"
#include "dispatch/wire.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim/result_json.hpp"
#include "util/faults.hpp"

#include <sys/socket.h>
#include <unistd.h>

namespace hoval::dispatch {
namespace {

SweepSpec demo_sweep() {
  SweepSpec sweep;
  sweep.base.algorithm = component("ate", {{"n", 12}, {"alpha", 2}});
  sweep.base.adversaries = {component("corrupt", {{"alpha", 2}}),
                            component("good-rounds", {{"period", 5}})};
  sweep.base.values = component("random", {{"distinct", 3}});
  sweep.base.predicates = {component("p-alpha")};
  sweep.base.campaign.runs = 48;
  sweep.base.campaign.rounds = 35;
  sweep.base.campaign.seed = 0xD15B;
  sweep.axes.push_back(SweepAxis::single("adversary.0.params.alpha",
                                         {Json(0), Json(1), Json(2)}));
  sweep.axes.push_back(
      SweepAxis::single("algorithm.params.n", {Json(12), Json(16)}));
  sweep.reseed_per_point = true;
  return sweep;
}

/// The comparison the CI smoke steps make with cmp(1), in-process: the
/// serialised result arrays must match byte for byte.
std::string rendered(const std::vector<CampaignResult>& results) {
  return campaign_results_to_json(results).dump(2);
}

TEST(Dispatch, MergedResultsBitIdenticalToRunSweepAtAnyWorkerCount) {
  const SweepSpec sweep = demo_sweep();
  const std::string reference = rendered(run_sweep(sweep, SweepOptions{}));
  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    DispatchOptions options;
    options.workers = workers;
    const DispatchReport report = dispatch_sweep(sweep, options);
    EXPECT_TRUE(report.complete());
    EXPECT_TRUE(report.all_safety_clean());
    EXPECT_EQ(report.resubmitted_points, 0);
    EXPECT_EQ(report.workers_spawned, std::min(workers, report.points));
    EXPECT_EQ(rendered(report.results), reference);
  }
}

TEST(Dispatch, WorkerThreadsAreAThroughputKnobNotACorrectnessOne) {
  const SweepSpec sweep = demo_sweep();
  const std::string reference = rendered(run_sweep(sweep, SweepOptions{}));
  DispatchOptions options;
  options.workers = 2;
  options.worker_threads = 3;
  EXPECT_EQ(rendered(dispatch_sweep(sweep, options).results), reference);
}

TEST(Dispatch, InjectedWorkerKillResubmitsAndStaysBitIdentical) {
  const SweepSpec sweep = demo_sweep();
  const std::string reference = rendered(run_sweep(sweep, SweepOptions{}));
  for (const int victim : {0, 1}) {
    SCOPED_TRACE("killed slot " + std::to_string(victim));
    DispatchOptions options;
    options.workers = 2;
    options.test_kill_worker = victim;
    const DispatchReport report = dispatch_sweep(sweep, options);
    EXPECT_TRUE(report.complete());
    // The hook kills the slot right after its first assignment, so that
    // point *must* have travelled through the resubmission path.
    EXPECT_GE(report.resubmitted_points, 1);
    EXPECT_GE(report.workers_failed, 1);
    EXPECT_EQ(rendered(report.results), reference);
  }
}

TEST(Dispatch, SingleWorkerKillRespawnsAndCompletes) {
  const SweepSpec sweep = demo_sweep();
  const std::string reference = rendered(run_sweep(sweep, SweepOptions{}));
  DispatchOptions options;
  options.workers = 1;
  options.test_kill_worker = 0;
  const DispatchReport report = dispatch_sweep(sweep, options);
  EXPECT_TRUE(report.complete());
  EXPECT_GE(report.resubmitted_points, 1);
  EXPECT_EQ(report.workers_spawned, 2);  // the victim + its replacement
  EXPECT_EQ(rendered(report.results), reference);
}

TEST(Dispatch, CrashLoopingWorkersQuarantineEveryPointAndReport) {
  DispatchOptions options;
  options.workers = 2;
  options.worker_argv = {"/bin/false"};  // exits before serving anything
  options.max_point_attempts = 2;
  options.max_respawns = 6;
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  EXPECT_FALSE(report.complete());
  EXPECT_FALSE(report.all_safety_clean());  // an unfinished sweep is not clean
  EXPECT_EQ(report.quarantined.size(), static_cast<std::size_t>(report.points));
  for (const PointFailure& failure : report.quarantined) {
    EXPECT_FALSE(failure.what.empty());
    EXPECT_LE(failure.attempts, options.max_point_attempts);
  }
  for (const bool completed : report.completed) EXPECT_FALSE(completed);
}

TEST(Dispatch, HungWorkerIsKilledOnTimeoutAndQuarantined) {
  DispatchOptions options;
  options.workers = 2;
  options.worker_argv = {"sleep", "30"};  // accepts the frame, never answers
  options.point_timeout_seconds = 0.2;
  options.max_point_attempts = 1;
  options.max_respawns = 0;
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  EXPECT_FALSE(report.complete());
  ASSERT_FALSE(report.quarantined.empty());
  EXPECT_NE(report.quarantined.front().what.find("timed out"),
            std::string::npos)
      << report.quarantined.front().what;
}

TEST(Dispatch, SafetyViolationsSurfaceInTheReport) {
  SweepSpec sweep;
  sweep.base.algorithm = component("ate", {{"n", 9}, {"alpha", 1}});
  sweep.base.adversaries = {component("split", {{"alpha", 1}})};
  sweep.base.values = component("split", {{"lo", 0}, {"hi", 1}});
  sweep.base.campaign.runs = 24;
  sweep.base.campaign.rounds = 40;
  sweep.base.campaign.seed = 7;
  sweep.axes.push_back(
      SweepAxis::single("adversary.0.params.alpha", {Json(1), Json(4)}));

  DispatchOptions options;
  options.workers = 2;
  const DispatchReport report = dispatch_sweep(sweep, options);
  EXPECT_TRUE(report.complete());
  // Point 1 (alpha=4 against a=1's budget) splits the decision; the merged
  // report must say so — this is what hoval_dispatch's exit code keys off.
  EXPECT_FALSE(report.all_safety_clean());
  EXPECT_GT(report.results[1].agreement_violations, 0);
  EXPECT_EQ(rendered(report.results), rendered(run_sweep(sweep, SweepOptions{})));
}

TEST(Dispatch, SummaryCarriesTheResubmissionCount) {
  DispatchOptions options;
  options.workers = 2;
  options.test_kill_worker = 0;
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  EXPECT_NE(report.summary().find("resubmitted_points=1"), std::string::npos)
      << report.summary();
}

TEST(Dispatch, InvalidOptionsAndSweepsFailFast) {
  DispatchOptions bad_workers;
  bad_workers.workers = 0;
  EXPECT_THROW(dispatch_sweep(demo_sweep(), bad_workers), DispatchError);

  // An infeasible point must fail host-side validation before any fork.
  SweepSpec sweep = demo_sweep();
  sweep.axes[0] =
      SweepAxis::single("adversary.0.params.alpha", {Json("not a budget")});
  EXPECT_THROW(dispatch_sweep(sweep, {}), ScenarioError);
}

// --- chaos: the dispatcher under an installed fault plan -------------------

/// Installs the process-wide injector for one test and always clears it.
struct ScopedFaultInjection {
  faults::FaultInjector* injector;
  explicit ScopedFaultInjection(const std::string& plan)
      : injector(faults::install_fault_injector(faults::FaultPlan::parse(plan))) {}
  ~ScopedFaultInjection() { faults::clear_fault_injector(); }
};

TEST(Dispatch, FaultPlanChaosStaysBitIdenticalToTheFaultFreeRun) {
  // The acceptance contract of the chaos layer, in-process: with faults
  // hammering both pipe ends (fork inherits the injector), the dispatcher
  // must still merge the exact fault-free bytes.  Injected corruption is
  // caught by the frame CRC (bad-frame -> worker lost), injected
  // EOF/reset kill workers, and resubmission + respawn absorb all of it.
  const SweepSpec sweep = demo_sweep();
  const std::string reference = rendered(run_sweep(sweep, SweepOptions{}));
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    ScopedFaultInjection chaos(
        std::to_string(seed) +
        ":short=0.2,eintr=0.2,reset=0.005,eof=0.005,corrupt=0.005");
    DispatchOptions options;
    options.workers = 2;
    options.max_point_attempts = 20;
    options.max_respawns = 200;
    options.respawn_backoff_initial_ms = 1;  // keep the test fast
    options.respawn_backoff_max_ms = 8;
    const DispatchReport report = dispatch_sweep(sweep, options);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(rendered(report.results), reference);
    EXPECT_GT(chaos.injector->stats().injected(), 0u);
  }
}

TEST(Dispatch, ExecdWorkersGetTheFaultPlanReseededPerSlot) {
  // An exec'd worker installs HOVAL_FAULT_PLAN itself.  Under one seed
  // every replacement would replay the fault schedule that killed its
  // predecessor, so each slot must get the plan under its own seed.
  const std::string path = testing::TempDir() + "dispatch_fault_plans.txt";
  std::remove(path.c_str());
  ScopedFaultInjection chaos("30:short=0.25,eof=0.005");
  DispatchOptions options;
  options.workers = 1;
  options.worker_argv = {"/bin/sh", "-c",
                         "echo \"$HOVAL_FAULT_PLAN\" >> '" + path + "'"};
  options.max_point_attempts = 3;
  options.max_respawns = 2;
  options.respawn_backoff_initial_ms = 0;
  EXPECT_FALSE(dispatch_sweep(demo_sweep(), options).complete());

  std::ifstream in(path);
  std::vector<faults::FaultPlan> plans;
  for (std::string line; std::getline(in, line);)
    plans.push_back(faults::FaultPlan::parse(line));
  std::remove(path.c_str());
  ASSERT_EQ(plans.size(), 3u);  // the first worker and two respawns
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(plans[i].short_rate, 0.25);
    EXPECT_EQ(plans[i].eof_rate, 0.005);
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(plans[i].seed, plans[j].seed);
  }
}

TEST(Dispatch, WorkerLossEmitsOneStructuredReasonLine) {
  DispatchOptions options;
  options.workers = 1;
  options.worker_argv = {"/bin/false"};
  options.max_point_attempts = 1;
  options.max_respawns = 0;
  std::vector<std::string> lines;
  options.log = [&](const std::string& line) { lines.push_back(line); };
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  EXPECT_FALSE(report.complete());
  bool found = false;
  for (const std::string& line : lines) {
    if (line.rfind("worker-lost ", 0) != 0) continue;
    found = true;
    EXPECT_NE(line.find("slot=0"), std::string::npos) << line;
    EXPECT_NE(line.find("pid="), std::string::npos) << line;
    EXPECT_NE(line.find("reason="), std::string::npos) << line;
    EXPECT_NE(line.find("point="), std::string::npos) << line;
    EXPECT_NE(line.find("detail=\""), std::string::npos) << line;
  }
  EXPECT_TRUE(found) << "no worker-lost line was logged";
}

TEST(Dispatch, CrashLoopRespawnsAreBackedOffNotHotSpun) {
  // Six respawns with a 40ms initial backoff: streaks 2..7 wait
  // 40+80+160+320+320+320 >= ~1.2s.  A hot loop through /bin/false would
  // finish in tens of milliseconds — wall time is the observable.
  DispatchOptions options;
  options.workers = 1;
  options.worker_argv = {"/bin/false"};
  options.max_point_attempts = 8;
  options.max_respawns = 6;
  options.respawn_backoff_initial_ms = 40;
  options.respawn_backoff_max_ms = 320;
  std::vector<std::string> lines;
  options.log = [&](const std::string& line) { lines.push_back(line); };
  const auto start = std::chrono::steady_clock::now();
  const DispatchReport report = dispatch_sweep(demo_sweep(), options);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(report.complete());
  EXPECT_GE(elapsed.count(), 500) << "respawns were not delayed";
  bool backoff_logged = false;
  for (const std::string& line : lines)
    if (line.find("respawn backoff") != std::string::npos) backoff_logged = true;
  EXPECT_TRUE(backoff_logged);
}

// --- a worker: the adopted-connection Server over a socketpair -----------

/// A worker's Server serving one end of a socketpair on its own thread; the
/// test speaks the host's side of the protocol on `host`.
struct ServedWorker {
  int host = -1;
  std::unique_ptr<service::Server> server;
  std::future<void> running;
  FrameDecoder decoder;

  ServedWorker() {
    int sockets[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sockets), 0);
    host = sockets[0];
    server = std::make_unique<service::Server>(worker_server_config(1),
                                               sockets[1]);
    running = std::async(std::launch::async, [this] { server->run(); });
  }
  ~ServedWorker() {
    if (running.valid() &&
        running.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
      server->stop();  // a failed test must not hang the suite
    running = {};
    close_host();
  }
  void close_host() {
    if (host >= 0) ::close(host);
    host = -1;
  }
  void send(const std::string& payload) {
    ASSERT_TRUE(write_frame(host, payload));
  }
  service::ServerMessage reply() {
    const auto frame = read_frame(host, decoder);
    if (!frame) return {};  // surfaces as a default (kHello, version 0)
    return service::parse_server_message(*frame);
  }
  /// run() returned within a bounded deadline.
  bool returned() {
    return running.wait_for(std::chrono::seconds(10)) ==
           std::future_status::ready;
  }
};

TEST(Dispatch, WorkerServerAnswersPointsAndReportsBadOnesAsErrors) {
  const std::vector<ScenarioSpec> points = demo_sweep().expand();
  using Type = service::ServerMessage::Type;
  ServedWorker worker;

  // The host's conversation: hello and the first submit back to back,
  // then one submit per reply.
  worker.send(service::encode_hello());
  worker.send(service::encode_submit(0, false, points[0].to_json(), false));
  const service::ServerMessage hello = worker.reply();
  EXPECT_EQ(hello.type, Type::kHello);
  EXPECT_EQ(hello.version, service::kProtocolVersion);
  const service::ServerMessage result0 = worker.reply();
  ASSERT_EQ(result0.type, Type::kResult);
  EXPECT_EQ(result0.id, 0);

  // A well-formed submit whose scenario cannot be resolved: the worker
  // answers with an error for that id and keeps serving.
  Json bogus = Json::object();
  bogus.set("algorithm", Json::object());
  worker.send(service::encode_submit(1, false, bogus, false));
  const service::ServerMessage error1 = worker.reply();
  EXPECT_EQ(error1.type, Type::kError);
  EXPECT_EQ(error1.id, 1);
  EXPECT_FALSE(error1.what.empty());
  EXPECT_LT(error1.retry_after_ms, 0);  // deterministic, not retryable

  worker.send(service::encode_submit(2, false, points[2].to_json(), false));
  const service::ServerMessage result2 = worker.reply();
  EXPECT_EQ(result2.type, Type::kResult);
  EXPECT_EQ(result2.id, 2);

  worker.close_host();
  EXPECT_TRUE(worker.returned());

  // The served result is the same bytes a direct run produces.
  EXPECT_EQ(result0.result.dump(),
            campaign_result_to_json(run_scenario(points[0])).dump());
}

TEST(Dispatch, WorkerServerEndsOnTruncatedAndGarbageStreams) {
  {
    ServedWorker worker;
    const std::string encoded = encode_frame(service::encode_hello());
    ASSERT_GT(::write(worker.host, encoded.data(), encoded.size() / 2), 0);
    worker.close_host();
    EXPECT_TRUE(worker.returned());  // truncated
  }
  {
    // A frame with a valid CRC whose payload is no protocol message: the
    // worker answers with a connection-level error, then hangs up.
    ServedWorker worker;
    worker.send("this is not a protocol message");
    const service::ServerMessage error = worker.reply();
    EXPECT_EQ(error.type, service::ServerMessage::Type::kError);
    EXPECT_EQ(error.id, -1);
    EXPECT_TRUE(worker.returned());
  }
}

}  // namespace
}  // namespace hoval::dispatch
