#include "dispatch/dispatch.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dispatch/stream.hpp"
#include "dispatch/wire.hpp"
#include "scenario/run.hpp"
#include "service/protocol.hpp"
#include "sim/result_json.hpp"
#include "util/faults.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace hoval::dispatch {

namespace {

using Clock = std::chrono::steady_clock;

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

struct WorkerProc {
  int slot = -1;  ///< spawn sequence number (initial workers: 0..N-1)
  pid_t pid = -1;
  int fd = -1;  ///< host end of the worker's socketpair
  FrameDecoder decoder;
  bool greeted = false;  ///< the worker's hello has arrived
  int current_point = -1;  ///< in-flight point, -1 when idle
  int results_delivered = 0;
  Clock::time_point assigned_at{};
  bool timed_out = false;  ///< host SIGKILLed it for exceeding the timeout
};

/// The whole host: spawn, assign, poll, merge, tolerate.
class Dispatcher {
 public:
  Dispatcher(const SweepSpec& sweep, const DispatchOptions& options)
      : options_(options) {
    if (options_.workers < 1)
      throw DispatchError("workers must be >= 1");
    if (options_.worker_threads < 0)
      throw DispatchError("worker_threads must be >= 0 (0 = all cores)");
    if (options_.max_point_attempts < 1)
      throw DispatchError("max_point_attempts must be >= 1");
    if (options_.max_respawns < 0)
      throw DispatchError("max_respawns must be >= 0");

    // Expand and resolve every point before the first fork, exactly like
    // run_sweep: an infeasible substitution fails loudly up front instead
    // of bouncing off workers until it is quarantined.  Points are
    // expanded one at a time (SweepSpec::expand_point) and re-expanded at
    // assignment, so the host never holds O(points) documents for huge
    // grids — only the sweep itself.
    const std::size_t point_total = sweep.point_count();
    if (point_total == 0) sweep.expand();  // raises the empty-axis error
    for (std::size_t i = 0; i < point_total; ++i)
      resolve_scenario(sweep.expand_point(i));
    sweep_ = sweep;

    const int count = static_cast<int>(point_total);
    report_.points = count;
    report_.workers = options_.workers;
    report_.results.resize(point_total);
    report_.completed.assign(point_total, false);
    attempts_.assign(point_total, 0);
    last_error_.assign(point_total, "");
    for (int i = 0; i < count; ++i) pending_.push_back(i);
  }

  DispatchReport run() {
    const auto start = Clock::now();
    // Writes to dead workers must surface as EPIPE return values, not kill
    // the host.  Exec'd workers inherit the SIG_IGN disposition, which is
    // exactly right — a worker whose host vanished sees a failed write and
    // exits instead of dying mid-campaign with a half-written frame.
    ScopedSigpipeIgnore sigpipe;
    const int initial =
        std::min(options_.workers, std::max(1, report_.points));
    for (int slot = 0; slot < initial; ++slot) spawn();
    while (done_ < report_.points) {
      if (live_.empty() && !ensure_capacity()) {
        quarantine_pending("no workers left (respawn budget exhausted)");
        break;
      }
      poll_once();
    }
    shutdown_workers();
    report_.wall_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return std::move(report_);
  }

 private:
  void log(const std::string& line) const {
    if (options_.log) options_.log(line);
  }

  // --- spawning ------------------------------------------------------------

  /// Starts one worker and hands it its first point.
  void spawn() {
    int sockets[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sockets) != 0)
      throw DispatchError(std::string("socketpair: ") + std::strerror(errno));
    // The host end must not leak into later-spawned siblings.
    set_cloexec(sockets[0]);

    // Everything the child touches is prepared pre-fork: the child of a
    // (possibly multithreaded) host must stick to async-signal-safe calls
    // plus exec.
    //
    // FD_CLOEXEC only applies across exec, so the fork-without-exec child
    // inherits the host ends of every already-live sibling.  If they
    // stayed open, a worker would only see EOF once every later-spawned
    // sibling had exited too (a newest-to-oldest cascade that one wedged
    // worker stalls forever).  Collect them here and close them in the
    // child — ::close is async-signal-safe.
    std::vector<int> sibling_fds;
    sibling_fds.reserve(live_.size());
    for (const auto& other : live_) sibling_fds.push_back(other->fd);
    const std::string threads_env = std::to_string(options_.worker_threads);
    // An exec'd worker installs HOVAL_FAULT_PLAN afresh (a forked one
    // inherits the host's injector mid-stream).  Reseed the plan per slot:
    // with one seed, every replacement would replay the exact fault
    // schedule that killed its predecessor.
    std::string fault_plan;
    if (const faults::FaultInjector* injector = faults::active_fault_injector()) {
      faults::FaultPlan plan = injector->plan();
      plan.seed = mix_seed(plan.seed, static_cast<std::uint64_t>(next_slot_));
      fault_plan = plan.to_string();
    }
    std::vector<std::string> argv_storage = options_.worker_argv;
    std::vector<char*> argv;
    for (std::string& arg : argv_storage) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sockets[0]);
      ::close(sockets[1]);
      throw DispatchError(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      ::close(sockets[0]);
      for (const int fd : sibling_fds) ::close(fd);
      // The worker's end goes on fd 0 (last, so no close above can hit it).
      if (sockets[1] != 0) {
        ::dup2(sockets[1], 0);
        ::close(sockets[1]);
      }
      if (!argv_storage.empty()) {
        ::setenv("HOVAL_WORKER_THREADS", threads_env.c_str(), 1);
        if (!fault_plan.empty())
          ::setenv("HOVAL_FAULT_PLAN", fault_plan.c_str(), 1);
        ::execvp(argv[0], argv.data());
        std::_Exit(127);  // exec failed
      }
      // 4 = the server could not start; the host treats any nonzero code
      // as a dead worker, so the distinction is purely diagnostic.
      int rc = 4;
      try {
        service::Server(worker_server_config(options_.worker_threads), 0)
            .run();
        rc = 0;
      } catch (...) {
      }
      std::_Exit(rc);
    }
    ::close(sockets[1]);

    auto worker = std::make_unique<WorkerProc>();
    worker->slot = next_slot_++;
    worker->pid = pid;
    worker->fd = sockets[0];
    ++report_.workers_spawned;
    log("worker " + std::to_string(worker->slot) + ": spawned (pid " +
        std::to_string(pid) + ")");
    live_.push_back(std::move(worker));
    assign_next(*live_.back(), /*greet=*/true);
  }

  /// Keeps the pool at target size while work remains.  Returns false when
  /// nothing could be (re)spawned and no worker is alive.
  bool ensure_capacity() {
    while (static_cast<int>(live_.size()) < options_.workers &&
           work_remaining() > static_cast<int>(in_flight_count()) &&
           respawns_available()) {
      const auto now = Clock::now();
      if (now < next_spawn_allowed_) {
        // Crash-loop backoff in force.  With live workers the poll loop
        // retries after the deadline (next_timeout_ms folds it in); with
        // none there is nothing to service, so just sleep it out.
        if (!live_.empty()) break;
        std::this_thread::sleep_for(next_spawn_allowed_ - now);
      }
      spawn();
    }
    return !live_.empty();
  }

  bool respawns_available() const {
    return next_slot_ < options_.workers + options_.max_respawns;
  }

  int work_remaining() const { return report_.points - done_; }

  std::size_t in_flight_count() const {
    std::size_t count = 0;
    for (const auto& worker : live_)
      if (worker->current_point >= 0) ++count;
    return count;
  }

  // --- assignment ----------------------------------------------------------

  enum class Assign {
    kAssigned,    ///< a point is now in flight on this worker
    kIdle,        ///< nothing pending; the worker is alive and idle
    kWorkerLost,  ///< the write failed: fail_worker ran, `worker` is freed
  };

  /// Submits the next pending point to `worker`, its id being the point
  /// index; `greet` puts the hello frame in front (a new worker's first
  /// point — the reply hello is checked when it arrives, not awaited).
  /// May fail the worker (a dead child surfaces as a write error), in
  /// which case `worker` has been destroyed and the caller must not touch
  /// it again.
  Assign assign_next(WorkerProc& worker, bool greet = false) {
    if (pending_.empty()) return Assign::kIdle;
    const int point = pending_.front();
    pending_.pop_front();
    ++attempts_[static_cast<std::size_t>(point)];
    worker.current_point = point;
    worker.assigned_at = Clock::now();
    std::string frames = greet ? encode_frame(service::encode_hello()) : "";
    frames += encode_frame(service::encode_submit(
        point, /*sweep=*/false,
        sweep_.expand_point(static_cast<std::size_t>(point)).to_json(),
        /*progress=*/false));
    if (!write_all(worker.fd, frames.data(), frames.size())) {
      fail_worker(worker, Loss::kWriteFailed, "write to worker failed");
      return Assign::kWorkerLost;
    }
    // The test hook fires on the slot's first assignment: the worker is
    // SIGKILLed with this point guaranteed in flight, so the run must
    // exercise resubmission to finish — a deterministic mid-sweep kill.
    if (worker.slot == options_.test_kill_worker && !kill_hook_fired_) {
      kill_hook_fired_ = true;
      log("test hook: SIGKILL worker " + std::to_string(worker.slot));
      ::kill(worker.pid, SIGKILL);
    }
    return Assign::kAssigned;
  }

  // --- failure handling ----------------------------------------------------

  /// How the host observed a worker's loss; refined by the child's exit
  /// status into the structured reason token.
  enum class Loss { kEof, kBadFrame, kWriteFailed, kReadError };

  static const char* loss_name(Loss kind) {
    switch (kind) {
      case Loss::kEof: return "eof";
      case Loss::kBadFrame: return "bad-frame";
      case Loss::kWriteFailed: return "write-failed";
      case Loss::kReadError: return "read-error";
    }
    return "lost";
  }

  /// A worker died (or spoke garbage): reap it, resubmit or quarantine its
  /// in-flight point, arm the crash-loop backoff, refill the pool.
  /// `worker` is destroyed.
  void fail_worker(WorkerProc& worker, Loss kind, const std::string& detail) {
    ::close(worker.fd);
    int status = 0;
    ::waitpid(worker.pid, &status, 0);  // SIGKILLed/EOF'd children exit soon
    const pid_t pid = worker.pid;
    worker.pid = -1;

    // The structured reason: the host's own kill wins (timeout), a frame
    // the host rejected stays bad-frame (the exit status is downstream
    // fallout of closing the socket), and otherwise the child's exit status
    // is more specific than how the loss happened to surface host-side.
    std::string reason = loss_name(kind);
    if (worker.timed_out) {
      reason = "timeout";
    } else if (kind != Loss::kBadFrame) {
      if (WIFSIGNALED(status))
        reason = "signal=" + std::to_string(WTERMSIG(status));
      else if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
        reason = "exit=" + std::to_string(WEXITSTATUS(status));
    }
    std::string what = "worker " + std::to_string(worker.slot) + " lost (" +
                       reason + (detail.empty() ? "" : ": " + detail) + ")";
    if (worker.timed_out)
      what += ", timed out after " +
              format_double(options_.point_timeout_seconds, 1) + "s/attempt";

    const int point = worker.current_point;
    const int slot = worker.slot;
    const bool delivered = worker.results_delivered > 0;
    live_.erase(std::find_if(live_.begin(), live_.end(),
                             [&worker](const auto& w) { return w.get() == &worker; }));
    ++report_.workers_failed;
    {
      std::ostringstream line;
      line << "worker-lost slot=" << slot << " pid=" << pid
           << " reason=" << reason << " point=";
      if (point >= 0)
        line << point << " attempt="
             << attempts_[static_cast<std::size_t>(point)] << "/"
             << options_.max_point_attempts;
      else
        line << "none";
      line << " detail=\"" << detail << "\"";
      log(line.str());
    }

    // Crash-loop accounting: a worker that delivered results before dying
    // restarts the streak at one; back-to-back barren deaths escalate the
    // spawn delay exponentially.
    crash_streak_ = delivered ? 1 : crash_streak_ + 1;
    if (options_.respawn_backoff_initial_ms > 0 && crash_streak_ >= 2) {
      long long delay = options_.respawn_backoff_initial_ms;
      for (int i = 2; i < crash_streak_ &&
                      delay < options_.respawn_backoff_max_ms;
           ++i)
        delay *= 2;
      delay = std::min<long long>(
          delay, std::max(1, options_.respawn_backoff_max_ms));
      next_spawn_allowed_ = Clock::now() + std::chrono::milliseconds(delay);
      log("respawn backoff: " + std::to_string(delay) + "ms (streak " +
          std::to_string(crash_streak_) + ")");
    }

    if (point >= 0) {
      const auto index = static_cast<std::size_t>(point);
      last_error_[index] = what;
      if (attempts_[index] >= options_.max_point_attempts) {
        quarantine(point, what);
      } else {
        pending_.push_front(point);
        ++report_.resubmitted_points;
        log("point " + std::to_string(point) + ": resubmitting (attempt " +
            std::to_string(attempts_[index] + 1) + "/" +
            std::to_string(options_.max_point_attempts) + ")");
      }
    }
    if (work_remaining() > 0 && !ensure_capacity() && live_.empty()) {
      // Nothing alive and nothing spawnable — run() quarantines the rest.
      return;
    }
    // A resubmitted point may need an already-idle worker (everyone else
    // might be deep in a long point).  Pick the candidate before calling
    // assign_next: it can erase from live_ (re-entrant fail_worker) or
    // grow it (respawns), either of which invalidates iterators; the
    // WorkerProc itself is heap-stable, so the pointer survives both.
    if (!pending_.empty()) {
      WorkerProc* idle = nullptr;
      for (const auto& candidate : live_) {
        if (candidate->current_point < 0) {
          idle = candidate.get();
          break;
        }
      }
      if (idle) assign_next(*idle);
    }
  }

  void quarantine(int point, const std::string& what) {
    report_.quarantined.push_back(
        {point, attempts_[static_cast<std::size_t>(point)], what});
    ++done_;
    log("point " + std::to_string(point) + ": quarantined after " +
        std::to_string(attempts_[static_cast<std::size_t>(point)]) +
        " attempt(s): " + what);
  }

  void quarantine_pending(const std::string& why) {
    while (!pending_.empty()) {
      const int point = pending_.front();
      pending_.pop_front();
      const auto index = static_cast<std::size_t>(point);
      quarantine(point, last_error_[index].empty() ? why
                                                   : last_error_[index] +
                                                         "; then " + why);
    }
  }

  // --- the poll loop -------------------------------------------------------

  void poll_once() {
    std::vector<pollfd> fds;
    std::vector<pid_t> pids;
    fds.reserve(live_.size());
    for (const auto& worker : live_) {
      fds.push_back({worker->fd, POLLIN, 0});
      pids.push_back(worker->pid);
    }
    const int timeout_ms = next_timeout_ms();
    const int ready = poll_fds(fds.data(), fds.size(), timeout_ms);
    if (ready < 0)
      throw DispatchError(std::string("poll: ") + std::strerror(errno));
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      // The worker may already be gone (failed while handling a sibling).
      WorkerProc* worker = find_by_pid(pids[i]);
      if (worker) handle_readable(*worker);
    }
    enforce_timeouts();
    // Spawns deferred by the crash-loop backoff happen here once the
    // deadline passes (next_timeout_ms bounded the sleep above).
    ensure_capacity();
  }

  WorkerProc* find_by_pid(pid_t pid) {
    for (const auto& worker : live_)
      if (worker->pid == pid) return worker.get();
    return nullptr;
  }

  /// The in-flight point's deadline, scaled by its attempt number: a
  /// point on attempt k gets k x point_timeout_seconds, so a slow but
  /// legitimate point is not quarantined by k identical timeouts.
  double attempt_deadline_seconds(const WorkerProc& worker) const {
    const int attempt = std::max(
        1, attempts_[static_cast<std::size_t>(worker.current_point)]);
    return options_.point_timeout_seconds * attempt;
  }

  int next_timeout_ms() const {
    double soonest = -1.0;  // seconds until the nearest deadline
    const auto now = Clock::now();
    if (options_.point_timeout_seconds > 0.0) {
      for (const auto& worker : live_) {
        if (worker->current_point < 0) continue;
        const double elapsed =
            std::chrono::duration<double>(now - worker->assigned_at).count();
        const double left = attempt_deadline_seconds(*worker) - elapsed;
        soonest = soonest < 0.0 ? left : std::min(soonest, left);
      }
    }
    if (next_spawn_allowed_ > now &&
        static_cast<int>(live_.size()) < options_.workers &&
        work_remaining() > static_cast<int>(in_flight_count()) &&
        respawns_available()) {
      const double until_spawn =
          std::chrono::duration<double>(next_spawn_allowed_ - now).count();
      soonest = soonest < 0.0 ? until_spawn : std::min(soonest, until_spawn);
    }
    if (soonest < 0.0) return -1;
    return std::max(0, static_cast<int>(soonest * 1000.0) + 1);
  }

  void enforce_timeouts() {
    if (options_.point_timeout_seconds <= 0.0) return;
    const auto now = Clock::now();
    for (const auto& worker : live_) {
      if (worker->current_point < 0 || worker->timed_out) continue;
      const double elapsed =
          std::chrono::duration<double>(now - worker->assigned_at).count();
      if (elapsed >= attempt_deadline_seconds(*worker)) {
        worker->timed_out = true;
        ::kill(worker->pid, SIGKILL);  // EOF lands in the next poll
      }
    }
  }

  void handle_readable(WorkerProc& worker) {
    char buffer[64 * 1024];
    const ssize_t n = read_some(worker.fd, buffer, sizeof(buffer));
    if (n < 0) {
      fail_worker(worker, Loss::kReadError, std::strerror(errno));
      return;
    }
    if (n == 0) {
      fail_worker(worker, Loss::kEof, worker.decoder.pending_bytes() > 0
                                          ? "stream truncated mid-frame"
                                          : "stream closed");
      return;
    }
    worker.decoder.feed(buffer, static_cast<std::size_t>(n));
    try {
      while (const auto frame = worker.decoder.next())
        if (!handle_frame(worker, *frame)) return;  // worker failed
    } catch (const WireError& e) {
      fail_worker(worker, Loss::kBadFrame, e.what());
    }
  }

  /// Returns false when the frame failed the worker (stop touching it).
  bool handle_frame(WorkerProc& worker, const std::string& frame) {
    service::ServerMessage message;
    try {
      message = service::parse_server_message(frame);
    } catch (const service::ServiceError& e) {
      fail_worker(worker, Loss::kBadFrame, e.what());
      return false;
    }
    using Type = service::ServerMessage::Type;
    // The worker's hello comes first.  After it, only a result or a
    // deterministic (not retryable) error for the in-flight point answers
    // it; a connection-level error, a `busy` hint, another hello or a frame
    // for any other point means the worker is unusable.
    const bool expected =
        worker.greeted
            ? worker.current_point >= 0 && message.id == worker.current_point &&
                  (message.type == Type::kResult ||
                   (message.type == Type::kError && message.retry_after_ms < 0))
            : message.type == Type::kHello &&
                  message.version == service::kProtocolVersion;
    if (!expected) {
      fail_worker(worker, Loss::kBadFrame,
                  "protocol violation (unexpected frame, id " +
                      std::to_string(message.id) + ")" +
                      (message.what.empty() ? "" : ": " + message.what));
      return false;
    }
    if (message.type == Type::kHello) {
      worker.greeted = true;
      return true;
    }
    const int point = worker.current_point;
    const auto index = static_cast<std::size_t>(point);
    worker.current_point = -1;

    if (message.type == Type::kError) {
      // Deterministic point failure: retrying it on another worker would
      // fail identically — quarantine now, with the worker's diagnostic.
      quarantine(point, "worker reported: " + message.what);
    } else {
      try {
        report_.results[index] = campaign_result_from_json(message.result);
      } catch (const JsonError& e) {
        worker.current_point = point;  // still this worker's failure
        fail_worker(worker, Loss::kBadFrame,
                    std::string("malformed result document: ") + e.what());
        return false;
      }
      report_.completed[index] = true;
      ++done_;
      ++worker.results_delivered;
      crash_streak_ = 0;  // the fleet is delivering; stand down the backoff
      log("point " + std::to_string(point) + ": merged (worker " +
          std::to_string(worker.slot) + ")");
    }

    // A failed reassignment write means fail_worker already destroyed
    // `worker` — handle_readable must not touch its decoder again.
    return assign_next(worker) != Assign::kWorkerLost;
  }

  // --- teardown ------------------------------------------------------------

  void shutdown_workers() {
    // EOF on its socket is a worker's shutdown signal; every live worker
    // is idle by now (the loop only ends when no point is in flight), so
    // each server's run() returns promptly.
    for (const auto& worker : live_) ::close(worker->fd);
    for (const auto& worker : live_) {
      int status = 0;
      ::waitpid(worker->pid, &status, 0);
    }
    live_.clear();
  }

  DispatchOptions options_;
  SweepSpec sweep_;
  std::deque<int> pending_;
  std::vector<int> attempts_;
  std::vector<std::string> last_error_;
  std::vector<std::unique_ptr<WorkerProc>> live_;
  DispatchReport report_;
  int done_ = 0;  ///< completed + quarantined
  int next_slot_ = 0;
  bool kill_hook_fired_ = false;
  int crash_streak_ = 0;  ///< consecutive worker losses with no result
  Clock::time_point next_spawn_allowed_{};  ///< crash-loop backoff gate
};

}  // namespace

service::ServerConfig worker_server_config(int threads) {
  service::ServerConfig config;
  config.executor_threads = threads;
  config.idle_timeout_ms = 0;
  config.cache_bytes = 0;
  return config;
}

int worker_threads_from_env(int fallback) {
  const char* env = std::getenv("HOVAL_WORKER_THREADS");
  if (!env || *env == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || parsed < 0 || parsed > 4096)
    return fallback;
  return static_cast<int>(parsed);
}

bool DispatchReport::all_safety_clean() const {
  if (!quarantined.empty()) return false;
  for (std::size_t i = 0; i < results.size(); ++i)
    if (completed[i] && !results[i].safety_clean()) return false;
  return true;
}

std::string DispatchReport::summary() const {
  std::ostringstream os;
  os << "dispatch: " << points << " point" << (points == 1 ? "" : "s")
     << " on " << workers << " worker" << (workers == 1 ? "" : "s") << " ("
     << workers_spawned << " spawned, " << workers_failed << " failed), "
     << "resubmitted_points=" << resubmitted_points
     << ", quarantined=" << quarantined.size() << ", wall "
     << format_double(wall_seconds, 2) << "s";
  return os.str();
}

DispatchReport dispatch_sweep(const SweepSpec& sweep,
                              const DispatchOptions& options) {
  return Dispatcher(sweep, options).run();
}

}  // namespace hoval::dispatch
