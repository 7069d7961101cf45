#pragma once

/// \file dispatch.hpp
/// Cross-process sweep sharding: the host half of the dispatch protocol.
///
/// dispatch_sweep() resolves a SweepSpec into its point list (the same
/// expand() order as run_sweep), spawns N worker processes, submits one
/// serialised ScenarioSpec point at a time to each worker over a socket,
/// and merges the returned CampaignResult documents host-side in point
/// order.  Every worker is a hovald peer: a service::Server serving its
/// end of a socketpair (worker_server_config()), and the host is its
/// client — hello, then one `submit` per point, answered by `result` or
/// `error` (service/protocol.hpp).  There is no dispatch-specific message
/// layer.  Every point's campaign derives all its
/// randomness from the point's own spec (per-point seeds via
/// SweepSpec::reseed_per_point / swept "campaign.seed" axes, per-run
/// derived_seed inside the campaign), so *placement is irrelevant*: which
/// worker runs a point, in what order, after how many retries — none of it
/// can change the point's result.  The merged results are therefore
/// bit-identical to a single-process run_sweep() of the same spec, at any
/// worker count, which is exactly the guarantee the in-process Executor
/// pool already gives for threads.  (The one reconstruction gap is
/// retained traces, which the result wire format elides — see
/// sim/result_json.hpp; aggregate statistics are always identical.)
///
/// Fault tolerance mirrors the paper's theme of tolerating corrupted
/// communication: a worker is an unreliable link.  A worker that exits,
/// crashes, is killed, or times out mid-point has its in-flight point
/// resubmitted to a surviving worker (and the pool is refilled by
/// respawning, within a budget); a point that keeps killing workers is
/// *quarantined* after max_point_attempts — reported with its diagnostic,
/// never retried forever.  A point whose campaign fails deterministically
/// (the worker answers its submit with an `error` rather than dying) is
/// quarantined immediately.  A worker that answers anything else — a
/// connection-level error, a `busy` hint, a frame for another point, bytes
/// that fail the frame CRC or the protocol parser — is treated as lost.
/// DispatchReport carries the full accounting:
/// resubmissions, worker deaths, respawns, quarantined points.

#include <functional>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "service/server.hpp"
#include "sim/campaign.hpp"

namespace hoval::dispatch {

/// Thrown on host-side setup failures (socket/fork exhaustion, invalid
/// options) — not on worker failures, which the dispatcher tolerates.
class DispatchError : public std::runtime_error {
 public:
  explicit DispatchError(const std::string& what) : std::runtime_error(what) {}
};

struct DispatchOptions {
  /// Worker processes to keep alive while points remain.
  int workers = 1;
  /// Executor threads inside each worker (HOVAL_WORKER_THREADS for exec'd
  /// workers).  Default 1: N processes x 1 thread saturates N cores
  /// without oversubscription; results are bit-identical at any value.
  int worker_threads = 1;
  /// Command to exec as the worker (e.g. {"./hoval_cli", "--worker"});
  /// it gets its end of the socket on fd 0.  Empty: fork a child that
  /// serves the socket in-process — the default for tools that link the
  /// library, and the only mode that needs no binary path plumbing.
  std::vector<std::string> worker_argv;
  /// A point is quarantined after this many attempts end in worker death.
  int max_point_attempts = 3;
  /// Replacement workers spawned after deaths, on top of the initial
  /// `workers`.  Bounds a crash-looping fleet the way max_point_attempts
  /// bounds a crash-looping point.
  int max_respawns = 8;
  /// Exponential respawn backoff: after the second consecutive worker
  /// loss with no result delivered in between, replacement spawns are
  /// delayed initial * 2^(streak-2) ms (capped at max) — a crash-looping
  /// worker binary burns its respawn budget at a bounded rate instead of
  /// hot-spinning through it.  A delivered result resets the streak.
  /// initial <= 0 disables.
  int respawn_backoff_initial_ms = 25;
  int respawn_backoff_max_ms = 1000;
  /// SIGKILL a worker's in-flight point after this long; 0 disables.
  /// The deadline is per *attempt* and scales with the attempt number
  /// (attempt k of a point gets k x this), so a genuinely slow point is
  /// given a longer leash before each retry instead of being quarantined
  /// by identical timeouts.
  double point_timeout_seconds = 0.0;
  /// Test hook (satellite of the worker-kill CI step): SIGKILL the
  /// worker in this slot immediately after its first point assignment —
  /// a deterministic kill with a guaranteed in-flight point, so the run
  /// can only finish by resubmitting it to a survivor.  -1 disables.
  int test_kill_worker = -1;
  /// Progress/diagnostic lines; null discards them.  Every worker loss
  /// emits one structured line:
  ///   worker-lost slot=S pid=P reason=R point=K attempt=A/M detail="..."
  /// where R is `timeout`, `eof`, `bad-frame`, `exit=N`, `signal=N`,
  /// `write-failed`, or `read-error`.
  std::function<void(const std::string&)> log;
};

/// One quarantined point and why it was given up on.
struct PointFailure {
  int point = 0;        ///< index in expand() order
  int attempts = 0;     ///< attempts consumed before quarantine
  std::string what;     ///< last diagnostic (worker death or error reply)
};

/// The merged outcome of a dispatched sweep.
struct DispatchReport {
  /// One result per point, expand() order; quarantined points hold empty
  /// results (completed[i] tells them apart from a genuinely empty one).
  std::vector<CampaignResult> results;
  std::vector<bool> completed;  ///< per point: result delivered by a worker
  int points = 0;
  int workers = 0;          ///< requested pool size
  int workers_spawned = 0;  ///< including respawns
  int workers_failed = 0;   ///< deaths (kills, crashes, timeouts)
  /// In-flight points handed back to the queue after a worker death.
  int resubmitted_points = 0;
  std::vector<PointFailure> quarantined;
  double wall_seconds = 0.0;

  /// Every point completed (nothing quarantined).
  bool complete() const noexcept { return quarantined.empty(); }
  /// No completed point reported a safety violation.  Quarantined points
  /// count as *not* clean — an unfinished sweep must not exit 0.
  bool all_safety_clean() const;
  /// One-line accounting for CLI output ("dispatch: 8 points on 4 workers
  /// (5 spawned, 1 failed), resubmitted_points=1, quarantined=0, ...").
  std::string summary() const;
};

/// The configuration a worker serves its host with: `threads` executor
/// threads, no idle deadline (a worker left idle at the end of a sweep
/// must not be dropped and then reported lost), no result cache (a worker
/// never sees the same spec twice) and no log (a worker never writes to
/// stdout).  A worker is `service::Server(worker_server_config(t), fd)`.
service::ServerConfig worker_server_config(int threads);

/// The worker-process thread count from the HOVAL_WORKER_THREADS
/// environment variable (set by the dispatcher for exec'd workers), or
/// `fallback` when unset/invalid.
int worker_threads_from_env(int fallback = 1);

/// Expands and validates the sweep (every point resolves against the
/// registries before any worker spawns, exactly like run_sweep), then
/// shards the points over worker processes.  \throws DispatchError on
/// invalid options or process-setup failure, ScenarioError on an invalid
/// sweep; worker failures are handled, not thrown.
DispatchReport dispatch_sweep(const SweepSpec& sweep,
                              const DispatchOptions& options);

}  // namespace hoval::dispatch
