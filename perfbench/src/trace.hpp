#pragma once
/// \file trace.hpp
/// Span and counter recording for the traced benchmark run.
///
/// Every thread that executes a decorated call owns one ThreadRecord: its
/// spans and counters are written by that thread alone and read by the
/// main thread once the writer has quiesced (after a campaign handle's
/// wait(), or after the pool that owns the thread is destroyed).  Nothing
/// here is on the path of an untraced run: the decorators that feed it
/// are only installed in the traced phase.
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed span.  `name` is a string literal "<layer>.<what>"; the
/// layer is the module whose public call the span times.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t run = 0;     ///< per-run id; 0 outside a simulated run
};

/// Time and work accumulated by the decorated calls.
enum Counter {
  kApplyNs,       ///< Adversary::apply
  kSendNs,        ///< HoProcess::message_for
  kTransitionNs,  ///< HoProcess::transition
  kOnRoundNs,     ///< PredicateStream::on_round
  kFinishNs,      ///< PredicateStream::finish
  kBuildNs,       ///< value / instance / adversary builder callbacks
  // Call counts of the timed calls above, in the same order.
  kApplyCalls,
  kSendCalls,
  kTransitionCalls,
  kOnRoundCalls,
  kFinishCalls,
  kBuildCalls,
  kRunNs,  ///< first builder call to last finish()
  kRuns,
  kRounds,
  kCounterCount
};

/// The call-count counter of a timed call's nanosecond counter.
constexpr Counter calls_of(Counter ns) {
  return static_cast<Counter>(ns + (kApplyCalls - kApplyNs));
}

/// Cost of one steady_clock read, which every timed call adds to its own
/// measurement; subtracted per call by the per-layer metrics.
std::int64_t clock_read_ns();

using Counters = std::array<std::int64_t, kCounterCount>;

/// Fault ledger read off the ground-truth HO/SHO of every recorded round.
struct Ledger {
  std::int64_t runs = 0;
  std::int64_t rounds = 0;
  std::int64_t altered = 0;      ///< Σ |AHO(p,r)| = Σ |HO \ SHO|
  std::int64_t omitted = 0;      ///< Σ (n - |HO(p,r)|)
  std::int64_t max_altered = 0;  ///< max over receiver-rounds of |AHO(p,r)|
  void merge(const Ledger& other);
};

/// Per-job tracing context, shared by the decorated builders of one
/// campaign submission.
struct JobTrace {
  std::uint64_t span = 0;  ///< parent of the job's run spans
  bool detailed = false;   ///< record per-call spans (else counters only)
  bool counted = false;    ///< contributes to the exact-count ledger
};

class ThreadRecord {
 public:
  explicit ThreadRecord(int tid) : tid_(tid) {
    for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  }
  int tid() const noexcept { return tid_; }

  std::uint64_t next_id() noexcept {
    return (static_cast<std::uint64_t>(tid_) + 1) << 40 | ++local_ids_;
  }
  void add(Counter c, std::int64_t v) noexcept {
    counters_[c].store(counters_[c].load(std::memory_order_relaxed) + v,
                       std::memory_order_relaxed);
  }
  std::int64_t counter(Counter c) const noexcept {
    return counters_[c].load(std::memory_order_relaxed);
  }
  void span(const char* name, std::int64_t start, std::int64_t end,
            std::uint64_t parent, std::uint64_t run, std::uint64_t id = 0);

  // --- the simulated run this thread is executing ------------------------
  void begin_run(const JobTrace* job);
  void end_run(std::int64_t end);
  bool run_open() const noexcept { return job_ != nullptr; }
  std::uint64_t run_id() const noexcept { return run_id_; }
  Ledger& run_ledger() noexcept { return run_ledger_; }

  // Read only after this thread has quiesced.
  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<std::int64_t>& run_ns() const noexcept { return run_ns_; }
  std::size_t dropped_spans() const noexcept { return dropped_; }

 private:
  int tid_;
  std::uint64_t local_ids_ = 0;
  std::array<std::atomic<std::int64_t>, kCounterCount> counters_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::vector<std::int64_t> run_ns_;
  const JobTrace* job_ = nullptr;
  std::uint64_t run_id_ = 0;
  std::int64_t run_start_ = 0;
  Ledger run_ledger_;
};

/// Process-wide registry of ThreadRecords plus the counted-job ledger.
class Tracer {
 public:
  static Tracer& instance();
  /// The calling thread's record (registered on first use).
  ThreadRecord& local();
  /// Sum of every thread's counters.
  Counters totals() const;
  /// Every thread's run durations.
  std::vector<std::int64_t> run_durations() const;
  void add_to_ledger(const Ledger& ledger);
  Ledger ledger() const;
  /// All recorded spans, across threads (call once every thread quiesced).
  std::vector<std::pair<int, Span>> spans() const;
  std::size_t dropped_spans() const;

 private:
  mutable std::mutex mutex_;  ///< guards records_ and ledger_
  std::vector<std::unique_ptr<ThreadRecord>> records_;
  Ledger ledger_;
};

/// A span on the calling thread that nests under the innermost open
/// ScopedSpan of the same thread; records nothing when not `enabled`.
class ScopedSpan {
 public:
  ScopedSpan(bool enabled, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::int64_t start_ = 0;
  std::uint64_t id_ = 0;  ///< 0 when disabled
  std::uint64_t parent_ = 0;
};

/// Self time per layer: each span's duration minus the part of its
/// interval that its child spans cover, summed by the name's layer prefix.
struct LayerTime {
  std::string layer;
  std::int64_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<LayerTime> layer_self_times(
    const std::vector<std::pair<int, Span>>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" complete events, one
/// track per thread) with `metadata` as the top-level "otherData" object.
void write_chrome_trace(const std::string& path,
                        const std::vector<std::pair<int, Span>>& spans,
                        const std::map<std::string, std::string>& metadata);

}  // namespace perfbench
