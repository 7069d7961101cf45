#pragma once

/// \file faults.hpp
/// Deterministic fault injection for the byte-stream layer.
///
/// The paper is about algorithms that survive corrupted communication;
/// this module lets the *infrastructure* — dispatcher, worker, daemon,
/// client — be exercised under the same fault model the simulation
/// studies.  A FaultPlan is a seeded schedule of transport faults (short
/// reads/writes, EINTR storms, injected ECONNRESET/EPIPE, premature EOF,
/// read-side byte corruption, millisecond stalls); a FaultInjector draws
/// from that schedule with an Rng (util/rng.hpp), so the same plan string
/// replays the same fault decisions in the same operation order.
///
/// Wiring: the low-level stream helpers (dispatch/stream.cpp) and the
/// daemon's raw non-blocking I/O (service/server.cpp) route every read(2)
/// and write(2) through faults::sys_read / faults::sys_write below.  When
/// no injector is installed those compile down to one relaxed atomic load
/// and a predictable branch before the real syscall — zero-cost-when-off.
/// Corruption is injected on the *read* side only: the local consumer
/// sees flipped bits while the peer's stream is untouched, which models
/// the same wire fault but keeps the blast radius inside one process (and
/// lets tests assert on it deterministically).
///
/// Activation: programmatically via install_fault_injector(), or from the
/// environment via install_fault_plan_from_env() reading
///   HOVAL_FAULT_PLAN=SEED[:key=value,...]
/// with rate keys `short`, `eintr`, `reset`, `eof`, `corrupt`, `stall`
/// (probabilities in [0,1]) plus `stall_ms` (sleep per stall) and
/// `max_faults` (hard cap on injected faults; 0 = unbounded).  Exec'd
/// dispatch workers install their own injector from the host's plan,
/// reseeded per worker slot (dispatch/dispatch.cpp).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

#include <sys/types.h>
#include <unistd.h>

#include "util/rng.hpp"

namespace hoval::faults {

/// Thrown on a malformed fault-plan string (unknown key, bad rate, ...).
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(const std::string& what) : std::runtime_error(what) {}
};

/// A deterministic fault schedule: a seed plus per-kind rates.  Value
/// type; parse() and to_string() round-trip so a CI failure's plan can be
/// replayed locally verbatim.
struct FaultPlan {
  std::uint64_t seed = 0;

  double short_rate = 0;    ///< clamp a read/write to a random prefix
  double eintr_rate = 0;    ///< fail with EINTR before the syscall
  double reset_rate = 0;    ///< fail with ECONNRESET (reads) / EPIPE (writes)
  double eof_rate = 0;      ///< reads return 0 as if the peer closed
  double corrupt_rate = 0;  ///< flip one bit of the bytes a read returned
  double stall_rate = 0;    ///< sleep stall_ms before the syscall

  int stall_ms = 2;             ///< sleep per injected stall
  std::uint64_t max_faults = 0;  ///< total injected faults; 0 = unbounded

  /// True when any fault can ever fire.
  bool active() const noexcept {
    return short_rate > 0 || eintr_rate > 0 || reset_rate > 0 ||
           eof_rate > 0 || corrupt_rate > 0 || stall_rate > 0;
  }

  /// Parses `SEED[:key=value,...]` (the HOVAL_FAULT_PLAN grammar).
  /// \throws FaultError on unknown keys, rates outside [0,1], or garbage.
  static FaultPlan parse(const std::string& text);

  /// Canonical plan string (only non-default keys emitted); parses back
  /// to an equal plan.
  std::string to_string() const;
};

/// Counters of what actually fired — exposed so tests and tools can
/// assert the schedule ran and report `faults: ...` summaries.
struct FaultStats {
  std::uint64_t operations = 0;  ///< intercepted reads + writes
  std::uint64_t shorts = 0;
  std::uint64_t eintrs = 0;
  std::uint64_t resets = 0;
  std::uint64_t eofs = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t stalls = 0;

  std::uint64_t injected() const noexcept {
    return shorts + eintrs + resets + eofs + corruptions + stalls;
  }
};

/// Draws faults from a plan and applies them around real syscalls.  All
/// state sits behind one mutex: the fault *schedule* is deterministic in
/// the sequence of intercepted operations, and when callers are
/// single-threaded (every stream consumer in this repo is, per fd) the
/// whole run replays exactly.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan)
      : plan_(plan), rng_(plan.seed) {}

  /// read(2) with faults: may return -1/EINTR or -1/ECONNRESET without
  /// touching the fd, may return 0 (injected EOF), may clamp the size
  /// (short read), may flip one bit of the bytes read, may stall first.
  ssize_t read(int fd, void* buffer, std::size_t size);

  /// write(2) with faults: may return -1/EINTR or -1/EPIPE without
  /// touching the fd, may clamp the size (short write), may stall first.
  /// Never corrupts — written bytes reach the peer intact or not at all.
  ssize_t write(int fd, const void* data, std::size_t size);

  FaultStats stats() const;
  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  bool budget_left() const noexcept {
    return plan_.max_faults == 0 || stats_.injected() < plan_.max_faults;
  }
  bool draw(double rate);  ///< one Bernoulli trial, gated on budget_left()

  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
  mutable std::mutex mutex_;
};

namespace detail {
/// The process-wide injector the sys_read/sys_write hooks consult.
/// Installed once at startup (tools) or per test (ScopedFaultInjection);
/// plain pointer publication, no ownership in the atomic.
extern std::atomic<FaultInjector*> g_injector;
}  // namespace detail

/// Installs a process-wide injector for `plan`, replacing any previous
/// one.  Returns the injector for stats queries.  Not safe to call while
/// other threads are mid-I/O — install before spawning them.
FaultInjector* install_fault_injector(const FaultPlan& plan);

/// Removes the process-wide injector (subsequent I/O is fault-free).
void clear_fault_injector();

/// The active process-wide injector, or nullptr when faults are off.
inline FaultInjector* active_fault_injector() noexcept {
  return detail::g_injector.load(std::memory_order_acquire);
}

/// Reads HOVAL_FAULT_PLAN and installs an injector when it is set and
/// non-empty.  Returns the injector, or nullptr when the variable is
/// unset.  \throws FaultError on a malformed plan — tools surface that as
/// a startup error instead of silently running fault-free.
FaultInjector* install_fault_plan_from_env();

/// read(2) through the process-wide injector when one is installed.  This
/// is the hook the stream layer calls in place of ::read.
inline ssize_t sys_read(int fd, void* buffer, std::size_t size) {
  if (FaultInjector* injector = active_fault_injector())
    return injector->read(fd, buffer, size);
  return ::read(fd, buffer, size);
}

/// write(2) through the process-wide injector when one is installed.
inline ssize_t sys_write(int fd, const void* data, std::size_t size) {
  if (FaultInjector* injector = active_fault_injector())
    return injector->write(fd, data, size);
  return ::write(fd, data, size);
}

/// An fd bound to its own (non-global) injector: the unit-test handle on
/// the fault machinery, and the shape a future multi-transport stream
/// abstraction would wrap.  Mirrors the dispatch/stream.hpp discipline:
/// read() retries injected/real EINTR, write_all() loops over short
/// writes.
class FaultyStream {
 public:
  FaultyStream(int fd, FaultInjector& injector) noexcept
      : fd_(fd), injector_(&injector) {}

  /// read_some with faults: byte count, 0 at (possibly injected) EOF, or
  /// -1 with errno set on a non-EINTR error.
  ssize_t read(void* buffer, std::size_t size);

  /// write_all with faults: loops over short writes and EINTR; false on
  /// any other error.
  bool write_all(const void* data, std::size_t size);

  int fd() const noexcept { return fd_; }

 private:
  int fd_;
  FaultInjector* injector_;
};

}  // namespace hoval::faults
