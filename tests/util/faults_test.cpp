#include "util/faults.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

namespace hoval::faults {
namespace {

/// A pipe with `payload` preloaded on the read end, so injector reads have
/// real bytes behind them.
struct LoadedPipe {
  int fds[2] = {-1, -1};
  explicit LoadedPipe(const std::string& payload) {
    EXPECT_EQ(::pipe(fds), 0);
    EXPECT_EQ(::write(fds[1], payload.data(), payload.size()),
              static_cast<ssize_t>(payload.size()));
  }
  ~LoadedPipe() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

TEST(FaultPlan, ParsesSeedOnly) {
  const FaultPlan plan = FaultPlan::parse("42");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlan, ParsesFullGrammar) {
  const FaultPlan plan = FaultPlan::parse(
      "7:short=0.25,eintr=0.5,reset=0.02,eof=0.01,corrupt=0.03,stall=0.1,"
      "stall_ms=5,max_faults=40");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.short_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan.eintr_rate, 0.5);
  EXPECT_DOUBLE_EQ(plan.reset_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.eof_rate, 0.01);
  EXPECT_DOUBLE_EQ(plan.corrupt_rate, 0.03);
  EXPECT_DOUBLE_EQ(plan.stall_rate, 0.1);
  EXPECT_EQ(plan.stall_ms, 5);
  EXPECT_EQ(plan.max_faults, 40u);
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlan, ToStringRoundTrips) {
  const FaultPlan plan = FaultPlan::parse("9:short=0.125,reset=1,max_faults=3");
  const FaultPlan replayed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(replayed.seed, plan.seed);
  EXPECT_DOUBLE_EQ(replayed.short_rate, plan.short_rate);
  EXPECT_DOUBLE_EQ(replayed.reset_rate, plan.reset_rate);
  EXPECT_EQ(replayed.max_faults, plan.max_faults);
  EXPECT_EQ(FaultPlan::parse("5").to_string(), "5");
}

TEST(FaultPlan, RejectsGarbage) {
  EXPECT_THROW(FaultPlan::parse(""), FaultError);
  EXPECT_THROW(FaultPlan::parse("abc"), FaultError);
  EXPECT_THROW(FaultPlan::parse("1:bogus=0.5"), FaultError);
  EXPECT_THROW(FaultPlan::parse("1:short"), FaultError);
  EXPECT_THROW(FaultPlan::parse("1:short=1.5"), FaultError);
  EXPECT_THROW(FaultPlan::parse("1:short=-0.1"), FaultError);
  EXPECT_THROW(FaultPlan::parse("1:short=nan"), FaultError);  // NaN-proof
  EXPECT_THROW(FaultPlan::parse("1:short=0.5junk"), FaultError);
  EXPECT_THROW(FaultPlan::parse("1:max_faults=-1"), FaultError);
}

TEST(FaultInjector, SameSeedReplaysTheSameSchedule) {
  FaultPlan plan = FaultPlan::parse("11:short=0.3,eintr=0.3,reset=0.05,eof=0.05");
  FaultInjector a(plan);
  FaultInjector b(plan);
  const std::string payload(64, 'x');
  for (int i = 0; i < 200; ++i) {
    LoadedPipe pa(payload);
    LoadedPipe pb(payload);
    char buf_a[64], buf_b[64];
    errno = 0;
    const ssize_t na = a.read(pa.fds[0], buf_a, sizeof(buf_a));
    const int err_a = errno;
    errno = 0;
    const ssize_t nb = b.read(pb.fds[0], buf_b, sizeof(buf_b));
    const int err_b = errno;
    ASSERT_EQ(na, nb) << "operation " << i;
    if (na < 0) {
      ASSERT_EQ(err_a, err_b) << "operation " << i;
    }
    if (na > 0) {
      ASSERT_EQ(std::memcmp(buf_a, buf_b, static_cast<std::size_t>(na)), 0);
    }
  }
  const FaultStats sa = a.stats();
  const FaultStats sb = b.stats();
  EXPECT_EQ(sa.operations, sb.operations);
  EXPECT_EQ(sa.injected(), sb.injected());
  EXPECT_GT(sa.injected(), 0u) << "schedule never fired at these rates";
}

TEST(FaultInjector, CorruptionFlipsExactlyOneBit) {
  FaultPlan plan = FaultPlan::parse("3:corrupt=1");
  FaultInjector injector(plan);
  const std::string payload = "the quick brown fox";
  LoadedPipe pipe(payload);
  char buffer[64];
  const ssize_t n = injector.read(pipe.fds[0], buffer, sizeof(buffer));
  ASSERT_EQ(n, static_cast<ssize_t>(payload.size()));
  int flipped_bits = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    unsigned char delta = static_cast<unsigned char>(buffer[i]) ^
                          static_cast<unsigned char>(payload[i]);
    while (delta) {
      flipped_bits += delta & 1;
      delta >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(injector.stats().corruptions, 1u);
}

TEST(FaultInjector, InjectsResetAndEofWithoutTouchingTheFd) {
  FaultInjector reset(FaultPlan::parse("1:reset=1"));
  LoadedPipe pipe("payload");
  char buffer[16];
  errno = 0;
  EXPECT_EQ(reset.read(pipe.fds[0], buffer, sizeof(buffer)), -1);
  EXPECT_EQ(errno, ECONNRESET);
  errno = 0;
  EXPECT_EQ(reset.write(pipe.fds[1], "x", 1), -1);
  EXPECT_EQ(errno, EPIPE);

  FaultInjector eof(FaultPlan::parse("1:eof=1"));
  EXPECT_EQ(eof.read(pipe.fds[0], buffer, sizeof(buffer)), 0);
  // The preloaded bytes are still there: the fault never consumed them.
  EXPECT_EQ(::read(pipe.fds[0], buffer, sizeof(buffer)), 7);
}

TEST(FaultInjector, MaxFaultsCapsTheScheduleThenRunsClean) {
  // The deterministic-retry CI plan: exactly one failure, then clean.
  FaultInjector injector(FaultPlan::parse("5:reset=1,max_faults=1"));
  LoadedPipe pipe("ok");
  char buffer[8];
  errno = 0;
  EXPECT_EQ(injector.read(pipe.fds[0], buffer, sizeof(buffer)), -1);
  EXPECT_EQ(errno, ECONNRESET);
  for (int i = 0; i < 5; ++i) {
    LoadedPipe clean("ok");
    EXPECT_EQ(injector.read(clean.fds[0], buffer, sizeof(buffer)), 2);
  }
  EXPECT_EQ(injector.stats().injected(), 1u);
  EXPECT_EQ(injector.stats().operations, 6u);
}

TEST(FaultInjector, ShortReadsClampButDeliverRealBytes) {
  FaultInjector injector(FaultPlan::parse("2:short=1"));
  const std::string payload(32, 'y');
  LoadedPipe pipe(payload);
  char buffer[32];
  const ssize_t n = injector.read(pipe.fds[0], buffer, sizeof(buffer));
  ASSERT_GT(n, 0);
  ASSERT_LT(n, 32);
  EXPECT_EQ(std::string(buffer, static_cast<std::size_t>(n)),
            payload.substr(0, static_cast<std::size_t>(n)));
}

TEST(FaultyStream, RetriesEintrAndCompletesShortWrites) {
  FaultInjector injector(FaultPlan::parse("13:short=0.6,eintr=0.6"));
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  FaultyStream writer(fds[1], injector);
  std::string payload;
  for (int i = 0; i < 500; ++i) payload += static_cast<char>('a' + i % 26);
  ASSERT_TRUE(writer.write_all(payload.data(), payload.size()));
  ::close(fds[1]);

  FaultyStream reader(fds[0], injector);
  std::string received;
  char buffer[64];
  for (;;) {
    const ssize_t n = reader.read(buffer, sizeof(buffer));
    ASSERT_GE(n, 0);
    if (n == 0) break;
    received.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  // Shorts and EINTRs only reorder the syscalls, never the bytes.
  EXPECT_EQ(received, payload);
  EXPECT_GT(injector.stats().injected(), 0u);
}

TEST(GlobalInjector, EnvInstallAndClear) {
  clear_fault_injector();
  ASSERT_EQ(active_fault_injector(), nullptr);

  ::setenv("HOVAL_FAULT_PLAN", "21:eintr=0.5", 1);
  FaultInjector* injector = install_fault_plan_from_env();
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(active_fault_injector(), injector);
  EXPECT_EQ(injector->plan().seed, 21u);

  ::setenv("HOVAL_FAULT_PLAN", "not-a-plan", 1);
  EXPECT_THROW(install_fault_plan_from_env(), FaultError);

  ::unsetenv("HOVAL_FAULT_PLAN");
  clear_fault_injector();
  EXPECT_EQ(install_fault_plan_from_env(), nullptr);
  EXPECT_EQ(active_fault_injector(), nullptr);
}

}  // namespace
}  // namespace hoval::faults
