#include "decorate.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace perfbench {

namespace {

using hoval::Msg;
using hoval::ProcessId;
using hoval::Round;

/// Adds one timed call to the calling thread's counters and, for a
/// detailed job, records it as a child span of the open run.
void record_call(const JobTrace* job, Counter counter, const char* name,
                 std::int64_t start) {
  const std::int64_t end = now_ns();
  ThreadRecord& record = Tracer::instance().local();
  record.add(counter, end - start);
  record.add(calls_of(counter), 1);
  if (job->detailed && record.run_open())
    record.span(name, start, end, record.run_id(), record.run_id());
}

template <typename Call>
auto timed(const JobTrace* job, Counter counter, const char* name, Call&& call) {
  const std::int64_t start = now_ns();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    record_call(job, counter, name, start);
  } else {
    auto value = call();
    record_call(job, counter, name, start);
    return value;
  }
}

class TimedProcess final : public hoval::HoProcess {
 public:
  TimedProcess(std::unique_ptr<hoval::HoProcess> inner, const JobTrace* job)
      : HoProcess(inner->id(), inner->universe_size()),
        inner_(std::move(inner)),
        job_(job) {}

  Msg message_for(Round r, ProcessId dest) const override {
    return timed(job_, kSendNs, "core.send",
                 [&] { return inner_->message_for(r, dest); });
  }
  bool broadcasts() const noexcept override { return inner_->broadcasts(); }
  void transition(Round r, const hoval::ReceptionVector& mu) override {
    timed(job_, kTransitionNs, "core.transition",
          [&] { inner_->transition(r, mu); });
    // Mirror the inner decisions so the simulator and the checkers see
    // exactly the decision log the undecorated process would have.
    const auto& log = inner_->decision_log();
    for (; mirrored_ < log.size(); ++mirrored_)
      decide(log[mirrored_].value, log[mirrored_].round);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<hoval::HoProcess> inner_;
  const JobTrace* job_;
  std::size_t mirrored_ = 0;
};

class TimedAdversary final : public hoval::Adversary {
 public:
  TimedAdversary(std::shared_ptr<hoval::Adversary> inner, const JobTrace* job)
      : inner_(std::move(inner)), job_(job) {}
  std::string name() const override { return inner_->name(); }
  void reset(int n, hoval::Rng& rng) override { inner_->reset(n, rng); }
  void apply(const hoval::IntendedRound& intended,
             hoval::DeliveredRound& delivered, hoval::Rng& rng) override {
    timed(job_, kApplyNs, "adversary.apply",
          [&] { inner_->apply(intended, delivered, rng); });
  }

 private:
  std::shared_ptr<hoval::Adversary> inner_;
  const JobTrace* job_;
};

/// The first stream of a run also reads the fault ledger off the round's
/// HO/SHO; the last one closes the run span.
class TimedStream final : public hoval::PredicateStream {
 public:
  TimedStream(std::unique_ptr<hoval::PredicateStream> inner, const JobTrace* job,
              bool first, bool last)
      : inner_(std::move(inner)), job_(job), first_(first), last_(last) {}

  void reset(int n) override { inner_->reset(n); }
  void on_round(const hoval::RoundRecord& round) override {
    timed(job_, kOnRoundNs, "predicates.on_round",
          [&] { inner_->on_round(round); });
    ThreadRecord& record = Tracer::instance().local();
    if (!first_ || !record.run_open()) return;
    Ledger& ledger = record.run_ledger();
    ++ledger.rounds;
    if (!job_->counted) return;
    const auto n = static_cast<std::int64_t>(round.per_process.size());
    for (const hoval::HoRecord& rec : round.per_process) {
      const std::int64_t altered = rec.aho_count();
      ledger.altered += altered;
      ledger.omitted += n - rec.ho.count();
      ledger.max_altered = std::max(ledger.max_altered, altered);
    }
  }
  hoval::PredicateVerdict finish() override {
    hoval::PredicateVerdict verdict = timed(
        job_, kFinishNs, "predicates.finish", [&] { return inner_->finish(); });
    if (last_) Tracer::instance().local().end_run(now_ns());
    return verdict;
  }

 private:
  std::unique_ptr<hoval::PredicateStream> inner_;
  const JobTrace* job_;
  bool first_;
  bool last_;
};

class TimedPredicate final : public hoval::Predicate {
 public:
  TimedPredicate(std::shared_ptr<hoval::Predicate> inner,
                 std::shared_ptr<const JobTrace> job, bool first, bool last)
      : inner_(std::move(inner)), job_(std::move(job)), first_(first), last_(last) {}
  std::string name() const override { return inner_->name(); }
  hoval::PredicateVerdict evaluate(
      const hoval::ComputationTrace& trace) const override {
    hoval::PredicateVerdict verdict = inner_->evaluate(trace);
    if (last_) Tracer::instance().local().end_run(now_ns());
    return verdict;
  }
  std::unique_ptr<hoval::PredicateStream> make_stream() const override {
    std::unique_ptr<hoval::PredicateStream> inner = inner_->make_stream();
    if (!inner) return nullptr;
    return std::make_unique<TimedStream>(std::move(inner), job_.get(), first_,
                                         last_);
  }

 private:
  std::shared_ptr<hoval::Predicate> inner_;
  std::shared_ptr<const JobTrace> job_;
  bool first_;
  bool last_;
};

}  // namespace

hoval::InstanceBuilder decorate_instance(hoval::InstanceBuilder inner,
                                         std::shared_ptr<const JobTrace> job) {
  return [inner = std::move(inner), job = std::move(job)](
             const std::vector<hoval::Value>& initial) {
    hoval::ProcessVector processes = timed(
        job.get(), kBuildNs, "sim.build", [&] { return inner(initial); });
    for (auto& process : processes)
      process = std::make_unique<TimedProcess>(std::move(process), job.get());
    return processes;
  };
}

hoval::AdversaryBuilder decorate_adversary(hoval::AdversaryBuilder inner,
                                           std::shared_ptr<const JobTrace> job) {
  return [inner = std::move(inner), job = std::move(job)]() {
    std::shared_ptr<hoval::Adversary> adversary =
        timed(job.get(), kBuildNs, "sim.build", [&] { return inner(); });
    return std::static_pointer_cast<hoval::Adversary>(
        std::make_shared<TimedAdversary>(std::move(adversary), job.get()));
  };
}

namespace {

/// The resolved scenario with every builder and predicate decorated; the
/// job's runs record into the executing thread's ThreadRecord.
hoval::ResolvedScenario decorate(const hoval::ResolvedScenario& resolved,
                                 std::shared_ptr<const JobTrace> job) {
  hoval::ResolvedScenario decorated = resolved;
  decorated.values = [inner = resolved.values, job](hoval::Rng& rng) {
    // The run closes in the last predicate's finish() (or evaluate()).
    Tracer::instance().local().begin_run(job.get());
    return timed(job.get(), kBuildNs, "sim.build", [&] { return inner(rng); });
  };
  decorated.instance = decorate_instance(resolved.instance, job);
  decorated.adversary = decorate_adversary(resolved.adversary, job);
  auto& predicates = decorated.config.predicates;
  for (std::size_t i = 0; i < predicates.size(); ++i)
    predicates[i] = std::make_shared<TimedPredicate>(
        predicates[i], job, i == 0, i + 1 == predicates.size());
  return decorated;
}

}  // namespace

TracedJob trace_job(const hoval::ResolvedScenario& resolved, const char* span_name,
                    bool detailed, bool counted) {
  TracedJob job;
  auto context = std::make_shared<JobTrace>();
  context->detailed = detailed;
  context->counted = counted;
  if (detailed) {
    job.span = std::make_unique<ScopedSpan>(true, span_name);
    context->span = job.span->id();
  }
  job.scenario = decorate(resolved, std::move(context));
  return job;
}

}  // namespace perfbench
