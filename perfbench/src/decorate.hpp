#pragma once
/// \file decorate.hpp
/// Timing decorators around the public calls of the simulated layers:
/// Adversary::apply, HoProcess::message_for/transition,
/// Predicate::make_stream (on_round/finish) and the three builder
/// callbacks of a resolved scenario.  A decorated scenario produces
/// byte-identical campaign results: every call is forwarded unchanged and
/// the process decorator mirrors the inner process's decision log.
#include <memory>

#include "scenario/run.hpp"
#include "trace.hpp"

namespace perfbench {

/// Decorated instance and adversary builders, for driving a Simulator
/// directly outside any campaign.
hoval::InstanceBuilder decorate_instance(hoval::InstanceBuilder inner,
                                         std::shared_ptr<const JobTrace> job);
hoval::AdversaryBuilder decorate_adversary(hoval::AdversaryBuilder inner,
                                           std::shared_ptr<const JobTrace> job);

/// One traced campaign submission: the decorated scenario and, for a
/// detailed job, the job span its runs nest under.  Only detailed jobs get
/// a span, so every span's children are all recorded and its self time is
/// the time no run was executing.
struct TracedJob {
  std::unique_ptr<ScopedSpan> span;
  hoval::ResolvedScenario scenario;
};
TracedJob trace_job(const hoval::ResolvedScenario& resolved, const char* span_name,
                    bool detailed, bool counted);

}  // namespace perfbench
