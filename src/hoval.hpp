#pragma once

/// \file hoval.hpp
/// Umbrella header for the hoval library — the Heard-Of model with value
/// faults and the consensus algorithms of:
///
///   Biely, Charron-Bost, Gaillard, Hutle, Schiper, Widder.
///   "Tolerating Corrupted Communication", PODC 2007.
///
/// Module map (see DESIGN.md for the full inventory):
///   model/      HO/SHO sets, traces, messages, the HoProcess interface
///   core/       A_{T,E}, U_{T,E,alpha}, OneThirdRule/UniformVoting,
///               PhaseKing baseline, validated threshold parameters
///   adversary/  transmission-fault injection: corruption, omission,
///               block faults, Byzantine patterns, split/bivalence/lock-in
///               attackers, predicate-enforcing wrappers
///   predicates/ P_alpha, P^{A,live}, P^{U,safe}, P^{U,live}, classical
///               Byzantine encodings, combinators
///   scenario/   declarative ScenarioSpec / SweepSpec documents, the
///               string-keyed component registries and run_scenario()
///   refine/     adaptive sweep refinement: Wilson-interval threshold
///               hunting on the shared Executor (RefinementDriver)
///   sim/        deterministic round simulator, consensus checkers,
///               Monte-Carlo campaigns
///   dispatch/   cross-process sweep sharding: CRC-checked frame codec,
///               EINTR-safe stream helpers, fault-tolerant host
///               dispatcher whose workers are hovald servers
///   service/    hovald campaign-as-a-service daemon: the one framed JSON
///               protocol, fair-share scheduler, spec-hash result cache,
///               poll-loop server and synchronous client
///   runtime/    threaded message-passing substrate with wire-level
///               fault injection and CRC framing
///   stats/      descriptive statistics and histograms
///   util/       contracts, deterministic RNG, tables, CSV, logging,
///               seeded syscall-level fault injection (chaos testing)

#include "adversary/adversary.hpp"
#include "adversary/bivalence.hpp"
#include "adversary/block_fault.hpp"
#include "adversary/byzantine.hpp"
#include "adversary/corruption.hpp"
#include "adversary/lock_in.hpp"
#include "adversary/omission.hpp"
#include "adversary/split_vote.hpp"
#include "adversary/wrappers.hpp"
#include "core/ate.hpp"
#include "core/factories.hpp"
#include "core/last_voting.hpp"
#include "core/params.hpp"
#include "core/phase_king.hpp"
#include "core/utea.hpp"
#include "dispatch/dispatch.hpp"
#include "dispatch/stream.hpp"
#include "dispatch/wire.hpp"
#include "model/message.hpp"
#include "model/process.hpp"
#include "model/process_set.hpp"
#include "model/reception.hpp"
#include "model/trace.hpp"
#include "model/trace_dump.hpp"
#include "model/types.hpp"
#include "predicates/liveness.hpp"
#include "predicates/predicate.hpp"
#include "predicates/safety.hpp"
#include "refine/driver.hpp"
#include "refine/spec.hpp"
#include "runtime/runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "sim/campaign.hpp"
#include "sim/engine.hpp"
#include "sim/executor.hpp"
#include "sim/initial_values.hpp"
#include "sim/machine.hpp"
#include "sim/properties.hpp"
#include "sim/result_json.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_retention.hpp"
#include "sim/workspace.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "stats/interval.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/faults.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
