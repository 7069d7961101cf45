#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "adversary/adversary.hpp"
#include "decorate.hpp"
#include "dispatch/wire.hpp"
#include "service/protocol.hpp"
#include "sim/simulator.hpp"
#include "sim/workspace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// Keeps timed results observable so no timed call is optimised away.
std::size_t g_sink = 0;

constexpr std::int64_t kProbeBudgetNs = 60'000'000;  // per codec probe

struct Sampled {
  double median = 0.0;
  std::size_t samples = 0;
};

/// Times `call` repeatedly for about kProbeBudgetNs (20 to 20000 calls)
/// and returns the median call time in microseconds.
template <typename Call>
Sampled sample_us(Call&& call) {
  std::vector<double> samples;
  const std::int64_t until = now_ns() + kProbeBudgetNs;
  while (samples.size() < 20 || (samples.size() < 20'000 && now_ns() < until)) {
    const std::int64_t start = now_ns();
    call();
    samples.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  return {median(samples), samples.size()};
}

std::string substitute_seed(std::string text, std::uint64_t seed) {
  const std::string token = "@SEED@";
  for (std::size_t at = text.find(token); at != std::string::npos;
       at = text.find(token, at))
    text.replace(at, token.size(), std::to_string(seed));
  return text;
}

}  // namespace

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double sample : samples) total += sample;
  return total;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // process image before execve (here the launching interpreter).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

hoval::ScenarioSpec scenario_from(const std::string& text, std::uint64_t seed) {
  return hoval::ScenarioSpec::from_json_text(substitute_seed(text, seed));
}

hoval::SweepSpec sweep_from(const std::string& text, std::uint64_t seed) {
  return hoval::SweepSpec::from_json_text(substitute_seed(text, seed));
}

void probe_codecs(const hoval::ScenarioSpec& spec, const hoval::Json& document,
                  Report& report) {
  namespace wire = hoval::dispatch;
  namespace service = hoval::service;
  const std::string text = document.dump();
  const std::string payload = wire::encode_result_message(0, document);
  const std::string frame = wire::encode_frame(payload);
  const std::string envelope = service::encode_result_text(1, false, text);
  const double text_kb = static_cast<double>(text.size()) / 1024.0;
  const double payload_kb = static_cast<double>(payload.size()) / 1024.0;

  Sampled s = sample_us([&] { g_sink += hoval::resolve_scenario(spec).context.n; });
  report.metric("scenario.resolve_us", s.median, "us", s.samples);
  s = sample_us([&] { g_sink += spec.to_json().dump().size(); });
  report.metric("scenario.spec_dump_us", s.median, "us", s.samples);
  s = sample_us([&] { g_sink += document.dump().size(); });
  report.metric("util.json_dump_us_per_kb", s.median / text_kb, "us/KB", s.samples);
  s = sample_us([&] { g_sink += hoval::Json::parse(text).size(); });
  report.metric("util.json_parse_us_per_kb", s.median / text_kb, "us/KB", s.samples);
  s = sample_us([&] { g_sink += wire::encode_frame(payload).size(); });
  report.metric("dispatch.frame_encode_us_per_kb", s.median / payload_kb, "us/KB",
                s.samples);
  s = sample_us([&] {
    wire::FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    g_sink += decoder.next()->size();
  });
  report.metric("dispatch.frame_decode_us_per_kb", s.median / payload_kb, "us/KB",
                s.samples);
  s = sample_us([&] { g_sink += service::encode_result_text(1, false, text).size(); });
  report.metric("service.encode_result_us", s.median, "us", s.samples);
  s = sample_us([&] {
    g_sink += service::parse_server_message(envelope).result.size();
  });
  report.metric("service.parse_server_message_us", s.median, "us", s.samples);
}

void probe_delivery(const hoval::ResolvedScenario& resolved, const Ledger& ledger,
                    std::uint64_t seed, Report& report) {
  hoval::Rng rng(seed);
  const std::vector<hoval::Value> initial = resolved.values(rng);
  const hoval::ProcessVector processes = resolved.instance(initial);
  const int n = static_cast<int>(processes.size());
  const double receiver_rounds =
      static_cast<double>(std::max<std::int64_t>(ledger.rounds, 1)) * n;
  const int altered = std::clamp(
      static_cast<int>(std::lround(static_cast<double>(ledger.altered) / receiver_rounds)),
      0, n);
  const int omitted = std::clamp(
      static_cast<int>(std::lround(static_cast<double>(ledger.omitted) / receiver_rounds)),
      0, n - altered);

  hoval::IntendedRound intended;
  intended.resize(n);
  intended.round = 1;
  intended.uniform_rows = true;
  for (int q = 0; q < n; ++q) {
    const hoval::HoProcess& sender = *processes[static_cast<std::size_t>(q)];
    intended.uniform_rows = intended.uniform_rows && sender.broadcasts();
    for (int p = 0; p < n; ++p)
      intended.by_sender[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)] =
          sender.message_for(1, p);
  }

  // Fault patterns drawn up front: per receiver, `altered` corrupted
  // links and `omitted` dropped ones, on distinct senders.
  struct Fault {
    hoval::ProcessId sender;
    hoval::ProcessId receiver;
    hoval::Msg message;
  };
  constexpr int kPatterns = 32;
  std::vector<std::vector<Fault>> alter_patterns(kPatterns);
  std::vector<std::vector<Fault>> omit_patterns(kPatterns);
  const hoval::CorruptionPolicy policy;
  for (int i = 0; i < kPatterns; ++i)
    for (int p = 0; p < n; ++p) {
      const std::vector<std::size_t> victims = rng.sample(
          static_cast<std::size_t>(n), static_cast<std::size_t>(altered + omitted));
      for (int k = 0; k < altered + omitted; ++k) {
        const auto q = static_cast<hoval::ProcessId>(victims[static_cast<std::size_t>(k)]);
        if (k < altered)
          alter_patterns[i].push_back(
              {q, p, hoval::corrupt_message(intended.intended(q, p), policy, rng)});
        else
          omit_patterns[i].push_back({q, p, {}});
      }
    }

  hoval::DeliveredRound delivered;
  hoval::ProcessSet ho(n), sho(n);
  std::vector<double> assign_ns, alter_ns, omit_ns, truth_ns;
  const std::int64_t until = now_ns() + 150'000'000;
  for (int i = 0; assign_ns.size() < 50 || now_ns() < until; ++i) {
    const auto& alters = alter_patterns[static_cast<std::size_t>(i % kPatterns)];
    const auto& omits = omit_patterns[static_cast<std::size_t>(i % kPatterns)];
    const std::int64_t t0 = now_ns();
    delivered.assign_faithful(intended);
    const std::int64_t t1 = now_ns();
    for (const Fault& f : alters) delivered.put_altered(f.sender, f.receiver, f.message);
    const std::int64_t t2 = now_ns();
    for (const Fault& f : omits) delivered.omit(f.sender, f.receiver);
    const std::int64_t t3 = now_ns();
    for (int p = 0; p < n; ++p) {
      delivered.ground_truth_into(p, ho, sho);
      g_sink += static_cast<std::size_t>(sho.count());
    }
    const std::int64_t t4 = now_ns();
    assign_ns.push_back(static_cast<double>(t1 - t0));
    if (!alters.empty())
      alter_ns.push_back(static_cast<double>(t2 - t1) / static_cast<double>(alters.size()));
    if (!omits.empty())
      omit_ns.push_back(static_cast<double>(t3 - t2) / static_cast<double>(omits.size()));
    truth_ns.push_back(static_cast<double>(t4 - t3) / n);
  }
  report.metric("model.assign_faithful_ns", median(assign_ns), "ns", assign_ns.size());
  report.metric("model.put_altered_ns", median(alter_ns), "ns", alter_ns.size());
  report.metric("model.omit_ns", median(omit_ns), "ns", omit_ns.size());
  report.metric("model.ground_truth_ns", median(truth_ns), "ns", truth_ns.size());
}

void probe_step(const hoval::ResolvedScenario& resolved, std::uint64_t seed,
                Report& report) {
  const auto job = std::make_shared<const JobTrace>();
  const hoval::InstanceBuilder timed_instance = decorate_instance(resolved.instance, job);
  const hoval::AdversaryBuilder timed_adversary =
      decorate_adversary(resolved.adversary, job);
  ThreadRecord& record = Tracer::instance().local();
  const Counter inner[] = {kSendNs, kApplyNs, kTransitionNs};
  auto inner_ns = [&] {
    std::int64_t total = 0;
    for (const Counter c : inner)
      total += record.counter(c) - record.counter(calls_of(c)) * clock_read_ns();
    return total;
  };

  // Each run executes twice from the same seeds: undecorated for the
  // step() time, decorated for the send/apply/transition time inside it.
  hoval::RunWorkspace workspace;
  std::int64_t step_ns = 0, component_ns = 0, rounds = 0;
  const std::int64_t until = now_ns() + 200'000'000;
  for (std::uint64_t run = 0; run < 4 || now_ns() < until; ++run) {
    for (const bool decorated : {false, true}) {
      hoval::Rng value_rng(hoval::mix_seed(seed, run, 1));
      const std::vector<hoval::Value> initial = resolved.values(value_rng);
      hoval::SimConfig sim = resolved.config.sim;
      sim.seed = hoval::mix_seed(seed, run, 2);
      hoval::Simulator simulator(
          decorated ? timed_instance(initial) : resolved.instance(initial),
          decorated ? timed_adversary() : resolved.adversary(), sim, &workspace);
      const std::int64_t before = inner_ns();
      while (true) {
        const std::int64_t start = now_ns();
        if (!simulator.step()) break;
        if (!decorated) {
          step_ns += now_ns() - start;
          ++rounds;
        }
      }
      if (decorated) component_ns += inner_ns() - before;
    }
  }
  report.metric("sim.step_delivery_ns_per_round",
                static_cast<double>(step_ns - component_ns) / static_cast<double>(rounds),
                "ns", static_cast<std::size_t>(rounds));
}

void layer_metrics(const Counters& c, const Ledger& ledger, double wall_s,
                   int threads, double alpha, Report& report) {
  const double bias = static_cast<double>(clock_read_ns());
  const auto rounds = static_cast<double>(std::max<std::int64_t>(c[kRounds], 1));
  const auto runs = static_cast<double>(std::max<std::int64_t>(c[kRuns], 1));
  auto net = [&](Counter ns) {
    return static_cast<double>(c[ns]) - static_cast<double>(c[calls_of(ns)]) * bias;
  };
  const auto n_rounds = static_cast<std::size_t>(c[kRounds]);
  const auto n_runs = static_cast<std::size_t>(c[kRuns]);

  std::vector<double> run_us;
  for (const std::int64_t ns : Tracer::instance().run_durations())
    run_us.push_back(static_cast<double>(ns) / 1e3);
  report.metric("sim.run_us_p50", median(run_us), "us", run_us.size());
  report.metric("sim.build_us_per_run", net(kBuildNs) / runs / 1e3, "us", n_runs);
  report.metric("sim.executor_overhead_pct",
                wall_s > 0 ? 100.0 * (1.0 - static_cast<double>(c[kRunNs]) / 1e9 /
                                                (wall_s * threads))
                           : 0.0,
                "%", n_runs);
  report.metric("adversary.apply_ns_per_round", net(kApplyNs) / rounds, "ns", n_rounds);
  report.metric("core.send_ns_per_round", net(kSendNs) / rounds, "ns", n_rounds);
  report.metric("core.transition_ns_per_round", net(kTransitionNs) / rounds, "ns",
                n_rounds);
  report.metric("predicates.on_round_ns_per_round", net(kOnRoundNs) / rounds, "ns",
                n_rounds);
  report.metric("predicates.finish_ns_per_run", net(kFinishNs) / runs, "ns", n_runs);

  // Exact counts: only the counted prefix of jobs feeds the ledger.
  const double ledger_rounds = static_cast<double>(std::max<std::int64_t>(ledger.rounds, 1));
  const auto ledger_samples = static_cast<std::size_t>(ledger.rounds);
  report.metric("sim.rounds_per_run",
                static_cast<double>(ledger.rounds) /
                    static_cast<double>(std::max<std::int64_t>(ledger.runs, 1)),
                "count", static_cast<std::size_t>(ledger.runs));
  report.metric("adversary.altered_per_round",
                static_cast<double>(ledger.altered) / ledger_rounds, "count",
                ledger_samples);
  report.metric("adversary.omitted_per_round",
                static_cast<double>(ledger.omitted) / ledger_rounds, "count",
                ledger_samples);
  report.metric("adversary.alpha_use",
                alpha > 0 ? static_cast<double>(ledger.max_altered) / alpha : 0.0,
                "ratio", ledger_samples);
}

}  // namespace perfbench
