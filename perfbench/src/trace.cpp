#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_map>

namespace perfbench {

namespace {

/// Bounds the trace file: a detailed n=64 campaign records ~4k spans per
/// run, so a few hundred thousand per thread keeps several whole jobs.
constexpr std::size_t kMaxSpansPerThread = 300'000;

thread_local ThreadRecord* t_record = nullptr;
thread_local std::vector<std::uint64_t> t_open_spans;

std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string layer_of(const char* name) {
  const std::string text(name);
  return text.substr(0, text.find('.'));
}

}  // namespace

void Ledger::merge(const Ledger& other) {
  runs += other.runs;
  rounds += other.rounds;
  altered += other.altered;
  omitted += other.omitted;
  max_altered = std::max(max_altered, other.max_altered);
}

void ThreadRecord::span(const char* name, std::int64_t start, std::int64_t end,
                        std::uint64_t parent, std::uint64_t run,
                        std::uint64_t id) {
  if (spans_.size() >= kMaxSpansPerThread) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, start, end, id != 0 ? id : next_id(), parent, run});
}

void ThreadRecord::begin_run(const JobTrace* job) {
  job_ = job;
  run_id_ = next_id();
  run_start_ = now_ns();
  run_ledger_ = Ledger{};
}

void ThreadRecord::end_run(std::int64_t end) {
  if (job_ == nullptr) return;
  const std::int64_t duration = end - run_start_;
  add(kRunNs, duration);
  add(kRuns, 1);
  add(kRounds, run_ledger_.rounds);
  run_ns_.push_back(duration);
  if (job_->detailed)
    span("sim.run", run_start_, end, job_->span, run_id_, run_id_);
  if (job_->counted) {
    run_ledger_.runs = 1;
    Tracer::instance().add_to_ledger(run_ledger_);
  }
  job_ = nullptr;
}

std::int64_t clock_read_ns() {
  static const std::int64_t cost = [] {
    std::vector<std::int64_t> samples(20'001);
    for (auto& sample : samples) {
      const std::int64_t start = now_ns();
      sample = now_ns() - start;
    }
    std::nth_element(samples.begin(), samples.begin() + 10'000, samples.end());
    return samples[10'000];
  }();
  return cost;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

ThreadRecord& Tracer::local() {
  if (t_record == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(
        std::make_unique<ThreadRecord>(static_cast<int>(records_.size())));
    t_record = records_.back().get();
  }
  return *t_record;
}

Counters Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Counters sum{};
  for (const auto& record : records_)
    for (int c = 0; c < kCounterCount; ++c)
      sum[c] += record->counter(static_cast<Counter>(c));
  return sum;
}

std::vector<std::int64_t> Tracer::run_durations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> all;
  for (const auto& record : records_)
    all.insert(all.end(), record->run_ns().begin(), record->run_ns().end());
  return all;
}

void Tracer::add_to_ledger(const Ledger& ledger) {
  std::lock_guard<std::mutex> lock(mutex_);
  ledger_.merge(ledger);
}

Ledger Tracer::ledger() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ledger_;
}

std::vector<std::pair<int, Span>> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<int, Span>> all;
  for (const auto& record : records_)
    for (const Span& span : record->spans()) all.emplace_back(record->tid(), span);
  return all;
}

std::size_t Tracer::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t dropped = 0;
  for (const auto& record : records_) dropped += record->dropped_spans();
  return dropped;
}

ScopedSpan::ScopedSpan(bool enabled, const char* name) : name_(name) {
  if (!enabled) return;
  start_ = now_ns();
  id_ = Tracer::instance().local().next_id();
  parent_ = t_open_spans.empty() ? 0 : t_open_spans.back();
  t_open_spans.push_back(id_);
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  t_open_spans.pop_back();
  Tracer::instance().local().span(name_, start_, now_ns(), parent_, 0, id_);
}

std::vector<LayerTime> layer_self_times(
    const std::vector<std::pair<int, Span>>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& entry : spans)
    if (entry.second.parent != 0)
      children[entry.second.parent].push_back(&entry.second);

  std::map<std::string, LayerTime> by_layer;
  for (const auto& entry : spans) {
    const Span& span = entry.second;
    std::int64_t covered = 0;
    const auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent's.
      std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
      for (const Span* child : it->second) {
        const std::int64_t lo = std::max(child->start_ns, span.start_ns);
        const std::int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      std::int64_t reach = span.start_ns;
      for (const auto& [lo, hi] : intervals) {
        const std::int64_t from = std::max(lo, reach);
        if (hi > from) {
          covered += hi - from;
          reach = hi;
        }
      }
    }
    LayerTime& layer = by_layer[layer_of(span.name)];
    layer.layer = layer_of(span.name);
    ++layer.spans;
    layer.total_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    layer.self_ms +=
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
  }
  std::vector<LayerTime> result;
  for (auto& entry : by_layer) result.push_back(entry.second);
  return result;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<std::pair<int, Span>>& spans,
                        const std::map<std::string, std::string>& metadata) {
  std::int64_t origin = 0;
  for (const auto& entry : spans)
    if (origin == 0 || entry.second.start_ns < origin)
      origin = entry.second.start_ns;

  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{";
  bool first = true;
  for (const auto& [key, value] : metadata) {
    out << (first ? "" : ",") << '"' << escaped(key) << "\":\"" << escaped(value)
        << '"';
    first = false;
  }
  out << "},\"traceEvents\":[";
  char buffer[96];
  first = true;
  for (const auto& [tid, span] : spans) {
    out << (first ? "" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"cat\":\"" << layer_of(span.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << tid;
    std::snprintf(buffer, sizeof buffer, ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    out << buffer << ",\"args\":{\"id\":" << span.id << ",\"parent\":"
        << span.parent << ",\"run\":" << span.run << "}}";
    first = false;
  }
  out << "]}\n";
}

}  // namespace perfbench
