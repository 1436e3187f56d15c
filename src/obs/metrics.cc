#include "obs/metrics.h"

#include <algorithm>

#include "obs/trace.h"

namespace campion::obs {
namespace {

// The calling thread's installed sink; null = use ProcessMetrics().
thread_local MetricsSink* t_current_sink = nullptr;

}  // namespace

void MetricsSink::FoldLocked(const std::string& name, double value,
                             MetricKind kind) {
  auto [it, inserted] = values_.try_emplace(name, value, kind);
  if (inserted) return;
  auto& [slot, slot_kind] = it->second;
  slot = slot_kind == MetricKind::kCounter ? slot + value
                                           : std::max(slot, value);
}

void MetricsSink::Add(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  FoldLocked(name, delta, MetricKind::kCounter);
}

void MetricsSink::Max(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  FoldLocked(name, value, MetricKind::kGauge);
}

void MetricsSink::Merge(const std::vector<MetricSample>& samples) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const MetricSample& sample : samples) {
    FoldLocked(sample.name, sample.value, sample.kind);
  }
}

std::vector<MetricSample> MetricsSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(values_.size());
  // std::map is already name-sorted.
  for (const auto& [name, entry] : values_) {
    samples.push_back({name, entry.first, entry.second});
  }
  return samples;
}

void MetricsSink::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  values_.clear();
}

MetricsSink& ProcessMetrics() {
  static MetricsSink sink;
  return sink;
}

MetricsSink& CurrentMetrics() {
  return t_current_sink != nullptr ? *t_current_sink : ProcessMetrics();
}

MetricsScope::MetricsScope(MetricsSink& sink) : previous_(t_current_sink) {
  t_current_sink = &sink;
}

MetricsScope::~MetricsScope() { t_current_sink = previous_; }

void Count(const std::string& name, double delta) {
  if (!Enabled()) return;
  CurrentMetrics().Add(name, delta);
}

void MaxGauge(const std::string& name, double value) {
  if (!Enabled()) return;
  CurrentMetrics().Max(name, value);
}

}  // namespace campion::obs
