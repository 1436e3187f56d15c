#pragma once

// Fixed-bucket log-scale latency histograms for the daemon's telemetry
// layer (docs/trace_format.md documents the rendered vocabulary).
//
// Layout: log-linear over nanoseconds, HdrHistogram-style with two
// significant mantissa bits. Each power-of-two octave splits into
// kSubBuckets = 4 sub-buckets, so every bucket boundary is the exact
// integer (4 + sub) << (octave - 1) and the relative bucket width is at
// most 1/4 — a quantile read is within one bucket width (<= 25%) of the
// true rank value. The sub-bucket index is pure integer math on the top
// mantissa bits; no floating point, no logs, no table.
//
// Concurrency: Record() is wait-free — one array index computation plus
// three relaxed atomic adds, no allocation, no lock — so it can sit on
// the daemon's per-request completion path while any number of
// connection threads record concurrently. Reads take a Snapshot (plain
// struct); snapshots Merge() by element-wise addition, which is
// associative and commutative, so folding per-thread or per-request
// histograms in any order yields the same totals (the same invariant the
// metrics registry keeps for counters).

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace campion::obs {

// A point-in-time copy of a histogram: plain integers, safe to merge,
// serialize, and quantile-walk without touching the live atomics.
struct HistogramSnapshot {
  static constexpr int kSubBucketBits = 2;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;          // 4
  static constexpr int kBucketCount = 64 * kSubBuckets;            // 256

  std::array<std::uint64_t, kBucketCount> counts{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;

  // Element-wise addition: associative and commutative, so fold order
  // across threads or requests never changes the result.
  void Merge(const HistogramSnapshot& other);

  // The inclusive upper bound (in ns) of the bucket containing the
  // rank-`q` observation (q in [0, 1]); 0 when empty. Exact to within one
  // bucket width of the true quantile.
  std::uint64_t QuantileNs(double q) const;

  double MeanNs() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
};

// The live, recordable histogram. Fixed footprint (one cache-friendly
// array of atomics), zero allocation on every path.
class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = HistogramSnapshot::kSubBucketBits;
  static constexpr int kSubBuckets = HistogramSnapshot::kSubBuckets;
  static constexpr int kBucketCount = HistogramSnapshot::kBucketCount;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  // Records one observation. Wait-free, allocation-free.
  void Record(std::uint64_t ns);

  HistogramSnapshot Snapshot() const;

  // The bucket holding `ns`. Buckets 0..3 hold the exact values 0..3;
  // beyond that, bucket (octave << 2 | sub) covers
  // [(4+sub) << (octave-1), (5+sub) << (octave-1)).
  static int BucketIndex(std::uint64_t ns);

  // Inclusive lower / exclusive upper bound of a bucket, in ns. The
  // topmost reachable bucket's upper bound saturates at UINT64_MAX.
  static std::uint64_t BucketLowerNs(int index);
  static std::uint64_t BucketUpperNs(int index);

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

class LatencyFamily;

// A point-in-time copy of a LatencyFamily: one snapshot per label, in
// declaration order. Valid while the family lives.
struct LatencyFamilySnapshot {
  const LatencyFamily* family = nullptr;
  std::vector<HistogramSnapshot> histograms;
};

// A fixed set of latency histograms declared once — text prefix,
// Prometheus family name, label key, label values — so that both /metrics
// formats render from that one declaration (obs/trace_report.h). Text
// names each histogram "<text_prefix>.<label>"; Prometheus names the
// family `prometheus_name`, labeled `label_key="<label>"`, or unlabeled
// when `label_key` is empty. Record() stays wait-free and allocation-free:
// a scan of the few labels, then one LatencyHistogram::Record.
class LatencyFamily {
 public:
  LatencyFamily(std::string text_prefix, std::string prometheus_name,
                std::string label_key, std::vector<std::string> labels);
  LatencyFamily(const LatencyFamily&) = delete;  // Snapshots point here.
  LatencyFamily& operator=(const LatencyFamily&) = delete;

  // Records into `label`'s histogram; a label outside the set is dropped.
  void Record(std::string_view label, std::uint64_t ns);

  LatencyFamilySnapshot Snapshot() const;

  const std::string text_prefix;
  const std::string prometheus_name;
  const std::string label_key;
  const std::vector<std::string> labels;

 private:
  std::unique_ptr<LatencyHistogram[]> histograms_;
};

}  // namespace campion::obs
