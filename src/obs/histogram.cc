#include "obs/histogram.h"

#include <cmath>
#include <utility>

namespace campion::obs {

namespace {

// Index of the highest set bit (ns > 0).
inline int HighBit(std::uint64_t ns) {
#if defined(__GNUC__) || defined(__clang__)
  return 63 - __builtin_clzll(ns);
#else
  int bit = 0;
  while (ns >>= 1) ++bit;
  return bit;
#endif
}

// The last index whose bounds fit in 64 bits: octave 62, sub 3. Anything
// above would need a lower bound of at least 2^64.
constexpr int kTopIndex =
    (62 << LatencyHistogram::kSubBucketBits) | (LatencyHistogram::kSubBuckets - 1);

}  // namespace

int LatencyHistogram::BucketIndex(std::uint64_t ns) {
  if (ns < kSubBuckets) return static_cast<int>(ns);
  const int e = HighBit(ns);
  const int sub =
      static_cast<int>((ns >> (e - kSubBucketBits)) & (kSubBuckets - 1));
  return ((e - kSubBucketBits + 1) << kSubBucketBits) | sub;
}

std::uint64_t LatencyHistogram::BucketLowerNs(int index) {
  if (index < kSubBuckets) return static_cast<std::uint64_t>(index);
  if (index > kTopIndex) return ~0ull;
  const int octave = index >> kSubBucketBits;
  const int sub = index & (kSubBuckets - 1);
  return static_cast<std::uint64_t>(kSubBuckets + sub) << (octave - 1);
}

std::uint64_t LatencyHistogram::BucketUpperNs(int index) {
  if (index >= kTopIndex) return ~0ull;
  return BucketLowerNs(index + 1);
}

void LatencyHistogram::Record(std::uint64_t ns) {
  counts_[static_cast<std::size_t>(BucketIndex(ns))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snapshot;
  for (int i = 0; i < kBucketCount; ++i) {
    snapshot.counts[static_cast<std::size_t>(i)] =
        counts_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum_ns = sum_ns_.load(std::memory_order_relaxed);
  return snapshot;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (int i = 0; i < kBucketCount; ++i) {
    counts[static_cast<std::size_t>(i)] +=
        other.counts[static_cast<std::size_t>(i)];
  }
  count += other.count;
  sum_ns += other.sum_ns;
}

std::uint64_t HistogramSnapshot::QuantileNs(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // The rank-th smallest observation, 1-based; q = 0 means the minimum.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    cumulative += counts[static_cast<std::size_t>(i)];
    if (cumulative >= rank) {
      // Inclusive upper bound of the bucket: for the exact buckets 0..3
      // this IS the recorded value; beyond, it overestimates by less than
      // one bucket width.
      const std::uint64_t upper = LatencyHistogram::BucketUpperNs(i);
      return upper == ~0ull ? upper : upper - 1;
    }
  }
  return 0;  // Unreachable: cumulative == count covers rank <= count.
}

LatencyFamily::LatencyFamily(std::string text_prefix,
                             std::string prometheus_name,
                             std::string label_key,
                             std::vector<std::string> labels)
    : text_prefix(std::move(text_prefix)),
      prometheus_name(std::move(prometheus_name)),
      label_key(std::move(label_key)),
      labels(std::move(labels)),
      histograms_(new LatencyHistogram[this->labels.size()]) {}

void LatencyFamily::Record(std::string_view label, std::uint64_t ns) {
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) {
      histograms_[i].Record(ns);
      return;
    }
  }
}

LatencyFamilySnapshot LatencyFamily::Snapshot() const {
  LatencyFamilySnapshot snapshot{this, {}};
  snapshot.histograms.reserve(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    snapshot.histograms.push_back(histograms_[i].Snapshot());
  }
  return snapshot;
}

}  // namespace campion::obs
