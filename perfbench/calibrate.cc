#include "calibrate.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>

#include "pipeline.h"

namespace perfbench {

namespace {

volatile std::uint64_t calibration_sink;

std::uint64_t Scramble(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

}  // namespace

// Four parts of about equal time, each tracking some of the program's
// layers on its own (measured per pass against university and ACL
// comparisons: text against parsing-heavy passes, the table against
// BDD-heavy ones); their sum tracks both better than any one part.
double RunCalibrationKernel() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 19);  // 4 MB.
  const std::size_t mask = table.size() - 1;
  const double start = NowSeconds();

  // Configuration-like text, split into tokens and indexed by name.
  std::unordered_map<std::string, int> names;
  std::map<std::uint32_t, int> ranges;
  char line[96];
  for (int i = 0; i < 1200; ++i) {
    std::snprintf(line, sizeof line,
                  "ip prefix-list PL%d seq %d permit %d.%d.%d.0/%d le 32",
                  i % 37, i * 5, 10 + i % 200, (i * 7) % 256, (i * 13) % 256,
                  8 + i % 24);
    const std::string text(line);
    std::vector<std::string> tokens;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t end = text.find(' ', pos);
      if (end == std::string::npos) end = text.size();
      tokens.emplace_back(text.substr(pos, end - pos));
      pos = end + 1;
    }
    names[tokens[2]] += static_cast<int>(tokens.size());
    ranges[static_cast<std::uint32_t>(
               std::strtoul(tokens[4].c_str(), nullptr, 10)) *
           2654435761u] = i;
  }

  // An open-addressing node table: inserts, then dependent random probes.
  std::fill(table.begin(), table.end(), 0);
  std::uint64_t key = 1;
  for (int i = 0; i < 15000; ++i) {
    key = Scramble(key + static_cast<std::uint64_t>(i));
    std::size_t slot = key & mask;
    while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) & mask;
    table[slot] = key;
  }
  std::uint64_t probe = 7;
  for (int i = 0; i < 20000; ++i) probe += table[Scramble(probe) & mask] | 1;

  // A sort.
  std::vector<std::uint64_t> sorted(20000);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = Scramble(i + probe);
  }
  std::sort(sorted.begin(), sorted.end());

  // An ordered tree: inserts, then lower-bound lookups.
  std::map<std::uint64_t, std::uint64_t> tree;
  for (std::uint64_t i = 0; i < 6000; ++i) tree[Scramble(i * 31 + 5)] = i;
  std::uint64_t found = 0;
  for (std::uint64_t i = 0; i < 6000; ++i) {
    const auto it = tree.lower_bound(Scramble(i * 17 + 3));
    if (it != tree.end()) found += it->second;
  }
  const double seconds = NowSeconds() - start;

  calibration_sink =
      sorted[sorted.size() / 2] + names.size() + ranges.size() + found;
  return seconds;
}

double HostSpeed::Scale() const {
  if (samples_.empty()) return 1.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const double median = n % 2 == 1
                            ? sorted[n / 2]
                            : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  return median > 0.0 ? kReferenceKernelSeconds / median : 1.0;
}

}  // namespace perfbench
