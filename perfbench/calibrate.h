#pragma once

// Host-speed calibration.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over minutes, while the load of neighbouring machines comes and goes. A
// median over one run cannot average that out, so every timed metric is
// reported in seconds at a fixed reference speed: the time measured in a
// window of the run, multiplied by kReferenceKernelSeconds over the median
// time the calibration kernel took in that window. The kernel is fixed code
// of the benchmark's own (text splitting into string-keyed maps, a 4 MB
// open-addressing table probed at random, a sort, an ordered tree), run on
// the measuring thread between the measured operations, never inside them.
// It calls nothing of the program, so a change to the program moves the
// measured time and not the scale.

#include <vector>

namespace perfbench {

// The kernel's time at reference speed: a nominal figure, close to its time
// between two comparisons on a 4-vCPU Xeon VM (2.1 GHz, shared host).
inline constexpr double kReferenceKernelSeconds = 0.007;

// Runs the kernel once and returns its wall time in seconds.
double RunCalibrationKernel();

// Calibration samples of one window of a run.
class HostSpeed {
 public:
  void Sample() { samples_.push_back(RunCalibrationKernel()); }
  bool empty() const { return samples_.empty(); }
  void Clear() { samples_.clear(); }

  // Converts seconds measured in this window into seconds at reference
  // speed: kReferenceKernelSeconds over the median kernel time.
  double Scale() const;

 private:
  std::vector<double> samples_;
};

}  // namespace perfbench
