// Calibrated host time. Machine speed on a shared virtual host drifts by
// 15-20% between processes and within one, so raw wall time cannot compare
// two builds. The benchmark therefore times a fixed reference kernel (its
// own code, never the program's) after every ~25 ms chunk of the work it
// measures, in the same process, and scales each chunk by the kernel run
// that follows it: a calibrated second is the time in which the kernel
// would run 1/kNominalKernelS times. Drift that slows the work slows the
// kernel alike and cancels.
//
// The kernel and the estimator were picked by measurement: across rounds of
// one seed in separate processes, per-chunk scaling by this map/sort/CRC
// kernel cut the spread of measured time from 8-10% (raw) to 2-5%, better
// than scaling by the median kernel time or by a kernel with an 8 MiB
// pointer chase and page copies.
#ifndef PERFBENCH_CALIB_H_
#define PERFBENCH_CALIB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// About the kernel's median time on the host the benchmark was tuned on (a
// 4-core KVM guest); it only sets the scale of a calibrated second.
inline constexpr double kNominalKernelS = 2.0e-3;
// Work between two kernel runs: short enough that a chunk and the kernel run
// after it see the same machine speed, long enough that the kernel costs
// about a tenth of the measured time.
inline constexpr double kSliceS = 0.025;

// One run of the reference kernel: ordered-map inserts and lookups with
// string payloads, a sort, and a table-driven byte checksum, the mix of
// allocation, pointer chasing and byte loops the simulator spends its time
// on. Deterministic; returns a checksum so the work cannot be elided.
uint64_t RunReferenceKernel();

// Times interleaved work and kernel runs. Begin() opens a work chunk;
// Tick() after each unit of work closes the chunk once kSliceS of work
// has passed, runs the kernel, and opens the next; End() closes the last.
class HostTimer {
 public:
  void Begin();
  void Tick();
  void End();

  double raw_s() const { return raw_s_; }
  double calibrated_s() const { return calibrated_s_; }
  double median_kernel_s() const;
  size_t kernel_runs() const { return kernel_s_.size(); }

 private:
  void CloseChunk();

  double chunk_start_ = 0;
  bool open_ = false;
  double raw_s_ = 0;
  double calibrated_s_ = 0;
  std::vector<double> kernel_s_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIB_H_
