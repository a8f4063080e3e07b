// The benchmark's own spans, recorded around its calls into the stack's
// public functions (nothing inside the program is instrumented). Each span
// has a name, a parent, the id of the transaction it belongs to, and start
// and end in simulated and raw host time. Spans stay in memory and are
// written out once the run ends; the per-layer table is built from each
// span's self time: its duration minus the durations of its children.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "util.h"

namespace perfbench {

class SpanLog {
 public:
  struct Agg {
    uint64_t count = 0;
    double host_s = 0, self_host_s = 0;  // raw host seconds
    double sim_ns = 0, self_sim_ns = 0;
  };

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  void SetTxn(uint64_t txn) { txn_ = txn; }

  // Opens a child of the innermost open span; returns its handle, or -1
  // when recording is off.
  int Open(const char* name, int64_t sim_now);
  void Close(int handle, int64_t sim_now);
  // Moves the simulated start of a span opened before it was known.
  void SetSimStart(int handle, int64_t sim_start);

  std::map<std::string, Agg> Aggregate() const;
  // One JSON object per span; host times are scaled by `host_scale` into
  // calibrated seconds.
  bool WriteJsonLines(const std::string& path, const std::string& round,
                      double host_scale) const;

 private:
  struct Span {
    const char* name;
    int32_t parent;
    uint64_t txn;
    int64_t sim_start, sim_end;
    double host_start, host_end;
  };
  bool enabled_ = false;
  uint64_t txn_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

// RAII span timed against the shared simulation clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const xftl::SimClock* clock)
      : log_(log), clock_(clock),
        handle_(log->enabled() ? log->Open(name, clock->Now()) : -1) {}
  ~ScopedSpan() {
    if (handle_ >= 0) log_->Close(handle_, clock_->Now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const xftl::SimClock* clock_;
  int handle_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
