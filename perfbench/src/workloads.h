// The benchmark's workloads. Each round builds the stack from scratch at the
// round's seed, sets it up, runs the measured phase, cuts power mid-txn and
// restarts, then checks the program's outputs. Host time is split into
// set-up and measured phases on their own calibrated timers.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "stack.h"

namespace perfbench {

// Fills `out` for one round of `spec.workload`.
void RunRound(const RoundSpec& spec, RoundResult* out);

const std::vector<std::string>& WorkloadNames();

// Per-workload round runners.
void RunSynthetic(const RoundSpec& spec, bool wal, RoundResult* out);
void RunTpccRead(const RoundSpec& spec, RoundResult* out);
void RunHostArray(const RoundSpec& spec, RoundResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
