// What one measured round of a workload produces, and the helpers every
// workload shares to read the stack's public stats structs, run the offline
// image check and turn samples into the end-to-end metrics.
#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "calib.h"
#include "ftl/ftl_stats.h"
#include "spans.h"
#include "sql/database.h"
#include "util.h"
#include "workload/harness.h"

namespace perfbench {

struct RoundSpec {
  std::string workload;
  uint64_t seed = 1;
  bool tiny = false;    // self-check scale
  bool traced = false;  // spans + the stack's in-memory tracer on
  // A warm-up round, never timed for host figures. The synthetic and TPC-C
  // rounds stop after set-up; a host-array round is cheap and runs whole
  // (set-up alone leaves each of its arrays' set-ups cold).
  bool warm_up = false;
  // The workload's settings from perfbench/spec.json: the p99 limit its
  // sim_max_rate_txn_per_s is measured against, the offered rate at which
  // its latency percentiles are taken, the SQL and fs cache sizes, and the
  // firmware commit mode (an ftl::CommitMode).
  double latency_limit_ms = 0;
  double nominal_rate = 0;
  uint32_t sql_cache_pages = 0;
  uint32_t fs_cache_pages = 0;
  int commit_mode = -1;
  // Self-check of the checks: the round perturbs one of its own
  // expectations, so a correct program must fail verification.
  bool corrupt_check = false;
};

struct RoundResult {
  // Deterministic figures: the simulated end-to-end metrics and every
  // per-layer count. Two rounds at one seed must match bit for bit.
  Metrics sim;
  // Per-layer figures that exist only in a traced round (span host times,
  // tracer rows).
  Metrics traced;
  HostTimer setup, measured;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<std::string> notes;  // human-readable context lines
  SpanLog spans;
};

// Counters from every layer's public stats struct, summed over the array
// members and the open databases.
struct Counters {
  uint64_t pager_page_reads = 0, pager_journal_writes = 0,
           pager_wal_index_hits = 0, pager_checkpoints = 0;
  uint64_t fs_fsyncs = 0, fs_meta_writes = 0, fs_page_reads = 0;
  uint64_t sata_commands = 0, sata_commit_commands = 0,
           sata_queue_full_stalls = 0;
  uint64_t xftl_commits = 0, xftl_xl2p_pages = 0, xftl_forced_checkpoints = 0,
           xftl_prepares = 0, xftl_commit_records = 0;
  xftl::ftl::FtlStats ftl;
  uint64_t flash_programs = 0, flash_reads = 0, flash_erases = 0,
           flash_bank_stalls = 0;
  xftl::SimNanos waited = 0;
};

Counters Collect(xftl::workload::Harness* h,
                 const std::vector<xftl::sql::Database*>& dbs);
Counters Minus(const Counters& a, const Counters& b);
void Accumulate(const Counters& d, Counters* into);

// Adds the per-layer count metrics of a measured interval.
void PutLayerCounts(const Counters& d, uint64_t txns, uint32_t pages_per_block,
                    Metrics* m);

// Adds the end-to-end simulated metrics of a closed-loop interval from the
// per-txn service times: closed-loop rate; exact p50/p99 of the latency a
// txn sees when txns arrive at the workload's nominal rate (the service
// times replayed through a FIFO queue at seeded Poisson arrivals,
// kArrivalStreams streams pooled); the highest such rate that meets the
// workload's latency limit; and the flash cost per txn.
void PutClosedLoopMetrics(const std::vector<double>& service_ns,
                          xftl::SimNanos elapsed, const Counters& d,
                          const RoundSpec& spec, RoundResult* out);

// The latency limit test of an offered rate, on latencies in arrival order:
// the exact p99 is within the limit, and so is the median of the last tenth
// (a backlog that keeps growing pushes the late txns past the limit).
bool MeetsLimit(const std::vector<double>& latency_ns, double limit_ns);

// Highest Poisson arrival rate at which one FIFO server with these service
// times passes MeetsLimit (Lindley recursion; the draws of each arrival
// stream are fixed, so the answer is monotone in the rate and deterministic
// per seed). The median over kArrivalStreams streams, so that the figure
// follows the service times rather than one arrival sequence.
inline constexpr int kArrivalStreams = 9;
double MaxRateWithinLimit(const std::vector<double>& service_ns,
                          double limit_ns, uint64_t seed);

// Tracer rows the per-layer table reports: mean simulated latency (us) and
// event count per selected (layer, op).
void PutTracerRows(xftl::trace::Tracer* tracer, Metrics* m);

// Span self times: `<name>_host_us` / `<name>_sim_ms` per call or per txn.
struct SpanOut {
  const char* span;
  const char* metric;  // metric name prefix
  bool per_call;       // divide by call count instead of txn count
  bool host_in_ms;     // host time in ms instead of us
  bool sim;            // also report simulated self time
};
void PutSpanMetrics(const SpanLog& spans, const std::vector<SpanOut>& outs,
                    uint64_t txns, double host_scale, Metrics* m);

// Restart figures after a mid-txn power cut at simulated time `cut`: the
// device (and file system) were back at `device_up`, and the database has
// just answered its first query.
void PutRestartMetrics(xftl::workload::Harness* h, xftl::sql::Database* db,
                       xftl::SimNanos cut, xftl::SimNanos device_up,
                       Metrics* m);

// Cuts power on every member and runs the offline invariant checker on the
// powered-off image; any error is recorded as a violation.
void FsckFinalImage(xftl::workload::Harness* h,
                    std::vector<std::string>* violations);

// Records a non-OK `st` as a violation at `where`; returns st.ok().
bool Ok(const xftl::Status& st, const std::string& where, RoundResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
