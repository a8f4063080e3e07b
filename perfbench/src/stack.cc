#include "stack.h"

#include <cmath>

#include "check/xftl_fsck.h"
#include "ftl/page_ftl.h"
#include "storage/sim_ssd.h"
#include "trace/tracer.h"
#include "workloads.h"
#include "xftl/xftl.h"

namespace perfbench {

using xftl::SimNanos;
using xftl::workload::Harness;

Counters Collect(Harness* h, const std::vector<xftl::sql::Database*>& dbs) {
  Counters c;
  for (xftl::sql::Database* db : dbs) {
    const auto& ps = db->pager()->stats();
    c.pager_page_reads += ps.page_reads;
    c.pager_journal_writes += ps.journal_page_writes;
    c.pager_wal_index_hits += ps.wal_index_hits;
    c.pager_checkpoints += ps.checkpoints;
  }
  const auto& fs = h->fs()->stats();
  c.fs_fsyncs = fs.fsync_calls;
  c.fs_meta_writes = fs.TotalMetadataWrites(h->fs()->journal_stats());
  c.fs_page_reads = fs.page_reads;
  for (uint32_t i = 0; i < h->num_devices(); ++i) {
    xftl::storage::SimSsd* ssd = h->ssd(i);
    const auto& s = ssd->device()->stats();
    // Wire commands: a batch moves n pages in one command.
    c.sata_commands += s.read_commands + s.write_commands - s.batched_pages +
                       s.batch_commands + s.trim_commands +
                       s.barrier_commands + s.commit_commands +
                       s.abort_commands + s.prepare_commands +
                       s.commit_record_commands + s.resolve_commands;
    c.sata_commit_commands += s.commit_commands;
    c.sata_queue_full_stalls += s.queue_full_stalls;
    if (ssd->xftl() != nullptr) {
      const auto& x = ssd->xftl()->xstats();
      c.xftl_commits += x.commits;
      c.xftl_xl2p_pages += x.xl2p_snapshot_pages;
      c.xftl_forced_checkpoints += x.forced_checkpoints;
      c.xftl_prepares += x.prepares;
      c.xftl_commit_records += x.commit_records;
    }
    c.ftl.Add(ssd->ftl()->stats());
    const auto& f = ssd->flash()->stats();
    c.flash_programs += f.page_programs;
    c.flash_reads += f.page_reads;
    c.flash_erases += f.block_erases;
    c.flash_bank_stalls += f.programs_stalled_for_bank;
  }
  c.waited = h->clock()->waited();
  return c;
}

namespace {

// Calls f(x, y) on each pair of plain counters of `a` and `b`.
template <typename F>
void ZipCounters(Counters* a, const Counters& b, F f) {
  f(a->pager_page_reads, b.pager_page_reads);
  f(a->pager_journal_writes, b.pager_journal_writes);
  f(a->pager_wal_index_hits, b.pager_wal_index_hits);
  f(a->pager_checkpoints, b.pager_checkpoints);
  f(a->fs_fsyncs, b.fs_fsyncs);
  f(a->fs_meta_writes, b.fs_meta_writes);
  f(a->fs_page_reads, b.fs_page_reads);
  f(a->sata_commands, b.sata_commands);
  f(a->sata_commit_commands, b.sata_commit_commands);
  f(a->sata_queue_full_stalls, b.sata_queue_full_stalls);
  f(a->xftl_commits, b.xftl_commits);
  f(a->xftl_xl2p_pages, b.xftl_xl2p_pages);
  f(a->xftl_forced_checkpoints, b.xftl_forced_checkpoints);
  f(a->xftl_prepares, b.xftl_prepares);
  f(a->xftl_commit_records, b.xftl_commit_records);
  f(a->flash_programs, b.flash_programs);
  f(a->flash_reads, b.flash_reads);
  f(a->flash_erases, b.flash_erases);
  f(a->flash_bank_stalls, b.flash_bank_stalls);
  f(a->waited, b.waited);
}

}  // namespace

Counters Minus(const Counters& a, const Counters& b) {
  Counters d = a;
  ZipCounters(&d, b, [](uint64_t& x, uint64_t y) { x -= y; });
  d.ftl = a.ftl.Delta(b.ftl);
  return d;
}

void Accumulate(const Counters& d, Counters* into) {
  ZipCounters(into, d, [](uint64_t& x, uint64_t y) { x += y; });
  into->ftl.Add(d.ftl);
}

void PutLayerCounts(const Counters& d, uint64_t txns, uint32_t pages_per_block,
                    Metrics* m) {
  auto per = [&](uint64_t v) { return PerTxn(double(v), txns); };
  auto per_k = [&](uint64_t v) { return PerTxn(double(v) * 1000.0, txns); };
  Put(m, "pager.page_reads_per_txn", per(d.pager_page_reads), "count");
  Put(m, "pager.journal_writes_per_txn", per(d.pager_journal_writes),
      "count");
  Put(m, "pager.wal_index_hits_per_txn", per(d.pager_wal_index_hits),
      "count");
  Put(m, "pager.checkpoints", double(d.pager_checkpoints), "count");
  Put(m, "fs.fsyncs_per_txn", per(d.fs_fsyncs), "count");
  Put(m, "fs.meta_writes_per_txn", per(d.fs_meta_writes), "count");
  Put(m, "fs.page_reads_per_txn", per(d.fs_page_reads), "count");
  Put(m, "sata.commands_per_txn", per(d.sata_commands), "count");
  Put(m, "sata.commit_commands_per_txn", per(d.sata_commit_commands), "count");
  Put(m, "sata.queue_full_stalls_per_txn", per(d.sata_queue_full_stalls),
      "count");
  Put(m, "xftl.xl2p_pages_per_commit",
      PerTxn(double(d.xftl_xl2p_pages), d.xftl_commits), "count");
  Put(m, "xftl.forced_checkpoints", double(d.xftl_forced_checkpoints),
      "count");
  Put(m, "xftl.prepares_per_txn", per(d.xftl_prepares), "count");
  Put(m, "xftl.commit_records_per_txn", per(d.xftl_commit_records), "count");
  Put(m, "ftl.host_writes_per_txn", per(d.ftl.host_page_writes), "count");
  Put(m, "ftl.gc_copyback_writes_per_txn", per(d.ftl.gc_copyback_writes),
      "count");
  Put(m, "ftl.meta_writes_per_txn", per(d.ftl.meta_page_writes), "count");
  Put(m, "ftl.gc_runs_per_ktxn", per_k(d.ftl.gc_runs), "count");
  Put(m, "ftl.gc_valid_ratio", d.ftl.MeanGcValidRatio(pages_per_block),
      "ratio");
  Put(m, "ftl.erases_per_ktxn", per_k(d.ftl.block_erases), "count");
  Put(m, "flash.programs_per_txn", per(d.flash_programs), "count");
  Put(m, "flash.reads_per_txn", per(d.flash_reads), "count");
  Put(m, "flash.erases_per_ktxn", per_k(d.flash_erases), "count");
  Put(m, "flash.bank_stalls_per_txn", per(d.flash_bank_stalls), "count");
}

bool MeetsLimit(const std::vector<double>& latency_ns, double limit_ns) {
  if (latency_ns.empty()) return false;
  const size_t tail = std::max<size_t>(1, latency_ns.size() / 10);
  std::vector<double> last(latency_ns.end() - tail, latency_ns.end());
  return Percentile(latency_ns, 0.99) <= limit_ns &&
         Percentile(last, 0.5) <= limit_ns;
}

namespace {

// Exp(1) inter-arrival draws for kArrivalStreams independent Poisson
// streams of n arrivals each; scaled by 1/rate they give any rate.
std::vector<std::vector<double>> UnitGaps(size_t n, uint64_t seed) {
  InputRng rng(seed);
  std::vector<std::vector<double>> streams(kArrivalStreams,
                                           std::vector<double>(n));
  for (auto& gaps : streams) {
    for (double& g : gaps) g = -std::log(1.0 - rng.Unit());
  }
  return streams;
}

// Lindley recursion: the sojourn of each txn when the txns arrive at
// `rate` with these unit gaps and are served FIFO in arrival order.
void Sojourns(const std::vector<double>& service_ns,
              const std::vector<double>& gaps, double rate,
              std::vector<double>* out) {
  const double scale = 1e9 / rate;
  double arrival = 0, free_at = 0;
  out->resize(service_ns.size());
  for (size_t i = 0; i < service_ns.size(); ++i) {
    arrival += gaps[i] * scale;
    free_at = std::max(arrival, free_at) + service_ns[i];
    (*out)[i] = free_at - arrival;
  }
}

}  // namespace

double MaxRateWithinLimit(const std::vector<double>& service_ns,
                          double limit_ns, uint64_t seed) {
  if (service_ns.empty()) return 0;
  double mean = 0;
  for (double s : service_ns) mean += s;
  mean /= double(service_ns.size());
  std::vector<double> sojourn, rates;
  for (const auto& gaps : UnitGaps(service_ns.size(), seed)) {
    auto meets = [&](double rate) {
      Sojourns(service_ns, gaps, rate, &sojourn);
      return MeetsLimit(sojourn, limit_ns);
    };
    double hi = 1e9 / mean;  // utilization 1: the backlog always grows
    double lo = hi * 1e-3;
    if (!meets(lo)) lo = 0;
    for (int i = 0; lo > 0 && i < 50; ++i) {
      const double mid = 0.5 * (lo + hi);
      (meets(mid) ? lo : hi) = mid;
    }
    rates.push_back(lo);
  }
  return Median(rates);
}

void PutClosedLoopMetrics(const std::vector<double>& service_ns,
                          SimNanos elapsed, const Counters& d,
                          const RoundSpec& spec, RoundResult* out) {
  Metrics* m = &out->sim;
  const uint64_t n = service_ns.size();
  const uint64_t seed = SubSeed(spec.seed, 77);
  Put(m, "sim_txn_per_s", elapsed == 0 ? 0.0 : double(n) * 1e9 / double(elapsed),
      "1/s");
  // Latency at the nominal offered rate: every arrival stream's sojourns,
  // pooled.
  std::vector<double> pooled, sojourn;
  for (const auto& gaps : UnitGaps(n, seed)) {
    Sojourns(service_ns, gaps, spec.nominal_rate, &sojourn);
    pooled.insert(pooled.end(), sojourn.begin(), sojourn.end());
  }
  Put(m, "sim_txn_p50_ms", Percentile(pooled, 0.50) / 1e6, "ms");
  Put(m, "sim_txn_p99_ms", Percentile(pooled, 0.99) / 1e6, "ms");
  Put(m, "sim_txn_samples", double(pooled.size()), "count");
  Put(m, "sim_service_p50_ms", Percentile(service_ns, 0.50) / 1e6, "ms");
  Put(m, "sim_service_p99_ms", Percentile(service_ns, 0.99) / 1e6, "ms");
  Put(m, "sim_max_rate_txn_per_s",
      MaxRateWithinLimit(service_ns, spec.latency_limit_ms * 1e6,
                         seed),
      "1/s");
  Put(m, "flash_writes_per_txn", PerTxn(double(d.flash_programs), n), "count");
  Put(m, "host.makespan_ms", double(elapsed) / 1e6, "ms");
  Put(m, "host.device_wait_ms_per_txn", PerTxn(double(d.waited) / 1e6, n),
      "ms");
  Put(m, "host.busy_frac",
      elapsed == 0 ? 0.0 : 1.0 - double(d.waited) / double(elapsed), "ratio");
  if (!spec.tiny && SamplesBeyond(pooled.size(), 0.99) < 10) {
    out->violations.push_back("fewer than 10 latency samples beyond p99");
  }
}

void PutTracerRows(xftl::trace::Tracer* tracer, Metrics* m) {
  using xftl::trace::Layer;
  using xftl::trace::Op;
  struct Row {
    const char* name;
    Layer layer;
    Op op;
  };
  const Row rows[] = {
      {"trace.sql.commit", Layer::kSql, Op::kCommit},
      {"trace.fs.fsync", Layer::kFs, Op::kFsync},
      {"trace.sata.tx_commit", Layer::kSata, Op::kTxCommit},
      {"trace.ftl.gc", Layer::kFtl, Op::kGc},
      {"trace.flash.program", Layer::kFlash, Op::kWrite},
      {"trace.flash.read", Layer::kFlash, Op::kRead},
  };
  for (const Row& r : rows) {
    const auto& hist = tracer->latency(r.layer, r.op);
    Put(m, std::string(r.name) + "_mean_us",
        hist.count() == 0 ? 0.0 : hist.Mean() / 1e3, "us");
    Put(m, std::string(r.name) + "_count", double(hist.count()), "count");
  }
}

void PutSpanMetrics(const SpanLog& spans, const std::vector<SpanOut>& outs,
                    uint64_t txns, double host_scale, Metrics* m) {
  auto agg = spans.Aggregate();
  for (const SpanOut& o : outs) {
    SpanLog::Agg a;
    if (auto it = agg.find(o.span); it != agg.end()) a = it->second;
    const double div = o.per_call ? double(a.count) : double(txns);
    const double host_s = div == 0 ? 0.0 : a.self_host_s * host_scale / div;
    const double sim_ns = div == 0 ? 0.0 : a.self_sim_ns / div;
    const std::string base = o.metric;
    if (o.host_in_ms) {
      Put(m, base + "_host_ms", host_s * 1e3, "ms");
    } else {
      Put(m, base + "_host_us", host_s * 1e6, "us");
    }
    if (o.sim) Put(m, base + "_sim_ms", sim_ns / 1e6, "ms");
  }
}

void PutRestartMetrics(Harness* h, xftl::sql::Database* db, SimNanos cut,
                       SimNanos device_up, Metrics* m) {
  const SimNanos now = h->clock()->Now();
  Put(m, "sim_restart_ms", double(now - cut) / 1e6, "ms");
  Put(m, "restart.device_ms", double(device_up - cut) / 1e6, "ms");
  Put(m, "pager.recovery_ms", double(db->last_recovery_nanos()) / 1e6, "ms");
  double xftl_ns = 0;
  for (uint32_t i = 0; i < h->num_devices(); ++i) {
    if (auto* x = h->ssd(i)->xftl(); x != nullptr) {
      xftl_ns += double(x->xstats().last_recovery_nanos);
    }
  }
  Put(m, "xftl.recovery_ms", xftl_ns / 1e6, "ms");
}

void FsckFinalImage(Harness* h, std::vector<std::string>* violations) {
  for (uint32_t i = 0; i < h->num_devices(); ++i) {
    xftl::storage::SimSsd* ssd = h->ssd(i);
    auto* pftl = dynamic_cast<xftl::ftl::PageFtl*>(ssd->ftl());
    if (pftl == nullptr) {
      violations->push_back("fsck: member " + std::to_string(i) +
                            " is not a page-mapped FTL");
      continue;
    }
    xftl::check::FsckOptions opt;
    opt.ftl = pftl->ftl_config();
    opt.transactional = ssd->xftl() != nullptr;
    if (h->volume() != nullptr) {
      h->volume()->CutPowerMember(i);
    } else {
      ssd->CutPower();
    }
    xftl::check::FsckReport rep = xftl::check::CheckImage(*ssd->flash(), opt);
    if (!rep.ok()) {
      violations->push_back("fsck member " + std::to_string(i) + ": " +
                            rep.Summary());
    }
  }
}

bool Ok(const xftl::Status& st, const std::string& where, RoundResult* out) {
  if (!st.ok()) out->violations.push_back(where + ": " + st.ToString());
  return st.ok();
}

}  // namespace perfbench
