// host-array: X-FTL on a 4-member striped S830 volume (PLP commit) with
// two-phase commit across members, driven by 4 open-loop Poisson sessions
// of 1-row auto-commit inserts. Each offered rate runs on a fresh stack; the
// benchmark steps the program's session scheduler one dispatch at a time so
// it records every transaction's exact latency (completion minus its due
// time), and searches for the highest rate that meets the p99 limit
// without a growing backlog.
#include <memory>
#include <string>
#include <vector>

#include "host/scheduler.h"
#include "host/session.h"
#include "host/volume.h"
#include "storage/sim_ssd.h"
#include "workloads.h"

namespace perfbench {

namespace {

using xftl::SimNanos;
using xftl::Status;
using xftl::workload::Harness;

constexpr uint32_t kSessions = 4;
constexpr uint32_t kDevices = 4;
// Aggregate offered rates (txn/s) bracketing the knee of the array; the
// end-to-end rate and latency are those at the spec's nominal rate.
constexpr double kRates[] = {6000, 9000, 12000};
// The max-rate search bisects between these bounds.
constexpr double kSearchLo = 4000, kSearchHi = 16000;
constexpr int kSearchProbes = 8;
constexpr uint32_t kDeviceBlocks = 256;
constexpr uint64_t kTxnsPerSession = 2000;
constexpr int kNominalReplicas = 4;
constexpr int kProbe = -1;

struct RatePoint {
  double rate = 0;
  std::vector<double> latency_ns;
  SimNanos makespan = 0;
  uint64_t committed = 0;
  SimNanos busy = 0, waited = 0;
};

class ArrayRound {
 public:
  ArrayRound(const RoundSpec& spec, RoundResult* out)
      : spec_(spec), out_(out),
        txns_per_session_(spec.tiny ? 250 : kTxnsPerSession),
        limit_ns_(spec.latency_limit_ms * 1e6) {}

  void Run() {
    // The nominal rate pools kNominalReplicas fresh arrays with independent
    // arrival streams; the last one takes the power cut.
    RatePoint nominal;
    for (int r = 0; r < kNominalReplicas; ++r) {
      if (!RunPoint(spec_.nominal_rate, r, &nominal)) return;
    }
    const uint32_t ppb = nominal_pages_per_block_;
    PutLayerCounts(nominal_counts_, nominal.committed, ppb, &out_->sim);
    Put(&out_->sim, "flash_writes_per_txn",
        PerTxn(double(nominal_counts_.flash_programs), nominal.committed),
        "count");
    ReportRate(nominal, true);
    for (double rate : kRates) {
      RatePoint p;
      if (!RunPoint(rate, kProbe, &p)) return;
      ReportRate(p, false);
    }
    // Bisection on the aggregate rate.
    double lo = kSearchLo, hi = kSearchHi;
    for (int i = 0; i < kSearchProbes; ++i) {
      const double mid = 0.5 * (lo + hi);
      RatePoint p;
      if (!RunPoint(mid, kProbe, &p)) return;
      (Meets(p) ? lo : hi) = mid;
    }
    Put(&out_->sim, "sim_max_rate_txn_per_s", lo, "1/s");
  }

 private:
  bool Meets(const RatePoint& p) const {
    return MeetsLimit(p.latency_ns, limit_ns_);
  }

  // Each run is a fresh array at the round's seed, so rate points are
  // independent and the search is monotone in the rate. `replica` is the
  // nominal replica index, or kProbe for any other rate.
  bool RunPoint(double rate, int replica, RatePoint* p) {
    const bool nominal = replica != kProbe;
    const bool cut = replica == kNominalReplicas - 1;
    const std::string where = "rate " + std::to_string(int(rate));
    std::vector<xftl::sql::Database*> dbs;
    std::vector<std::unique_ptr<xftl::host::Session>> sessions;
    std::vector<xftl::host::Session*> raw;
    out_->setup.Begin();
    xftl::workload::HarnessConfig hc;
    hc.setup = xftl::workload::Setup::kXftl;
    hc.s830 = true;
    hc.num_devices = kDevices;
    hc.stripe_pages = 64;
    hc.device_blocks = kDeviceBlocks;
    hc.two_phase_commit = true;
    hc.cpu_per_statement = xftl::Micros(10);
    hc.db_cache_pages = spec_.sql_cache_pages;
    hc.fs_cache_pages = spec_.fs_cache_pages;
    hc.commit_mode = spec_.commit_mode;
    hc.seed = SubSeed(spec_.seed, 1);
    auto h = std::make_unique<Harness>(hc);
    Status st = h->Setup();
    for (uint32_t k = 1; st.ok() && k <= kSessions; ++k) {
      auto db = h->OpenDatabase(DbName(k));
      if (!db.ok()) {
        st = db.status();
        break;
      }
      dbs.push_back(*db);
      xftl::host::SessionConfig sc;
      sc.id = k;
      sc.txns = txns_per_session_;
      sc.rows_per_txn = 1;
      sc.explicit_txn = false;
      sc.open_loop = true;
      sc.rate_per_sec = rate / kSessions;
      sc.seed = SubSeed(spec_.seed, 5 + uint64_t(std::max(replica, 0)));
      sessions.push_back(std::make_unique<xftl::host::Session>(sc, *db));
      raw.push_back(sessions.back().get());
      st = sessions.back()->Init();
    }
    out_->setup.End();
    if (!Ok(st, where + " setup", out_)) return false;
    if (spec_.traced) {
      if (!Ok(h->EnableTracing(""), where + " tracing", out_)) return false;
      out_->spans.Enable();
    }

    xftl::SimClock* clock = h->clock();
    const Counters c0 = Collect(h.get(), dbs);
    const SimNanos start = clock->Now();
    p->rate = rate;
    // The last nominal replica ends in a power cut at a random instant in
    // its last 2.5%, so the state recovery meets depends on the seed (a
    // wider window spreads the restart time by over 7% between seeds).
    uint64_t budget = uint64_t(kSessions) * txns_per_session_;
    if (cut) {
      budget -= InputRng(SubSeed(spec_.seed, 6)).Uniform(budget / 40);
    }
    {
      xftl::host::SessionScheduler sched(clock, raw, h->tracer());
      const auto& prog = sched.progress();
      // Each session's state before a step. The step's dispatch is that of
      // the one session whose count went up: it was due at its recorded
      // next arrival and started once that and its previous completion had
      // both passed.
      struct Before {
        SimNanos due, ready;
        uint64_t dispatched;
      };
      std::vector<Before> before(prog.size());
      out_->measured.Begin();
      for (uint64_t n = 0; n < budget; ++n) {
        for (size_t i = 0; i < prog.size(); ++i) {
          before[i] = {prog[i].next_arrival,
                       std::max(prog[i].next_arrival, prog[i].prev_done),
                       prog[i].session->dispatched()};
        }
        out_->spans.SetTxn(out_->attempted + 1);
        const int span = out_->spans.Open("host.dispatch", clock->Now());
        out_->attempted++;
        auto steps = sched.RunSteps(1);
        size_t ran = prog.size(), advanced = 0;
        for (size_t i = 0; steps.ok() && i < prog.size(); ++i) {
          if (prog[i].session->dispatched() != before[i].dispatched) {
            ran = i;
            advanced++;
          }
        }
        if (!steps.ok() || *steps != 1 || advanced != 1) {
          out_->failed++;
          out_->measured.End();
          return Ok(steps.ok() ? Status::Corruption(
                                     "one scheduler step advanced " +
                                     std::to_string(advanced) + " sessions")
                               : steps.status(),
                    where, out_);
        }
        const SimNanos done = prog[ran].prev_done;
        out_->spans.SetSimStart(span, before[ran].ready);
        out_->spans.Close(span, done);
        out_->committed++;
        p->latency_ns.push_back(double(done - before[ran].due));
        out_->measured.Tick();
      }
      out_->measured.End();
      p->makespan += sched.makespan() - start;
      for (const auto& sp : prog) {
        p->busy += sp.busy;
        p->waited += sp.waited;
        p->committed += sp.session->committed();
      }
    }
    out_->spans.SetTxn(0);
    if (!nominal) return true;

    Accumulate(Minus(Collect(h.get(), dbs), c0), &nominal_counts_);
    nominal_pages_per_block_ = h->ssd(0)->flash()->config().pages_per_block;
    if (!cut) return true;
    if (spec_.traced) PutTracerRows(h->tracer(), &out_->traced);
    for (auto* s : raw) s->DetachDb();
    if (!Ok(RestartAndVerify(h.get(), raw), where + " restart", out_)) {
      return false;
    }
    FsckFinalImage(h.get(), &out_->violations);
    return true;
  }

  static std::string DbName(uint32_t k) {
    return "s" + std::to_string(k) + ".db";
  }

  // Mid-txn whole-array power cut under load: session 1 has an uncommitted
  // insert of its next row. After restart every session must hold exactly its
  // acknowledged txns (PLP makes ack == durable) and nothing of the
  // in-flight one.
  Status RestartAndVerify(Harness* h,
                          const std::vector<xftl::host::Session*>& sessions) {
    XFTL_ASSIGN_OR_RETURN(xftl::sql::Database * db, h->OpenDatabase(DbName(1)));
    const uint64_t next = sessions[0]->committed() + 1;
    XFTL_RETURN_IF_ERROR(db->Begin());
    XFTL_RETURN_IF_ERROR(
        db->Exec("INSERT INTO t VALUES (" + std::to_string(next) + ", " +
                 std::to_string(next * 7) + ", 'v" + std::to_string(next) +
                 "')")
            .status());
    const SimNanos cut = h->clock()->Now();
    XFTL_RETURN_IF_ERROR(h->CrashAndRecover());
    const SimNanos device_up = h->clock()->Now();
    for (uint32_t k = 1; k <= kSessions; ++k) {
      XFTL_ASSIGN_OR_RETURN(db, h->OpenDatabase(DbName(k)));
      if (k == 1) {
        XFTL_RETURN_IF_ERROR(db->Exec("SELECT COUNT(*) FROM t").status());
        PutRestartMetrics(h, db, cut, device_up, &out_->sim);
      }
      const uint64_t acked = sessions[k - 1]->committed() +
                             (spec_.corrupt_check && k == 1 ? 1 : 0);
      auto survived = xftl::host::Session::VerifyRecovered(db, 1, acked);
      if (!survived.ok()) {
        out_->violations.push_back(DbName(k) + ": " +
                                   survived.status().ToString());
      } else if (*survived != acked) {
        out_->violations.push_back(
            DbName(k) + ": " + std::to_string(*survived) +
            " txns after restart, " + std::to_string(acked) + " acknowledged");
      }
      XFTL_RETURN_IF_ERROR(h->CloseDatabase(DbName(k)));
    }
    return Status::OK();
  }

  void ReportRate(const RatePoint& p, bool nominal) {
    const double tput = p.makespan == 0
                            ? 0.0
                            : double(p.committed) * 1e9 / double(p.makespan);
    const double p50 = Percentile(p.latency_ns, 0.50) / 1e6;
    const double p99 = Percentile(p.latency_ns, 0.99) / 1e6;
    const double active = double(p.busy + p.waited);
    const double busy_frac = active == 0 ? 0.0 : double(p.busy) / active;
    const double wait_ms = PerTxn(double(p.waited) / 1e6, p.committed);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "rate %6.0f txn/s: %8.1f txn/s, p50 %.3f ms, p99 %.3f ms "
                  "(%zu samples), busy %.3f, wait %.3f ms/txn, makespan "
                  "%.1f ms%s",
                  p.rate, tput, p50, p99, p.latency_ns.size(), busy_frac,
                  wait_ms, double(p.makespan) / 1e6,
                  Meets(p) ? "" : "  [misses limit]");
    out_->notes.push_back(line);
    const std::string tag = "rate." + std::to_string(int(p.rate)) + ".";
    Put(&out_->sim, tag + "p99_ms", p99, "ms");
    Put(&out_->sim, tag + "txn_per_s", tput, "1/s");
    if (!nominal) return;
    Put(&out_->sim, "sim_txn_per_s", tput, "1/s");
    Put(&out_->sim, "sim_txn_p50_ms", p50, "ms");
    Put(&out_->sim, "sim_txn_p99_ms", p99, "ms");
    Put(&out_->sim, "sim_txn_samples", double(p.latency_ns.size()), "count");
    Put(&out_->sim, "host.busy_frac", busy_frac, "ratio");
    Put(&out_->sim, "host.device_wait_ms_per_txn", wait_ms, "ms");
    Put(&out_->sim, "host.makespan_ms", double(p.makespan) / 1e6, "ms");
    if (!spec_.tiny && SamplesBeyond(p.latency_ns.size(), 0.99) < 10) {
      out_->violations.push_back("fewer than 10 latency samples beyond p99");
    }
  }

  const RoundSpec spec_;
  RoundResult* out_;
  const uint64_t txns_per_session_;
  const double limit_ns_;
  Counters nominal_counts_;
  uint32_t nominal_pages_per_block_ = 0;
};

}  // namespace

void RunHostArray(const RoundSpec& spec, RoundResult* out) {
  ArrayRound(spec, out).Run();
}

}  // namespace perfbench
