// synthetic-update and synthetic-update-wal: the paper's §6.2 partsupp
// table, five read+update pairs per transaction, closed loop, on a device
// aged to 50% GC validity. The benchmark generates every row and every
// update from the seed and keeps a shadow copy of each acknowledged value.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "sql/btree_check.h"
#include "storage/sim_ssd.h"
#include "workloads.h"

namespace perfbench {

namespace {

using xftl::SimNanos;
using xftl::Status;
using xftl::sql::Database;
using xftl::workload::Harness;

struct SynthScale {
  uint32_t tuples;
  uint32_t warm_txns;
  uint32_t txns;
  uint32_t device_blocks;
};

constexpr uint32_t kTupleBytes = 220;
constexpr uint32_t kUpdatesPerTxn = 5;
constexpr uint32_t kInflightUpdates = 10;
// Acknowledged costs are below this many cents; the in-flight txn writes
// values at or above it, so a leaked in-flight value cannot look acked.
constexpr int64_t kInflightCents = 100000;

SynthScale ScaleFor(bool tiny) {
  return tiny ? SynthScale{3000, 20, 1000, 64}
              : SynthScale{60000, 200, 10000, 256};
}

std::string CostLiteral(int64_t cents) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%02lld", (long long)(cents / 100),
                (long long)(cents % 100));
  return buf;
}

int64_t CentsOf(const xftl::sql::Value& v) {
  return int64_t(std::llround(v.AsReal() * 100.0));
}

class SyntheticRound {
 public:
  SyntheticRound(const RoundSpec& spec, bool wal, RoundResult* out)
      : spec_(spec), wal_(wal), scale_(ScaleFor(spec.tiny)), out_(out),
        rng_(SubSeed(spec.seed, 2)), shadow_(scale_.tuples + 1, 0) {}

  void Run() {
    out_->setup.Begin();
    Status st = Setup();
    out_->setup.End();
    if (!Ok(st, "setup", out_) || spec_.warm_up) return;
    if (!Ok(Measure(), "measured phase", out_)) return;
    if (!Ok(RestartAndVerify(), "restart", out_)) return;
    FsckFinalImage(h_.get(), &out_->violations);
  }

 private:
  Status Setup() {
    xftl::workload::HarnessConfig hc;
    hc.setup = wal_ ? xftl::workload::Setup::kWal
                    : xftl::workload::Setup::kXftl;
    hc.device_blocks = scale_.device_blocks;
    hc.gc_valid_target = 0.5;
    hc.db_cache_pages = spec_.sql_cache_pages;
    hc.fs_cache_pages = spec_.fs_cache_pages;
    hc.commit_mode = spec_.commit_mode;
    hc.seed = SubSeed(spec_.seed, 1);
    h_ = std::make_unique<Harness>(hc);
    XFTL_RETURN_IF_ERROR(h_->Setup());
    out_->setup.Tick();
    XFTL_ASSIGN_OR_RETURN(db_, h_->OpenDatabase("partsupp.db"));
    XFTL_RETURN_IF_ERROR(Load());
    if (spec_.corrupt_check) shadow_[1] += 1;
    for (uint32_t t = 0; t < scale_.warm_txns; ++t) {
      XFTL_RETURN_IF_ERROR(Txn());
      out_->setup.Tick();
    }
    out_->notes.push_back(
        "db " + std::to_string(db_->pager()->page_count()) + " pages of " +
        std::to_string(db_->pager()->page_size()) + " B; sql cache " +
        std::to_string(hc.db_cache_pages) + " pages, fs cache " +
        std::to_string(hc.fs_cache_pages) + " pages; aged GC validity " +
        std::to_string(h_->aged_validity()));
    return Status::OK();
  }

  // Same row shape as the paper's dbgen partsupp (~220 B with the comment
  // padding), 64 rows per INSERT, committed every 4096 rows.
  Status Load() {
    XFTL_RETURN_IF_ERROR(
        db_->Exec("CREATE TABLE partsupp (ps_partkey INTEGER PRIMARY KEY, "
                  "ps_suppkey INT, ps_availqty INT, ps_supplycost REAL, "
                  "ps_comment TEXT)")
            .status());
    const uint32_t pad = kTupleBytes - 60;
    XFTL_RETURN_IF_ERROR(db_->Begin());
    std::string sql;
    for (uint32_t key = 1; key <= scale_.tuples; ++key) {
      sql += sql.empty() ? "INSERT INTO partsupp VALUES " : ", ";
      shadow_[key] = int64_t(rng_.Uniform(kInflightCents));
      sql += "(" + std::to_string(key) + ", " +
             std::to_string(1 + rng_.Uniform(1000)) + ", " +
             std::to_string(rng_.Uniform(10000)) + ", " +
             CostLiteral(shadow_[key]) + ", '" + rng_.Alpha(pad) + "')";
      if (key % 64 == 0 || key == scale_.tuples) {
        XFTL_RETURN_IF_ERROR(db_->Exec(sql).status());
        sql.clear();
        out_->setup.Tick();
      }
      if (key % 4096 == 0) {
        XFTL_RETURN_IF_ERROR(db_->Commit());
        XFTL_RETURN_IF_ERROR(db_->Begin());
      }
    }
    return db_->Commit();
  }

  // One transaction: five SELECT-then-UPDATE pairs on random keys. Every
  // SELECT is checked against the shadow; the shadow takes the new values
  // only once COMMIT is acknowledged.
  Status Txn() {
    xftl::SimClock* clock = h_->clock();
    SpanLog* spans = &out_->spans;
    ScopedSpan txn(spans, "txn", clock);
    {
      ScopedSpan s(spans, "sql.begin", clock);
      XFTL_RETURN_IF_ERROR(db_->Begin());
    }
    std::vector<std::pair<uint32_t, int64_t>> pending;
    for (uint32_t u = 0; u < kUpdatesPerTxn; ++u) {
      const uint32_t key = uint32_t(1 + rng_.Uniform(scale_.tuples));
      const int64_t cents = int64_t(rng_.Uniform(kInflightCents));
      int64_t expect = shadow_[key];
      for (const auto& [k, c] : pending) {
        if (k == key) expect = c;
      }
      {
        ScopedSpan s(spans, "sql.select", clock);
        XFTL_ASSIGN_OR_RETURN(
            auto rs, db_->Exec("SELECT ps_supplycost FROM partsupp WHERE "
                               "ps_partkey = " + std::to_string(key)));
        if (rs.rows.size() != 1 || CentsOf(rs.rows[0][0]) != expect) {
          out_->violations.push_back("read of key " + std::to_string(key) +
                                     " returned a value never written");
        }
      }
      {
        ScopedSpan s(spans, "sql.update", clock);
        XFTL_RETURN_IF_ERROR(
            db_->Exec("UPDATE partsupp SET ps_supplycost = " +
                      CostLiteral(cents) +
                      " WHERE ps_partkey = " + std::to_string(key))
                .status());
      }
      pending.emplace_back(key, cents);
    }
    {
      ScopedSpan s(spans, "sql.commit", clock);
      XFTL_RETURN_IF_ERROR(db_->Commit());
    }
    for (const auto& [k, c] : pending) shadow_[k] = c;
    return Status::OK();
  }

  Status Measure() {
    xftl::SimClock* clock = h_->clock();
    if (spec_.traced) {
      XFTL_RETURN_IF_ERROR(h_->EnableTracing(""));
      out_->spans.Enable();
    }
    const Counters c0 = Collect(h_.get(), {db_});
    const SimNanos t0 = clock->Now();
    std::vector<double> latency;
    latency.reserve(scale_.txns);
    out_->measured.Begin();
    for (uint32_t t = 0; t < scale_.txns; ++t) {
      out_->spans.SetTxn(t + 1);
      const SimNanos s0 = clock->Now();
      out_->attempted++;
      Status st = Txn();
      if (!st.ok()) {
        out_->failed++;
        out_->measured.End();
        return st;
      }
      out_->committed++;
      latency.push_back(double(clock->Now() - s0));
      out_->measured.Tick();
    }
    out_->measured.End();
    const SimNanos elapsed = clock->Now() - t0;
    const Counters d = Minus(Collect(h_.get(), {db_}), c0);
    PutClosedLoopMetrics(latency, elapsed, d, spec_, out_);
    PutLayerCounts(d, scale_.txns,
                   h_->ssd()->flash()->config().pages_per_block, &out_->sim);
    if (spec_.traced) {
      PutTracerRows(h_->tracer(), &out_->traced);
      out_->spans.SetTxn(0);
    }
    return Status::OK();
  }

  // Mid-transaction power cut, restart, then the durability check: every
  // acknowledged value present, nothing of the in-flight txn visible.
  Status RestartAndVerify() {
    xftl::SimClock* clock = h_->clock();
    XFTL_RETURN_IF_ERROR(db_->Begin());
    std::vector<uint32_t> inflight_keys;
    for (uint32_t u = 0; u < kInflightUpdates; ++u) {
      const uint32_t key = uint32_t(1 + rng_.Uniform(scale_.tuples));
      inflight_keys.push_back(key);
      XFTL_RETURN_IF_ERROR(
          db_->Exec("UPDATE partsupp SET ps_supplycost = " +
                    CostLiteral(kInflightCents + u) +
                    " WHERE ps_partkey = " + std::to_string(key))
              .status());
    }
    const SimNanos cut = clock->Now();
    db_ = nullptr;
    XFTL_RETURN_IF_ERROR(h_->CrashAndRecover());
    const SimNanos device_up = clock->Now();
    XFTL_ASSIGN_OR_RETURN(db_, h_->OpenDatabase("partsupp.db"));
    XFTL_ASSIGN_OR_RETURN(
        auto first,
        db_->Exec("SELECT ps_supplycost FROM partsupp WHERE ps_partkey = " +
                  std::to_string(inflight_keys[0])));
    PutRestartMetrics(h_.get(), db_, cut, device_up, &out_->sim);
    if (first.rows.size() != 1 ||
        CentsOf(first.rows[0][0]) != shadow_[inflight_keys[0]]) {
      out_->violations.push_back("first query after restart: wrong value");
    }

    XFTL_ASSIGN_OR_RETURN(
        auto all,
        db_->Exec("SELECT ps_partkey, ps_supplycost FROM partsupp"));
    if (all.rows.size() != scale_.tuples) {
      out_->violations.push_back(
          "after restart: " + std::to_string(all.rows.size()) + " rows, " +
          std::to_string(scale_.tuples) + " expected");
    }
    uint64_t lost = 0, leaked = 0;
    std::string first_lost;
    for (const auto& row : all.rows) {
      const int64_t key = row[0].AsInt();
      const int64_t cents = CentsOf(row[1]);
      if (key < 1 || key > int64_t(scale_.tuples)) {
        lost++;
      } else if (cents >= kInflightCents) {
        leaked++;
      } else if (cents != shadow_[size_t(key)]) {
        if (lost == 0) {
          first_lost = " (key " + std::to_string(key) + " holds " +
                       CostLiteral(cents) + ", acknowledged " +
                       CostLiteral(shadow_[size_t(key)]) + ")";
        }
        lost++;
      }
    }
    if (lost != 0) {
      out_->violations.push_back(std::to_string(lost) +
                                 " acknowledged updates lost after restart" +
                                 first_lost);
    }
    if (leaked != 0) {
      out_->violations.push_back(std::to_string(leaked) +
                                 " in-flight updates visible after restart");
    }
    auto trees = xftl::sql::CheckAllTrees(db_->pager());
    if (!trees.ok()) {
      out_->violations.push_back("btree_check: " +
                                 trees.status().ToString());
    }
    return h_->CloseDatabase("partsupp.db");
  }

  const RoundSpec spec_;
  const bool wal_;
  const SynthScale scale_;
  RoundResult* out_;
  InputRng rng_;
  std::vector<int64_t> shadow_;  // acknowledged supplycost per key, cents
  std::unique_ptr<Harness> h_;
  Database* db_ = nullptr;
};

}  // namespace

void RunSynthetic(const RoundSpec& spec, bool wal, RoundResult* out) {
  SyntheticRound(spec, wal, out).Run();
}

}  // namespace perfbench
