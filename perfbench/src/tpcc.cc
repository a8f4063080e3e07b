// tpcc-read: the TPC-C read-intensive mix of the paper's Table 3 (50%
// order-status, 45% stock-level, 5% new-order) on X-FTL, with SQL and fs
// caches far smaller than the database so reads go to flash. The benchmark
// deals the transaction types from a seeded deck; the program's Tpcc class
// draws each transaction's parameters from a seed the benchmark derives.
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sql/btree_check.h"
#include "storage/sim_ssd.h"
#include "workload/tpcc.h"
#include "workloads.h"

namespace perfbench {

namespace {

using xftl::SimNanos;
using xftl::Status;
using xftl::sql::Database;
using xftl::workload::Harness;

struct TpccRoundScale {
  xftl::workload::TpccScale tpcc;
  uint32_t warm_txns;
  uint32_t txns;
};

TpccRoundScale ScaleFor(bool tiny, uint64_t seed) {
  TpccRoundScale s;
  s.tpcc.warehouses = tiny ? 1 : 2;
  s.tpcc.items = tiny ? 200 : 1000;
  s.tpcc.customers_per_district = tiny ? 10 : 30;
  s.tpcc.initial_orders_per_district = tiny ? 10 : 30;
  s.tpcc.seed = seed;
  s.warm_txns = tiny ? 20 : 100;
  s.txns = 1000;
  return s;
}

class TpccRound {
 public:
  TpccRound(const RoundSpec& spec, RoundResult* out)
      : spec_(spec), scale_(ScaleFor(spec.tiny, SubSeed(spec.seed, 3))),
        out_(out), rng_(SubSeed(spec.seed, 4)) {}

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
    hc.setup = xftl::workload::Setup::kXftl;
    hc.db_cache_pages = spec_.sql_cache_pages;
    hc.fs_cache_pages = spec_.fs_cache_pages;
    hc.commit_mode = spec_.commit_mode;
    hc.seed = SubSeed(spec_.seed, 1);
    h_ = std::make_unique<Harness>(hc);
    XFTL_RETURN_IF_ERROR(h_->Setup());
    out_->setup.Tick();
    XFTL_ASSIGN_OR_RETURN(db_, h_->OpenDatabase("tpcc.db"));
    tpcc_ = std::make_unique<xftl::workload::Tpcc>(db_, h_->clock(),
                                                   scale_.tpcc);
    XFTL_RETURN_IF_ERROR(tpcc_->Load());
    out_->setup.Tick();
    XFTL_ASSIGN_OR_RETURN(orders_before_, Count("orders"));
    XFTL_ASSIGN_OR_RETURN(new_order_before_, Count("new_order"));
    if (spec_.corrupt_check) new_order_before_ += 1;
    for (uint32_t t = 0; t < scale_.warm_txns; ++t) {
      XFTL_RETURN_IF_ERROR(Txn());
      out_->setup.Tick();
    }
    out_->notes.push_back(
        "db " + std::to_string(db_->pager()->page_count()) + " pages of " +
        std::to_string(db_->pager()->page_size()) + " B; sql cache " +
        std::to_string(hc.db_cache_pages) + " pages, fs cache " +
        std::to_string(hc.fs_cache_pages) + " pages");
    return Status::OK();
  }

  xftl::StatusOr<int64_t> Count(const std::string& table) {
    XFTL_ASSIGN_OR_RETURN(auto rs, db_->Exec("SELECT COUNT(*) FROM " + table));
    if (rs.rows.size() != 1) return Status::Corruption("COUNT(*) " + table);
    return rs.rows[0][0].AsInt();
  }

  // The mix comes from a shuffled deck of 20 cards (10 order-status, 9
  // stock-level, 1 new-order), as TPC-C deals its mix: every 20 txns hold
  // the exact 50/45/5 shares, and only their order depends on the seed.
  enum Card { kOrderStatus, kStockLevel, kNewOrder };
  int NextCard() {
    if (deck_pos_ == deck_.size()) {
      deck_.assign(10, kOrderStatus);
      deck_.insert(deck_.end(), 9, kStockLevel);
      deck_.push_back(kNewOrder);
      for (size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.Uniform(i + 1)]);
      }
      deck_pos_ = 0;
    }
    return deck_[deck_pos_++];
  }

  Status Txn() {
    xftl::SimClock* clock = h_->clock();
    SpanLog* spans = &out_->spans;
    ScopedSpan txn(spans, "txn", clock);
    const int card = NextCard();
    if (card == kOrderStatus) {
      ScopedSpan s(spans, "tpcc.order_status", clock);
      return tpcc_->OrderStatus();
    }
    if (card == kStockLevel) {
      ScopedSpan s(spans, "tpcc.stock_level", clock);
      return tpcc_->StockLevel();
    }
    ScopedSpan s(spans, "tpcc.new_order", clock);
    XFTL_RETURN_IF_ERROR(tpcc_->NewOrder());
    new_orders_++;
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
    if (spec_.traced) PutTracerRows(h_->tracer(), &out_->traced);
    out_->spans.SetTxn(0);
    return Status::OK();
  }

  Status RestartAndVerify() {
    xftl::SimClock* clock = h_->clock();
    // In flight at the cut: a new order's district bump and order row.
    XFTL_RETURN_IF_ERROR(db_->Begin());
    XFTL_RETURN_IF_ERROR(
        db_->Exec("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE "
                  "d_key = 1")
            .status());
    XFTL_RETURN_IF_ERROR(
        db_->Exec("INSERT INTO orders (o_id, o_d_id, o_w_id, o_c_id, "
                  "o_carrier_id, o_ol_cnt, o_all_local) VALUES (1000000, 1, "
                  "1, 1, NULL, 0, 1)")
            .status());
    const SimNanos cut = clock->Now();
    db_ = nullptr;
    tpcc_.reset();
    XFTL_RETURN_IF_ERROR(h_->CrashAndRecover());
    const SimNanos device_up = clock->Now();
    XFTL_ASSIGN_OR_RETURN(db_, h_->OpenDatabase("tpcc.db"));
    XFTL_ASSIGN_OR_RETURN(
        auto first,
        db_->Exec("SELECT d_next_o_id FROM district WHERE d_key = 1"));
    PutRestartMetrics(h_.get(), db_, cut, device_up, &out_->sim);
    if (first.rows.size() != 1) {
      out_->violations.push_back("first query after restart: no district");
    }
    XFTL_RETURN_IF_ERROR(CheckInvariants());
    return h_->CloseDatabase("tpcc.db");
  }

  // TPC-C consistency conditions that the read mix must preserve, plus the
  // row counts the loader and the committed new-orders imply.
  Status CheckInvariants() {
    const auto& sc = scale_.tpcc;
    const int64_t districts = int64_t(sc.warehouses) * sc.districts_per_warehouse;
    const std::pair<const char*, int64_t> fixed[] = {
        {"warehouse", sc.warehouses},
        {"district", districts},
        {"customer", districts * sc.customers_per_district},
        {"item", sc.items},
        {"stock", int64_t(sc.warehouses) * sc.items},
        {"orders", orders_before_ + int64_t(new_orders_)},
        {"new_order", new_order_before_ + int64_t(new_orders_)},
    };
    for (const auto& [table, want] : fixed) {
      XFTL_ASSIGN_OR_RETURN(int64_t got, Count(table));
      if (got != want) {
        out_->violations.push_back(std::string("tpcc: ") + table + " has " +
                                   std::to_string(got) + " rows, " +
                                   std::to_string(want) + " expected");
      }
    }
    // Per district: d_next_o_id - 1 = max(o_id) = number of orders.
    XFTL_ASSIGN_OR_RETURN(
        auto dist, db_->Exec("SELECT d_w_id, d_id, d_next_o_id FROM district"));
    XFTL_ASSIGN_OR_RETURN(
        auto ord, db_->Exec("SELECT o_w_id, o_d_id, COUNT(*), MAX(o_id), "
                            "SUM(o_ol_cnt) FROM orders GROUP BY o_w_id, "
                            "o_d_id"));
    std::map<std::pair<int64_t, int64_t>, std::tuple<int64_t, int64_t>> per;
    int64_t ol_expected = 0;
    for (const auto& row : ord.rows) {
      per[{row[0].AsInt(), row[1].AsInt()}] = {row[2].AsInt(),
                                               row[3].AsInt()};
      ol_expected += row[4].AsInt();
    }
    for (const auto& row : dist.rows) {
      const int64_t next = row[2].AsInt();
      auto it = per.find({row[0].AsInt(), row[1].AsInt()});
      const int64_t count = it == per.end() ? 0 : std::get<0>(it->second);
      const int64_t max_id = it == per.end() ? 0 : std::get<1>(it->second);
      if (next - 1 != count || next - 1 != max_id) {
        out_->violations.push_back(
            "tpcc: district (" + row[0].AsText() + "," + row[1].AsText() +
            ") d_next_o_id " + std::to_string(next) + " vs " +
            std::to_string(count) + " orders, max o_id " +
            std::to_string(max_id));
      }
    }
    XFTL_ASSIGN_OR_RETURN(int64_t order_lines, Count("order_line"));
    if (order_lines != ol_expected) {
      out_->violations.push_back("tpcc: " + std::to_string(order_lines) +
                                 " order lines, orders claim " +
                                 std::to_string(ol_expected));
    }
    auto trees = xftl::sql::CheckAllTrees(db_->pager());
    if (!trees.ok()) {
      out_->violations.push_back("btree_check: " +
                                 trees.status().ToString());
    }
    return Status::OK();
  }

  const RoundSpec spec_;
  const TpccRoundScale scale_;
  RoundResult* out_;
  InputRng rng_;
  std::unique_ptr<Harness> h_;
  Database* db_ = nullptr;
  std::unique_ptr<xftl::workload::Tpcc> tpcc_;
  int64_t orders_before_ = 0;
  int64_t new_order_before_ = 0;
  uint64_t new_orders_ = 0;
  std::vector<int> deck_;
  size_t deck_pos_ = 0;
};

}  // namespace

void RunTpccRead(const RoundSpec& spec, RoundResult* out) {
  TpccRound(spec, out).Run();
}

}  // namespace perfbench
