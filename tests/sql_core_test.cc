// Tests for MiniSQLite's lower layers: Value, Record, tokenizer, parser,
// pager (journal modes incl. steal/force + recovery) and B+tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
#include <map>
#include <set>

#include "common/coding.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "fs/ext_fs.h"
#include "sql/btree.h"
#include "sql/btree_check.h"
#include "sql/pager.h"
#include "sql/parser.h"
#include "sql/record.h"
#include "storage/sim_ssd.h"

namespace xftl::sql {
namespace {

// --- Value / Record ---------------------------------------------------------

TEST(ValueTest, TypeOrdering) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(5).Compare(Value::Text("a")), 0);
  EXPECT_LT(Value::Text("z").Compare(Value::Blob({0})), 0);
}

TEST(ValueTest, NumericComparisonAcrossIntReal) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Real(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Real(2.5)), 0);
  EXPECT_GT(Value::Real(3.1).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, TextComparison) {
  EXPECT_LT(Value::Text("abc").Compare(Value::Text("abd")), 0);
  EXPECT_EQ(Value::Text("abc").Compare(Value::Text("abc")), 0);
}

TEST(ValueTest, Coercions) {
  EXPECT_EQ(Value::Text("42").AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Text("2.5").AsReal(), 2.5);
  EXPECT_EQ(Value::Real(7.9).AsInt(), 7);
  EXPECT_EQ(Value::Null().AsInt(), 0);
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Int(0).Truthy());
  EXPECT_TRUE(Value::Int(1).Truthy());
  EXPECT_TRUE(Value::Text("x").Truthy());
}

TEST(RecordTest, RoundTripAllTypes) {
  Row row = {Value::Null(), Value::Int(-17), Value::Real(3.25),
             Value::Text("hello"), Value::Blob({1, 2, 3})};
  auto bytes = EncodeRecord(row);
  auto decoded = DecodeRecord(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i].Compare((*decoded)[i]), 0) << i;
  }
}

TEST(RecordTest, TruncationDetected) {
  Row row = {Value::Text("hello world")};
  auto bytes = EncodeRecord(row);
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(DecodeRecord(bytes).ok());
}

TEST(RecordTest, ComparisonIsLexicographic) {
  auto a = EncodeRecord({Value::Int(1), Value::Text("b")});
  auto b = EncodeRecord({Value::Int(1), Value::Text("c")});
  auto c = EncodeRecord({Value::Int(2)});
  EXPECT_LT(CompareEncodedRecords(a.data(), a.size(), b.data(), b.size()), 0);
  EXPECT_LT(CompareEncodedRecords(b.data(), b.size(), c.data(), c.size()), 0);
  // Prefix sorts first.
  auto p = EncodeRecord({Value::Int(1)});
  EXPECT_LT(CompareEncodedRecords(p.data(), p.size(), a.data(), a.size()), 0);
}

// A value drawn to hit Value::Compare's edge cases: int/real ties (3 vs
// 3.0), NaN, int64 extremes beyond a double's precision, text with bytes
// >= 0x80 and embedded NULs, and short blobs that are prefixes of each other.
Value RandomEdgeValue(Rng& rng) {
  static const char kAlphabet[] = {'a', 'b', '\0', '\x7f', '\x80', '\xff'};
  auto bytes = [&] {
    std::string s(rng.Uniform(4), ' ');
    for (char& c : s) c = kAlphabet[rng.Uniform(sizeof(kAlphabet))];
    return s;
  };
  switch (rng.Uniform(8)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(rng.UniformRange(-3, 3));
    case 2:
      return Value::Real(double(rng.UniformRange(-3, 3)));
    case 3:
      return Value::Real(rng.Bernoulli(0.3) ? std::nan("")
                                            : rng.UniformRange(-6, 6) / 2.0);
    case 4: {
      const int64_t kExtremes[] = {INT64_MIN, INT64_MAX, (int64_t(1) << 53) + 1,
                                   int64_t(1) << 53};
      return Value::Int(kExtremes[rng.Uniform(4)]);
    }
    case 5:
    case 6:
      return Value::Text(bytes());
    default: {
      std::string s = bytes();
      return Value::Blob(std::vector<uint8_t>(s.begin(), s.end()));
    }
  }
}

TEST(RecordTest, InPlaceCompareMatchesDecodedCompare) {
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    Row a(rng.Uniform(4));
    for (Value& v : a) v = RandomEdgeValue(rng);
    // Half the pairs share a prefix: b is a prefix of a, or a plus more.
    Row b;
    if (rng.Bernoulli(0.5)) {
      b.assign(a.begin(), a.begin() + rng.Uniform(a.size() + 1));
      while (rng.Bernoulli(0.4)) b.push_back(RandomEdgeValue(rng));
    } else {
      b.resize(rng.Uniform(4));
      for (Value& v : b) v = RandomEdgeValue(rng);
    }
    int want = 0;
    for (size_t k = 0; want == 0 && k < std::min(a.size(), b.size()); ++k) {
      want = a[k].Compare(b[k]);
    }
    if (want == 0 && a.size() != b.size()) want = a.size() < b.size() ? -1 : 1;

    auto ea = EncodeRecord(a);
    auto eb = EncodeRecord(b);
    ASSERT_EQ(CompareEncodedRecords(ea.data(), ea.size(), eb.data(), eb.size()),
              want)
        << "pair " << i;
    ASSERT_EQ(CompareEncodedRecords(eb.data(), eb.size(), ea.data(), ea.size()),
              -want)
        << "pair " << i;
  }
}

// --- parser -----------------------------------------------------------------

TEST(ParserTest, CreateTable) {
  auto stmt = ParseStatement(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* create = std::get_if<CreateTableStmt>(&stmt.value());
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->name, "t");
  ASSERT_EQ(create->columns.size(), 3u);
  EXPECT_TRUE(create->columns[0].primary_key);
  EXPECT_EQ(create->columns[1].name, "name");
}

TEST(ParserTest, CompositePrimaryKey) {
  auto stmt = ParseStatement(
      "CREATE TABLE w (w_id INT, d_id INT, x TEXT, PRIMARY KEY (w_id, d_id))");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* create = std::get_if<CreateTableStmt>(&stmt.value());
  ASSERT_NE(create, nullptr);
  EXPECT_TRUE(create->columns[0].primary_key);
  EXPECT_TRUE(create->columns[1].primary_key);
  EXPECT_FALSE(create->columns[2].primary_key);
}

TEST(ParserTest, InsertMultipleRows) {
  auto stmt = ParseStatement(
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'it''s')");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* insert = std::get_if<InsertStmt>(&stmt.value());
  ASSERT_NE(insert, nullptr);
  EXPECT_EQ(insert->rows.size(), 2u);
  EXPECT_EQ(insert->rows[1][1]->literal.AsText(), "it's");
}

TEST(ParserTest, SelectWithJoinWhereOrderLimit) {
  auto stmt = ParseStatement(
      "SELECT a.x, b.y FROM t1 a JOIN t2 b ON a.id = b.id "
      "WHERE a.x > 5 AND b.y LIKE 'foo%' ORDER BY a.x DESC LIMIT 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto* select = std::get_if<SelectStmt>(&stmt.value());
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->items.size(), 2u);
  EXPECT_EQ(select->joins.size(), 1u);
  EXPECT_EQ(select->order_by.size(), 1u);
  EXPECT_TRUE(select->order_by[0].descending);
  EXPECT_EQ(select->limit, 10);
}

TEST(ParserTest, Aggregates) {
  auto stmt = ParseStatement("SELECT COUNT(*), COUNT(DISTINCT x), SUM(y) FROM t");
  ASSERT_TRUE(stmt.ok());
  const auto* select = std::get_if<SelectStmt>(&stmt.value());
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->items[1].expr->func, "COUNT");
  EXPECT_TRUE(select->items[1].expr->distinct);
}

TEST(ParserTest, UpdateDelete) {
  auto u = ParseStatement("UPDATE t SET a = a + 1, b = 'z' WHERE id = 3");
  ASSERT_TRUE(u.ok());
  EXPECT_NE(std::get_if<UpdateStmt>(&u.value()), nullptr);
  auto d = ParseStatement("DELETE FROM t WHERE id >= 10");
  ASSERT_TRUE(d.ok());
  EXPECT_NE(std::get_if<DeleteStmt>(&d.value()), nullptr);
}

TEST(ParserTest, TransactionControl) {
  EXPECT_TRUE(std::holds_alternative<BeginStmt>(
      ParseStatement("BEGIN TRANSACTION").value()));
  EXPECT_TRUE(std::holds_alternative<CommitStmt>(
      ParseStatement("COMMIT").value()));
  EXPECT_TRUE(std::holds_alternative<RollbackStmt>(
      ParseStatement("ROLLBACK").value()));
}

TEST(ParserTest, ScriptSplitsStatements) {
  auto script = ParseScript(
      "CREATE TABLE a (x INT); INSERT INTO a VALUES (1); SELECT * FROM a;");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->size(), 3u);
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseStatement("FROB THE WIDGET").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES (1").ok());
}

// --- pager + btree fixtures ---------------------------------------------------

storage::SsdSpec TestSpec() {
  storage::SsdSpec spec = storage::OpenSsdSpec(64, 0.6);
  spec.flash.page_size = 1024;
  spec.flash.pages_per_block = 16;
  spec.flash.num_blocks = 256;
  spec.ftl.meta_blocks = 6;
  spec.ftl.min_free_blocks = 4;
  spec.ftl.num_logical_pages = 2600;
  spec.xftl.xl2p_capacity = 180;
  return spec;
}

class PagerTest : public ::testing::TestWithParam<SqlJournalMode> {
 protected:
  PagerTest() : ssd_(TestSpec(), &clock_) {
    fs::FsOptions fs_opt;
    fs_opt.journal_mode = GetParam() == SqlJournalMode::kOff
                              ? fs::JournalMode::kOff
                              : fs::JournalMode::kOrdered;
    fs_opt.inode_count = 64;
    fs_opt.journal_pages = 64;
    CHECK(fs::ExtFs::Mkfs(ssd_.device(), fs_opt).ok());
    auto fs = fs::ExtFs::Mount(ssd_.device(), fs_opt, &clock_);
    CHECK(fs.ok());
    fs_ = std::move(fs).value();
  }

  PagerOptions Options() {
    PagerOptions opt;
    opt.journal_mode = GetParam();
    opt.cache_pages = 32;
    opt.wal_autocheckpoint = 1000;
    return opt;
  }

  std::unique_ptr<Pager> OpenPager() {
    auto pager = Pager::Open(fs_.get(), "test.db", Options());
    CHECK(pager.ok()) << pager.status().ToString();
    return std::move(pager).value();
  }

  SimClock clock_;
  storage::SimSsd ssd_;
  std::unique_ptr<fs::ExtFs> fs_;
};

TEST_P(PagerTest, AllocateWriteCommitRead) {
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  auto ref = pager->Allocate();
  ASSERT_TRUE(ref.ok());
  Pgno pgno = ref->pgno();
  std::memcpy(ref->data(), "hello", 5);
  *ref = PageRef();
  ASSERT_TRUE(pager->Commit().ok());

  auto back = pager->Get(pgno);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::memcmp(back->data(), "hello", 5), 0);
}

TEST_P(PagerTest, RollbackRestoresPage) {
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  auto ref = pager->Allocate();
  ASSERT_TRUE(ref.ok());
  Pgno pgno = ref->pgno();
  std::memcpy(ref->data(), "v1", 2);
  *ref = PageRef();
  ASSERT_TRUE(pager->Commit().ok());

  ASSERT_TRUE(pager->Begin().ok());
  {
    auto w = pager->Get(pgno);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->MarkDirty().ok());
    std::memcpy(w->data(), "v2", 2);
  }
  ASSERT_TRUE(pager->Rollback().ok());

  auto back = pager->Get(pgno);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::memcmp(back->data(), "v1", 2), 0);
}

TEST_P(PagerTest, StealThenRollbackRestoresPages) {
  // Dirty far more pages than the cache holds so evictions (steal) write
  // uncommitted pages, then roll back: every page must return to v1.
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  std::vector<Pgno> pages;
  for (int i = 0; i < 100; ++i) {
    auto ref = pager->Allocate();
    ASSERT_TRUE(ref.ok());
    ref->data()[0] = 0x11;
    ref->data()[1] = uint8_t(i);
    pages.push_back(ref->pgno());
  }
  ASSERT_TRUE(pager->Commit().ok());

  ASSERT_TRUE(pager->Begin().ok());
  for (Pgno pgno : pages) {
    auto ref = pager->Get(pgno);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(ref->MarkDirty().ok());
    ref->data()[0] = 0x22;
  }
  EXPECT_GT(pager->stats().cache_steals, 0u);  // steal happened
  ASSERT_TRUE(pager->Rollback().ok());

  for (size_t i = 0; i < pages.size(); ++i) {
    auto ref = pager->Get(pages[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 0x11) << "page " << pages[i];
    EXPECT_EQ(ref->data()[1], uint8_t(i));
  }
}

TEST_P(PagerTest, CommittedDataSurvivesCrash) {
  {
    auto pager = OpenPager();
    ASSERT_TRUE(pager->Begin().ok());
    auto ref = pager->Allocate();
    ASSERT_TRUE(ref.ok());
    std::memcpy(ref->data(), "durable", 7);
    EXPECT_EQ(ref->pgno(), 2u);
    *ref = PageRef();
    ASSERT_TRUE(pager->Commit().ok());
    // In delete mode the journal unlink is the commit point and its
    // metadata must become durable for the transaction to survive a crash -
    // exactly like SQLite on ext4, where a crash immediately after commit
    // can roll the last transaction back. Quiesce the file system first.
    ASSERT_TRUE(fs_->SyncAll().ok());
    // Crash without Close.
  }
  ASSERT_TRUE(ssd_.PowerCycle().ok());
  fs::FsOptions fs_opt;
  fs_opt.journal_mode = GetParam() == SqlJournalMode::kOff
                            ? fs::JournalMode::kOff
                            : fs::JournalMode::kOrdered;
  auto fs = fs::ExtFs::Mount(ssd_.device(), fs_opt, &clock_);
  ASSERT_TRUE(fs.ok());
  fs_ = std::move(fs).value();
  auto pager = OpenPager();
  auto ref = pager->Get(2);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(std::memcmp(ref->data(), "durable", 7), 0);
}

TEST_P(PagerTest, UncommittedTxnRolledBackByCrash) {
  {
    auto pager = OpenPager();
    ASSERT_TRUE(pager->Begin().ok());
    auto ref = pager->Allocate();
    ASSERT_TRUE(ref.ok());
    std::memcpy(ref->data(), "v1", 2);
    *ref = PageRef();
    ASSERT_TRUE(pager->Commit().ok());

    ASSERT_TRUE(pager->Begin().ok());
    for (int i = 0; i < 100; ++i) {  // force steal so the DB file is touched
      auto w = pager->Allocate();
      ASSERT_TRUE(w.ok());
      w->data()[0] = 0x5A;
    }
    auto w = pager->Get(2);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->MarkDirty().ok());
    std::memcpy(w->data(), "v2", 2);
    // Crash mid-transaction.
  }
  ASSERT_TRUE(ssd_.PowerCycle().ok());
  fs::FsOptions fs_opt;
  fs_opt.journal_mode = GetParam() == SqlJournalMode::kOff
                            ? fs::JournalMode::kOff
                            : fs::JournalMode::kOrdered;
  auto fs = fs::ExtFs::Mount(ssd_.device(), fs_opt, &clock_);
  ASSERT_TRUE(fs.ok());
  fs_ = std::move(fs).value();
  auto pager = OpenPager();  // runs hot-journal / WAL / device recovery
  auto ref = pager->Get(2);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(std::memcmp(ref->data(), "v1", 2), 0);
}

TEST_P(PagerTest, FreedPagesAreReused) {
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  auto a = pager->Allocate();
  ASSERT_TRUE(a.ok());
  Pgno pgno = a->pgno();
  *a = PageRef();
  ASSERT_TRUE(pager->Free(pgno).ok());
  auto b = pager->Allocate();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->pgno(), pgno);
  *b = PageRef();
  ASSERT_TRUE(pager->Commit().ok());
}

TEST_P(PagerTest, HeaderFieldsPersist) {
  auto pager = OpenPager();
  ASSERT_TRUE(pager->Begin().ok());
  ASSERT_TRUE(pager->SetHeaderField(2, 0xCAFE).ok());
  ASSERT_TRUE(pager->Commit().ok());
  ASSERT_TRUE(pager->Close().ok());
  pager = OpenPager();
  EXPECT_EQ(pager->GetHeaderField(2).value(), 0xCAFEu);
}

// Shadow of the pager's LRU page cache: which pages are cached, in what
// order, and which are dirty. It predicts exactly which pages a steal or a
// commit writes.
class CacheModel {
 public:
  explicit CacheModel(size_t capacity) : capacity_(capacity) {}

  // Pager::FetchPage: a hit moves `pgno` to the front; a miss first evicts
  // least-recently-used pages other than `pinned`, stealing the dirty ones.
  void Fetch(Pgno pgno, Pgno pinned = kNoPgno) {
    auto it = std::find(lru_.begin(), lru_.end(), pgno);
    if (it != lru_.end()) {
      lru_.erase(it);
    } else {
      while (lru_.size() >= capacity_) {
        auto victim = std::find_if(lru_.rbegin(), lru_.rend(),
                                   [&](Pgno p) { return p != pinned; });
        if (victim == lru_.rend()) break;
        steals += dirty_.erase(*victim);
        lru_.erase(std::next(victim).base());
      }
    }
    lru_.push_front(pgno);
  }
  void MarkDirty(Pgno pgno) {
    dirty_.insert(pgno);
    changed_.insert(pgno);
  }
  uint64_t dirty_count() const { return dirty_.size(); }
  // Pager::Rollback: every page the transaction changed leaves the cache.
  void Rollback() {
    for (Pgno pgno : changed_) lru_.remove(pgno);
    dirty_.clear();
    changed_.clear();
  }
  void Clear() {
    lru_.clear();
    dirty_.clear();
    changed_.clear();
  }

  uint64_t steals = 0;  // dirty pages evicted since the last reset

 private:
  const size_t capacity_;
  std::list<Pgno> lru_;  // most recently used first
  std::set<Pgno> dirty_;
  std::set<Pgno> changed_;  // dirtied in this transaction, stolen or not
};

// Random page traffic through a 4-page cache, so that most transactions
// steal. In every transaction the pages written to the database (kDelete,
// kOff) or appended to the WAL (kWal), at the steals and at the commit,
// match the cache model. After every commit, a close and reopen finds each
// live page with its committed content. A rollback keeps the pager open:
// reads in the next transactions see the committed content, and the model's
// LRU order, which decides the later steals, still holds.
TEST_P(PagerTest, RandomTrafficMatchesCacheModel) {
  constexpr size_t kCache = 4;
  PagerOptions opt = Options();
  opt.cache_pages = kCache;
  auto open = [&] {
    auto pager = Pager::Open(fs_.get(), "test.db", opt);
    CHECK(pager.ok()) << pager.status().ToString();
    return std::move(pager).value();
  };
  auto pager = open();
  const size_t page_size = pager->page_size();
  const bool wal = GetParam() == SqlJournalMode::kWal;
  auto writes = [&] {
    return wal ? pager->stats().journal_page_writes
               : pager->stats().db_page_writes;
  };

  // Committed state, and the open transaction's view of it.
  std::map<Pgno, std::vector<uint8_t>> committed, live;
  std::vector<Pgno> committed_free, freelist;  // freelist head at the back
  Pgno committed_count = 1, count = 1;
  CacheModel cache(kCache);
  Rng rng(GetParam() == SqlJournalMode::kDelete ? 31
                                                : (wal ? 32 : 33));
  auto pick_live = [&] {
    auto it = live.begin();
    std::advance(it, rng.Uniform(live.size()));
    return it->first;
  };
  auto scribble = [&](Pgno pgno, uint8_t* data, int op) {
    EncodeFixed32(data, pgno);
    EncodeFixed32(data + 4, uint32_t(op));
    data[8 + rng.Uniform(page_size - 8)] = uint8_t(rng.Next());
    live[pgno].assign(data, data + page_size);
  };
  auto expect_committed = [&](const std::string& when) {
    ASSERT_TRUE(pager->Close().ok()) << when;
    pager = open();
    ASSERT_EQ(pager->page_count(), committed_count) << when;
    for (const auto& [pgno, content] : committed) {
      auto ref = pager->Get(pgno);
      ASSERT_TRUE(ref.ok()) << when;
      ASSERT_EQ(std::vector<uint8_t>(ref->data(), ref->data() + page_size),
                content)
          << "page " << pgno << " " << when;
    }
    // The next transaction starts on an empty cache.
    ASSERT_TRUE(pager->Close().ok()) << when;
    pager = open();
    cache.Clear();
  };

  int op = 0;
  uint64_t total_steals = 0;
  for (int txn = 0; txn < 80; ++txn) {
    const std::string when = "txn " + std::to_string(txn);
    ASSERT_TRUE(pager->Begin().ok()) << when;
    cache.steals = 0;
    const uint64_t writes_before = writes();
    const int ops = 4 + int(rng.Uniform(24));
    for (int i = 0; i < ops; ++i, ++op) {
      const uint64_t action = rng.Uniform(10);
      if (live.empty() || (action < 2 && live.size() < 16)) {
        // Allocate: the freelist head, else a page past the end.
        Pgno want;
        if (!freelist.empty()) {
          want = freelist.back();
          freelist.pop_back();
          cache.Fetch(want);
          cache.Fetch(1, want);
        } else {
          want = ++count;
          cache.Fetch(1);
          cache.Fetch(want);
        }
        cache.MarkDirty(1);
        cache.MarkDirty(want);
        auto ref = pager->Allocate();
        ASSERT_TRUE(ref.ok()) << when;
        ASSERT_EQ(ref->pgno(), want) << when;
        scribble(want, ref->data(), op);
      } else if (action < 3 && live.size() > 2) {
        Pgno pgno = pick_live();
        cache.Fetch(pgno);
        cache.MarkDirty(pgno);
        cache.Fetch(1, pgno);
        cache.MarkDirty(1);
        ASSERT_TRUE(pager->Free(pgno).ok()) << when;
        live.erase(pgno);
        freelist.push_back(pgno);
      } else if (action < 7) {
        Pgno pgno = pick_live();
        cache.Fetch(pgno);
        cache.MarkDirty(pgno);
        auto ref = pager->Get(pgno);
        ASSERT_TRUE(ref.ok()) << when;
        ASSERT_TRUE(ref->MarkDirty().ok()) << when;
        scribble(pgno, ref->data(), op);
      } else {
        // A read sees the transaction's own writes, stolen or cached.
        Pgno pgno = pick_live();
        cache.Fetch(pgno);
        auto ref = pager->Get(pgno);
        ASSERT_TRUE(ref.ok()) << when;
        ASSERT_EQ(std::vector<uint8_t>(ref->data(), ref->data() + page_size),
                  live[pgno])
            << "page " << pgno << " " << when;
      }
    }
    ASSERT_EQ(writes() - writes_before, cache.steals) << when;

    total_steals += cache.steals;
    if (rng.Uniform(4) == 0) {
      ASSERT_TRUE(pager->Rollback().ok()) << when;
      cache.Rollback();
      live = committed;
      freelist = committed_free;
      count = committed_count;
    } else {
      const uint64_t at_commit = writes();
      ASSERT_TRUE(pager->Commit().ok()) << when;
      // WAL: a transaction whose pages were all stolen still appends a
      // commit frame (page 1).
      uint64_t want = cache.dirty_count();
      if (wal && want == 0 && cache.steals > 0) want = 1;
      ASSERT_EQ(writes() - at_commit, want) << when;
      committed = live;
      committed_free = freelist;
      committed_count = count;
      expect_committed(when);
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(total_steals, 40u);
}

// A page dirtied, stolen, fetched again and dirtied again in one transaction
// is written once at commit, not once per time it was dirtied.
TEST_P(PagerTest, RedirtiedStolenPageIsWrittenOnceAtCommit) {
  PagerOptions opt = Options();
  opt.cache_pages = 4;
  auto opened = Pager::Open(fs_.get(), "test.db", opt);
  ASSERT_TRUE(opened.ok());
  auto pager = std::move(opened).value();
  ASSERT_TRUE(pager->Begin().ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(pager->Allocate().ok());
  ASSERT_TRUE(pager->Commit().ok());

  const bool wal = GetParam() == SqlJournalMode::kWal;
  auto writes = [&] {
    return wal ? pager->stats().journal_page_writes
               : pager->stats().db_page_writes;
  };
  ASSERT_TRUE(pager->Begin().ok());
  auto dirty = [&](uint8_t value) {
    auto ref = pager->Get(2);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(ref->MarkDirty().ok());
    ref->data()[0] = value;
  };
  dirty(0xA1);
  const uint64_t steals = pager->stats().cache_steals;
  const uint64_t before_steal = writes();
  for (Pgno pgno = 3; pgno <= 7; ++pgno) ASSERT_TRUE(pager->Get(pgno).ok());
  ASSERT_EQ(pager->stats().cache_steals, steals + 1);  // page 2 was stolen
  ASSERT_EQ(writes(), before_steal + 1);
  dirty(0xA2);
  const uint64_t at_commit = writes();
  ASSERT_TRUE(pager->Commit().ok());
  EXPECT_EQ(writes(), at_commit + 1);

  ASSERT_TRUE(pager->Close().ok());
  pager = OpenPager();
  auto ref = pager->Get(2);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->data()[0], 0xA2);
}

// Pages stolen in a transaction roll back to their committed content: one
// dirtied, stolen, fetched again, dirtied again and stolen again (whose
// journal record must hold the committed version, not the stolen one), and
// one dirtied, stolen and read back into the cache (whose cached copy is
// the uncommitted version).
TEST_P(PagerTest, StolenPagesRollBack) {
  PagerOptions opt = Options();
  opt.cache_pages = 4;
  auto opened = Pager::Open(fs_.get(), "test.db", opt);
  ASSERT_TRUE(opened.ok());
  auto pager = std::move(opened).value();
  ASSERT_TRUE(pager->Begin().ok());
  for (int i = 0; i < 10; ++i) {
    auto ref = pager->Allocate();
    ASSERT_TRUE(ref.ok());
    ref->data()[0] = 0xC0;
  }
  ASSERT_TRUE(pager->Commit().ok());

  ASSERT_TRUE(pager->Begin().ok());
  auto dirty = [&](Pgno pgno, uint8_t value) {
    auto ref = pager->Get(pgno);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(ref->MarkDirty().ok());
    ref->data()[0] = value;
  };
  // Touching pages 4..11 leaves only them cached.
  auto evict = [&] {
    for (Pgno pgno = 4; pgno <= 11; ++pgno) {
      ASSERT_TRUE(pager->Get(pgno).ok());
    }
  };
  const uint64_t steals = pager->stats().cache_steals;
  dirty(2, 0xC1);
  dirty(3, 0xC1);
  evict();
  ASSERT_EQ(pager->stats().cache_steals, steals + 2);
  dirty(2, 0xC2);
  evict();
  ASSERT_EQ(pager->stats().cache_steals, steals + 3);
  {
    auto ref = pager->Get(3);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 0xC1);  // the transaction sees its own write
  }
  ASSERT_TRUE(pager->Rollback().ok());
  for (Pgno pgno : {2, 3}) {
    auto ref = pager->Get(pgno);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 0xC0) << "page " << pgno;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, PagerTest,
                         ::testing::Values(SqlJournalMode::kDelete,
                                           SqlJournalMode::kWal,
                                           SqlJournalMode::kOff),
                         [](const auto& info) {
                           return std::string(SqlJournalModeName(info.param));
                         });

// Mode-specific I/O shape checks (the paper's Figure 1).
TEST(PagerModeTest, DeleteModeCreatesAndDeletesJournalPerTxn) {
  SimClock clock;
  storage::SimSsd ssd(TestSpec(), &clock);
  fs::FsOptions fs_opt;
  CHECK(fs::ExtFs::Mkfs(ssd.device(), fs_opt).ok());
  auto fs = fs::ExtFs::Mount(ssd.device(), fs_opt, &clock).value();
  PagerOptions opt;
  opt.journal_mode = SqlJournalMode::kDelete;
  auto pager = Pager::Open(fs.get(), "t.db", opt).value();
  for (int txn = 0; txn < 3; ++txn) {
    ASSERT_TRUE(pager->Begin().ok());
    auto ref = txn == 0 ? pager->Allocate() : pager->Get(2);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(ref->MarkDirty().ok());
    ref->data()[0] = uint8_t(txn);
    *ref = PageRef();
    ASSERT_TRUE(pager->Commit().ok());
  }
  // One journal create+delete per transaction that touched existing pages.
  EXPECT_EQ(pager->stats().journal_creates, 3u);
  EXPECT_EQ(pager->stats().journal_deletes, 3u);
  EXPECT_FALSE(fs->Exists("t.db-journal").value());
}

TEST(PagerModeTest, WalAccumulatesFramesAndCheckpoints) {
  SimClock clock;
  storage::SimSsd ssd(TestSpec(), &clock);
  fs::FsOptions fs_opt;
  CHECK(fs::ExtFs::Mkfs(ssd.device(), fs_opt).ok());
  auto fs = fs::ExtFs::Mount(ssd.device(), fs_opt, &clock).value();
  PagerOptions opt;
  opt.journal_mode = SqlJournalMode::kWal;
  opt.wal_autocheckpoint = 20;
  auto pager = Pager::Open(fs.get(), "t.db", opt).value();

  ASSERT_TRUE(pager->Begin().ok());
  auto first = pager->Allocate();
  ASSERT_TRUE(first.ok());
  Pgno pgno = first->pgno();
  *first = PageRef();
  ASSERT_TRUE(pager->Commit().ok());
  EXPECT_TRUE(fs->Exists("t.db-wal").value());
  EXPECT_GT(pager->wal_frames(), 0u);

  // Enough commits to cross the autocheckpoint threshold.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(pager->Begin().ok());
    auto ref = pager->Get(pgno);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(ref->MarkDirty().ok());
    ref->data()[0] = uint8_t(i);
    *ref = PageRef();
    ASSERT_TRUE(pager->Commit().ok());
  }
  EXPECT_GT(pager->stats().checkpoints, 0u);
}

// --- btree ---------------------------------------------------------------------

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : ssd_(TestSpec(), &clock_) {
    fs::FsOptions fs_opt;
    CHECK(fs::ExtFs::Mkfs(ssd_.device(), fs_opt).ok());
    auto fs = fs::ExtFs::Mount(ssd_.device(), fs_opt, &clock_);
    CHECK(fs.ok());
    fs_ = std::move(fs).value();
    PagerOptions opt;
    opt.cache_pages = 64;
    auto pager = Pager::Open(fs_.get(), "bt.db", opt);
    CHECK(pager.ok());
    pager_ = std::move(pager).value();
    CHECK(pager_->Begin().ok());
  }

  ~BTreeTest() override {
    if (pager_->in_transaction()) CHECK(pager_->Commit().ok());
  }

  std::vector<uint8_t> Payload(int64_t tag, size_t size = 32) {
    return EncodeRecord({Value::Int(tag), Value::Text(std::string(size, 'p'))});
  }

  SimClock clock_;
  storage::SimSsd ssd_;
  std::unique_ptr<fs::ExtFs> fs_;
  std::unique_ptr<Pager> pager_;
};

TEST_F(BTreeTest, InsertAndScanInOrder) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  // Insert shuffled keys.
  Rng rng(1);
  std::vector<int64_t> keys;
  for (int64_t k = 1; k <= 500; ++k) keys.push_back(k);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  for (int64_t k : keys) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok()) << k;
  }
  // Scan returns them sorted.
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  int64_t expect = 1;
  while (cursor.valid()) {
    EXPECT_EQ(cursor.rowid(), expect);
    auto payload = cursor.Payload();
    ASSERT_TRUE(payload.ok());
    auto row = DecodeRecord(*payload);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[0].AsInt(), expect);
    expect++;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(expect, 501);
  EXPECT_EQ(tree.MaxRowid().value(), 500);
}

TEST_F(BTreeTest, SeekGEFindsExactAndNext) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  for (int64_t k = 10; k <= 1000; k += 10) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok());
  }
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.SeekGE(500).ok());
  ASSERT_TRUE(cursor.valid());
  EXPECT_EQ(cursor.rowid(), 500);
  ASSERT_TRUE(cursor.SeekGE(501).ok());
  ASSERT_TRUE(cursor.valid());
  EXPECT_EQ(cursor.rowid(), 510);
  ASSERT_TRUE(cursor.SeekGE(1001).ok());
  EXPECT_FALSE(cursor.valid());
}

TEST_F(BTreeTest, ReplaceKeepsSingleEntry) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  ASSERT_TRUE(tree.Insert(7, Payload(1)).ok());
  ASSERT_TRUE(tree.Insert(7, Payload(2)).ok());
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  ASSERT_TRUE(cursor.valid());
  auto row = DecodeRecord(cursor.Payload().value());
  EXPECT_EQ((*row)[0].AsInt(), 2);
  ASSERT_TRUE(cursor.Next().ok());
  EXPECT_FALSE(cursor.valid());
}

TEST_F(BTreeTest, DeleteAndNotFound) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  for (int64_t k = 1; k <= 200; ++k) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok());
  }
  for (int64_t k = 2; k <= 200; k += 2) {
    ASSERT_TRUE(tree.Delete(k).ok());
  }
  EXPECT_TRUE(tree.Delete(2).IsNotFound());
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  int64_t expect = 1;
  while (cursor.valid()) {
    EXPECT_EQ(cursor.rowid(), expect);
    expect += 2;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(expect, 201);
}

TEST_F(BTreeTest, DeleteEverything) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  for (int64_t k = 1; k <= 300; ++k) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok());
  }
  for (int64_t k = 1; k <= 300; ++k) {
    ASSERT_TRUE(tree.Delete(k).ok()) << k;
  }
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  EXPECT_FALSE(cursor.valid());
  // Tree still usable.
  ASSERT_TRUE(tree.Insert(42, Payload(42)).ok());
  EXPECT_EQ(tree.MaxRowid().value(), 42);
}

TEST_F(BTreeTest, LargePayloadUsesOverflowPages) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  // Payload far larger than a 1 KiB page.
  std::string big(5000, 'x');
  for (size_t i = 0; i < big.size(); ++i) big[i] = char('a' + i % 26);
  auto payload = EncodeRecord({Value::Text(big)});
  ASSERT_TRUE(tree.Insert(1, payload).ok());

  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  ASSERT_TRUE(cursor.valid());
  auto got = cursor.Payload();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, payload);
  // Delete releases the overflow chain back to the freelist.
  ASSERT_TRUE(tree.Delete(1).ok());
}

TEST_F(BTreeTest, IndexTreeOrdersByRecordKey) {
  auto root = BTree::Create(pager_.get(), true);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, true);
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    Row key = {Value::Text("k" + std::to_string(rng.Uniform(100))),
               Value::Int(i)};
    ASSERT_TRUE(tree.InsertKey(EncodeRecord(key)).ok());
  }
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  std::vector<uint8_t> prev;
  int count = 0;
  while (cursor.valid()) {
    auto key = cursor.Payload().value();
    if (!prev.empty()) {
      EXPECT_LE(CompareEncodedRecords(prev.data(), prev.size(), key.data(),
                                      key.size()),
                0);
    }
    prev = key;
    count++;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(count, 300);
}

TEST_F(BTreeTest, IndexPrefixSeek) {
  auto root = BTree::Create(pager_.get(), true);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, true);
  for (int w = 1; w <= 5; ++w) {
    for (int d = 1; d <= 10; ++d) {
      Row key = {Value::Int(w), Value::Int(d), Value::Int(w * 100 + d)};
      ASSERT_TRUE(tree.InsertKey(EncodeRecord(key)).ok());
    }
  }
  // Seek to prefix (3,*): the first match is (3,1).
  auto prefix = EncodeRecord({Value::Int(3)});
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.SeekGEKey(prefix).ok());
  ASSERT_TRUE(cursor.valid());
  auto row = DecodeRecord(cursor.Payload().value()).value();
  EXPECT_EQ(row[0].AsInt(), 3);
  EXPECT_EQ(row[1].AsInt(), 1);
}

TEST_F(BTreeTest, RandomisedModelCheck) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  std::map<int64_t, int64_t> model;
  Rng rng(7);
  for (int op = 0; op < 3000; ++op) {
    int64_t k = int64_t(rng.Uniform(400));
    int action = int(rng.Uniform(3));
    if (action < 2) {
      int64_t tag = int64_t(op);
      ASSERT_TRUE(tree.Insert(k, Payload(tag)).ok());
      model[k] = tag;
    } else if (!model.empty()) {
      Status s = tree.Delete(k);
      if (model.count(k) != 0) {
        ASSERT_TRUE(s.ok());
        model.erase(k);
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
    }
  }
  // Full comparison with the model.
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  auto it = model.begin();
  while (cursor.valid()) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(cursor.rowid(), it->first);
    auto row = DecodeRecord(cursor.Payload().value()).value();
    EXPECT_EQ(row[0].AsInt(), it->second);
    ++it;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(it, model.end());

  // Structural invariants hold after all that churn.
  auto report = CheckBTree(pager_.get(), *root, /*is_index=*/false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->cells, model.size());
}

// Reference repack of one b-tree page, written from the page format and
// independent of btree.cc: decodes every cell, then encodes the cells into a
// zeroed page as a full rewrite of the page would. Appends the page's
// children to *children.
std::vector<uint8_t> RepackPage(const uint8_t* page, size_t page_size,
                                std::vector<Pgno>* children) {
  struct RefCell {
    Pgno child = kNoPgno;
    int64_t rowid = 0;
    uint32_t total = 0;
    Pgno overflow = kNoPgno;
    std::vector<uint8_t> local;
  };
  const uint8_t type = page[0];
  const bool leaf = type == 1 || type == 3;
  const bool index = type == 3 || type == 4;
  const uint16_t ncells = DecodeFixed16(page + 1);
  const Pgno right_child = DecodeFixed32(page + 3);
  std::vector<RefCell> cells(ncells);
  size_t off = 9;
  for (RefCell& c : cells) {
    if (!leaf) {
      c.child = DecodeFixed32(page + off);
      off += 4;
      children->push_back(c.child);
    }
    if (!index) {
      c.rowid = int64_t(DecodeFixed64(page + off));
      off += 8;
    }
    if (index || leaf) {
      c.total = DecodeFixed32(page + off);
      uint16_t local = DecodeFixed16(page + off + 4);
      c.overflow = DecodeFixed32(page + off + 6);
      off += 10;
      CHECK(off + local <= page_size);
      c.local.assign(page + off, page + off + local);
      off += local;
    }
  }
  if (!leaf) children->push_back(right_child);

  std::vector<uint8_t> out(page_size, 0);
  out[0] = type;
  EncodeFixed16(out.data() + 1, ncells);
  EncodeFixed32(out.data() + 3, right_child);
  off = 9;
  for (const RefCell& c : cells) {
    if (!leaf) {
      EncodeFixed32(out.data() + off, c.child);
      off += 4;
    }
    if (!index) {
      EncodeFixed64(out.data() + off, uint64_t(c.rowid));
      off += 8;
    }
    if (index || leaf) {
      EncodeFixed32(out.data() + off, c.total);
      EncodeFixed16(out.data() + off + 4, uint16_t(c.local.size()));
      EncodeFixed32(out.data() + off + 6, c.overflow);
      off += 10;
      std::memcpy(out.data() + off, c.local.data(), c.local.size());
      off += c.local.size();
    }
  }
  return out;
}

// Every page of the tree under `root` equals the repack of its cells: the
// in-place leaf and interior edits leave no stale bytes behind.
void ExpectPagesRepacked(Pager* pager, Pgno root, const std::string& when) {
  std::vector<Pgno> todo = {root};
  while (!todo.empty()) {
    Pgno pgno = todo.back();
    todo.pop_back();
    auto ref = pager->Get(pgno);
    ASSERT_TRUE(ref.ok());
    std::vector<uint8_t> page(ref->data(), ref->data() + pager->page_size());
    ASSERT_EQ(page, RepackPage(page.data(), page.size(), &todo))
        << "page " << pgno << " after " << when;
  }
}

TEST_F(BTreeTest, InPlaceEditsMatchRepackTable) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  std::map<int64_t, std::vector<uint8_t>> model;
  Rng rng(17);
  for (int op = 0; op < 2000; ++op) {
    int64_t k = int64_t(rng.Uniform(300));
    std::string when = "op " + std::to_string(op) + " key " + std::to_string(k);
    if (rng.Uniform(3) < 2) {
      // Sizes from a few bytes to past the local budget (overflow pages), so
      // replaces both grow and shrink cells.
      size_t size = rng.Bernoulli(0.05) ? 300 + rng.Uniform(900)
                                        : rng.Uniform(120);
      auto payload = Payload(op, size);
      ASSERT_TRUE(tree.Insert(k, payload).ok()) << when;
      model[k] = payload;
    } else {
      Status s = tree.Delete(k);
      ASSERT_EQ(s.ok(), model.erase(k) == 1) << when;
    }
    ExpectPagesRepacked(pager_.get(), *root, when);
    if (HasFatalFailure()) return;
  }
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  for (const auto& [rowid, payload] : model) {
    ASSERT_TRUE(cursor.valid());
    EXPECT_EQ(cursor.rowid(), rowid);
    EXPECT_EQ(cursor.Payload().value(), payload);
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_FALSE(cursor.valid());
  auto report = CheckBTree(pager_.get(), *root, /*is_index=*/false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST_F(BTreeTest, InPlaceEditsMatchRepackIndex) {
  auto root = BTree::Create(pager_.get(), true);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, true);
  auto less = [](const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
    return CompareEncodedRecords(a.data(), a.size(), b.data(), b.size()) < 0;
  };
  std::set<std::vector<uint8_t>, decltype(less)> model(less);
  std::vector<std::vector<uint8_t>> pool;
  Rng rng(19);
  for (int i = 0; i < 250; ++i) {
    pool.push_back(EncodeRecord(
        {Value::Text(rng.AlphaString(rng.Uniform(60))), Value::Int(i)}));
  }
  for (int op = 0; op < 2000; ++op) {
    const auto& key = pool[rng.Uniform(pool.size())];
    std::string when = "op " + std::to_string(op);
    if (rng.Uniform(3) < 2) {
      // Re-inserting a present key replaces it in place.
      ASSERT_TRUE(tree.InsertKey(key).ok()) << when;
      model.insert(key);
    } else {
      Status s = tree.DeleteKey(key);
      ASSERT_EQ(s.ok(), model.erase(key) == 1) << when;
    }
    ExpectPagesRepacked(pager_.get(), *root, when);
    if (HasFatalFailure()) return;
  }
  auto cursor = tree.NewCursor();
  ASSERT_TRUE(cursor.First().ok());
  for (const auto& key : model) {
    ASSERT_TRUE(cursor.valid());
    EXPECT_EQ(cursor.Payload().value(), key);
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_FALSE(cursor.valid());
  auto report = CheckBTree(pager_.get(), *root, /*is_index=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

// Overwrites bytes of page `pgno`, as a torn or corrupt page would.
void CorruptPage(Pager* pager, Pgno pgno, size_t off,
                 std::vector<uint8_t> bytes) {
  auto ref = pager->Get(pgno);
  CHECK(ref.ok());
  CHECK(ref->MarkDirty().ok());
  std::memcpy(ref->data() + off, bytes.data(), bytes.size());
}

TEST_F(BTreeTest, CorruptCellCountIsCorruption) {
  for (bool is_index : {false, true}) {
    auto root = BTree::Create(pager_.get(), is_index);
    ASSERT_TRUE(root.ok());
    BTree tree(pager_.get(), *root, is_index);
    for (int64_t k = 1; k <= 5; ++k) {
      ASSERT_TRUE((is_index ? tree.InsertKey(EncodeRecord({Value::Int(k)}))
                            : tree.Insert(k, Payload(k)))
                      .ok());
    }
    CorruptPage(pager_.get(), *root, 1, {0xFF, 0xFF});  // ncells = 0xFFFF
    auto key = EncodeRecord({Value::Int(3)});
    auto cursor = tree.NewCursor();
    EXPECT_TRUE(cursor.First().IsCorruption()) << is_index;
    EXPECT_TRUE((is_index ? cursor.SeekGEKey(key) : cursor.SeekGE(3))
                    .IsCorruption())
        << is_index;
    EXPECT_TRUE((is_index ? tree.InsertKey(EncodeRecord({Value::Int(6)}))
                          : tree.Insert(6, Payload(6)))
                    .IsCorruption())
        << is_index;
    EXPECT_TRUE((is_index ? tree.DeleteKey(key) : tree.Delete(3))
                    .IsCorruption())
        << is_index;
  }
}

TEST_F(BTreeTest, CorruptLocalLengthIsCorruption) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  for (int64_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok());
  }
  // The first cell's local length (after the 9-byte header, the rowid and the
  // payload total) runs far past the 1 KiB page.
  CorruptPage(pager_.get(), *root, 9 + 8 + 4, {0xF0, 0xFF});
  auto cursor = tree.NewCursor();
  EXPECT_TRUE(cursor.First().IsCorruption());
  EXPECT_TRUE(cursor.SeekGE(3).IsCorruption());
  EXPECT_TRUE(tree.Insert(6, Payload(6)).IsCorruption());
  EXPECT_TRUE(tree.MaxRowid().status().IsCorruption());
  EXPECT_FALSE(CheckBTree(pager_.get(), *root, false).ok());
}

// The cursor keeps the byte offset of its cell in each frame; full scans
// and seek-then-step walks over pages of mixed cell sizes (overflowing table
// payloads, variable-length index keys) visit exactly the model's entries.
TEST_F(BTreeTest, CursorStepsMatchModel) {
  Rng rng(23);
  {
    auto root = BTree::Create(pager_.get(), false);
    ASSERT_TRUE(root.ok());
    BTree tree(pager_.get(), *root, false);
    std::map<int64_t, std::vector<uint8_t>> model;
    for (int i = 0; i < 600; ++i) {
      int64_t k = int64_t(rng.Uniform(2000));
      size_t size = rng.Bernoulli(0.1) ? 300 + rng.Uniform(1500)
                                       : rng.Uniform(150);
      model[k] = Payload(i, size);
      ASSERT_TRUE(tree.Insert(k, model[k]).ok());
    }
    // Scans from the start (seek < 0) or from SeekGE(seek).
    auto expect_from = [&](int64_t seek, int steps, const std::string& when) {
      auto cursor = tree.NewCursor();
      ASSERT_TRUE((seek < 0 ? cursor.First() : cursor.SeekGE(seek)).ok());
      auto it = seek < 0 ? model.begin() : model.lower_bound(seek);
      for (int n = 0; n < steps && it != model.end(); ++n, ++it) {
        ASSERT_TRUE(cursor.valid()) << when;
        ASSERT_EQ(cursor.rowid(), it->first) << when;
        ASSERT_EQ(cursor.Payload().value(), it->second) << when;
        ASSERT_TRUE(cursor.Next().ok()) << when;
      }
      if (it == model.end()) {
        EXPECT_FALSE(cursor.valid()) << when;
      }
    };
    expect_from(-1, int(model.size()), "table scan");
    for (int i = 0; i < 60; ++i) {
      int64_t k = int64_t(rng.Uniform(2100));
      expect_from(k, 40, "table seek " + std::to_string(k));
      if (HasFatalFailure()) return;
    }
  }
  {
    auto root = BTree::Create(pager_.get(), true);
    ASSERT_TRUE(root.ok());
    BTree tree(pager_.get(), *root, true);
    auto less = [](const std::vector<uint8_t>& a,
                   const std::vector<uint8_t>& b) {
      return CompareEncodedRecords(a.data(), a.size(), b.data(), b.size()) < 0;
    };
    std::set<std::vector<uint8_t>, decltype(less)> model(less);
    auto key = [&](int i) {
      return EncodeRecord(
          {Value::Text(rng.AlphaString(rng.Uniform(200))), Value::Int(i)});
    };
    for (int i = 0; i < 600; ++i) {
      auto k = key(i);
      ASSERT_TRUE(tree.InsertKey(k).ok());
      model.insert(k);
    }
    auto expect_from = [&](const std::vector<uint8_t>* probe, int steps,
                           const std::string& when) {
      auto cursor = tree.NewCursor();
      ASSERT_TRUE((probe == nullptr ? cursor.First()
                                    : cursor.SeekGEKey(*probe))
                      .ok());
      auto it = probe == nullptr ? model.begin() : model.lower_bound(*probe);
      for (int n = 0; n < steps && it != model.end(); ++n, ++it) {
        ASSERT_TRUE(cursor.valid()) << when;
        ASSERT_EQ(cursor.Payload().value(), *it) << when;
        ASSERT_TRUE(cursor.Next().ok()) << when;
      }
      if (it == model.end()) {
        EXPECT_FALSE(cursor.valid()) << when;
      }
    };
    expect_from(nullptr, int(model.size()), "index scan");
    for (int i = 0; i < 60; ++i) {
      auto probe = key(-i);
      expect_from(&probe, 40, "index seek " + std::to_string(i));
      if (HasFatalFailure()) return;
    }
  }
}

// A corrupt local length in the cell after the cursor's position fails the
// step onto it with Corruption, without reading past the page.
TEST_F(BTreeTest, CorruptNextCellIsCorruptionOnNext) {
  for (bool is_index : {false, true}) {
    auto root = BTree::Create(pager_.get(), is_index);
    ASSERT_TRUE(root.ok());
    BTree tree(pager_.get(), *root, is_index);
    std::vector<uint8_t> first;
    for (int64_t k = 1; k <= 5; ++k) {
      auto payload = is_index ? EncodeRecord({Value::Int(k)}) : Payload(k);
      if (k == 1) first = payload;
      ASSERT_TRUE((is_index ? tree.InsertKey(payload) : tree.Insert(k, payload))
                      .ok());
    }
    // Cell 1 starts after the 9-byte header and cell 0 (rowid for table
    // trees, then payload total, local length, overflow and the payload);
    // its local length follows its rowid and payload total.
    const size_t rowid_bytes = is_index ? 0 : 8;
    const size_t cell1 = 9 + rowid_bytes + 10 + first.size();
    auto cursor = tree.NewCursor();
    ASSERT_TRUE(cursor.First().ok());
    CorruptPage(pager_.get(), *root, cell1 + rowid_bytes + 4, {0xF0, 0xFF});
    ASSERT_TRUE(cursor.valid());
    EXPECT_EQ(cursor.Payload().value(), first) << is_index;
    EXPECT_TRUE(cursor.Next().IsCorruption()) << is_index;
  }
}

// Index pages are binary searched over cell offsets collected in one pass.
// Seeks, inserts and deletes must land where a linear walk over the keys
// in order would: seeks on the first key >= the probe, inserts in order
// (a present key replaced, not duplicated), deletes on the exact key.
TEST_F(BTreeTest, IndexSearchMatchesLinearWalk) {
  auto less = [](const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
    return CompareEncodedRecords(a.data(), a.size(), b.data(), b.size()) < 0;
  };
  // First key >= probe by a walk over the sorted keys; keys.size() if none.
  auto linear_slot = [](const std::vector<std::vector<uint8_t>>& keys,
                        const std::vector<uint8_t>& probe) {
    size_t i = 0;
    while (i < keys.size() &&
           CompareEncodedRecords(probe.data(), probe.size(), keys[i].data(),
                                 keys[i].size()) > 0) {
      i++;
    }
    return i;
  };
  Rng rng(29);
  auto int_key = [&](int i) {
    return EncodeRecord({Value::Int(3 * i), Value::Int(i)});
  };
  auto text_key = [&](int i) {
    return EncodeRecord(
        {Value::Text(rng.AlphaString(1 + rng.Uniform(40))), Value::Int(i)});
  };
  auto mixed_key = [&](int i) {
    Value first;
    switch (i % 5) {
      case 0: first = Value::Null(); break;
      case 1: first = Value::Int(int64_t(rng.Uniform(50)) - 25); break;
      case 2: first = Value::Real(double(rng.Uniform(100)) / 4 - 12); break;
      case 3: first = Value::Text(rng.AlphaString(rng.Uniform(12))); break;
      default:
        first = Value::Blob(std::vector<uint8_t>(rng.Uniform(8), uint8_t(i)));
    }
    return EncodeRecord({first, Value::Int(i % 7), Value::Int(i)});
  };
  const std::vector<std::function<std::vector<uint8_t>(int)>> families = {
      int_key, text_key, mixed_key};
  for (size_t family = 0; family < families.size(); ++family) {
    auto root = BTree::Create(pager_.get(), true);
    ASSERT_TRUE(root.ok());
    BTree tree(pager_.get(), *root, true);
    std::set<std::vector<uint8_t>, decltype(less)> model(less);
    std::vector<std::vector<uint8_t>> pool;
    for (int i = 0; i < 400; ++i) pool.push_back(families[family](i));
    auto expect_tree_is_model = [&](const std::string& when) {
      auto cursor = tree.NewCursor();
      ASSERT_TRUE(cursor.First().ok()) << when;
      for (const auto& key : model) {
        ASSERT_TRUE(cursor.valid()) << when;
        ASSERT_EQ(cursor.Payload().value(), key) << when;
        ASSERT_TRUE(cursor.Next().ok()) << when;
      }
      EXPECT_FALSE(cursor.valid()) << when;
    };
    for (int op = 0; op < 900; ++op) {
      const auto& key = pool[rng.Uniform(pool.size())];
      const std::string when =
          "family " + std::to_string(family) + " op " + std::to_string(op);
      if (op < 500 || rng.Uniform(3) < 2) {
        ASSERT_TRUE(tree.InsertKey(key).ok()) << when;
        model.insert(key);
      } else {
        Status s = tree.DeleteKey(key);
        ASSERT_EQ(s.ok(), model.erase(key) == 1) << when;
      }
      if (op % 25 == 0) {
        expect_tree_is_model(when);
        if (HasFatalFailure()) return;
      }
    }
    expect_tree_is_model("family " + std::to_string(family));
    if (HasFatalFailure()) return;
    const std::vector<std::vector<uint8_t>> keys(model.begin(), model.end());
    ASSERT_GT(keys.size(), 100u);

    // Probes: every key, a key between each pair (a shorter prefix sorts
    // first among its extensions, a longer key after), the first value
    // alone, and keys before the first and after the last.
    std::vector<std::vector<uint8_t>> probes = {
        EncodeRecord({}), EncodeRecord({Value::Null()}),
        EncodeRecord({Value::Blob(std::vector<uint8_t>(9, 0xFF))}),
        EncodeRecord({Value::Int(-1000)}), EncodeRecord({Value::Int(1000000)})};
    for (const auto& key : keys) {
      Row row = DecodeRecord(key).value();
      probes.push_back(key);
      probes.push_back(EncodeRecord({row[0]}));
      Row longer = row;
      longer.push_back(Value::Null());
      probes.push_back(EncodeRecord(longer));
      if (row[0].type() == ValueType::kInt) {
        probes.push_back(EncodeRecord({Value::Int(row[0].AsInt() + 1)}));
        probes.push_back(
            EncodeRecord({Value::Real(double(row[0].AsInt()) - 0.5)}));
      }
    }
    auto cursor = tree.NewCursor();
    for (size_t p = 0; p < probes.size(); ++p) {
      const size_t want = linear_slot(keys, probes[p]);
      ASSERT_TRUE(cursor.SeekGEKey(probes[p]).ok()) << p;
      ASSERT_EQ(cursor.valid(), want < keys.size())
          << "family " << family << " probe " << p;
      if (want < keys.size()) {
        ASSERT_EQ(cursor.Payload().value(), keys[want])
            << "family " << family << " probe " << p;
      }
    }
    auto report = CheckBTree(pager_.get(), *root, /*is_index=*/true);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
}

// An index seek reads every cell of the pages it searches, so a corrupt
// cell after the slot it lands on fails the seek too.
TEST_F(BTreeTest, CorruptIndexCellAfterSlotIsCorruption) {
  auto root = BTree::Create(pager_.get(), true);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, true);
  std::vector<std::vector<uint8_t>> keys;
  for (int64_t k = 1; k <= 5; ++k) {
    keys.push_back(EncodeRecord({Value::Int(k)}));
    ASSERT_TRUE(tree.InsertKey(keys.back()).ok());
  }
  // The local length of the last cell: after the header and four cells of
  // fixed part plus key, then the cell's 4-byte payload total.
  const size_t cell4 = 9 + 4 * (10 + keys[0].size());
  CorruptPage(pager_.get(), *root, cell4 + 4, {0xF0, 0xFF});
  auto cursor = tree.NewCursor();
  EXPECT_TRUE(cursor.SeekGEKey(keys[0]).IsCorruption());
  EXPECT_TRUE(tree.InsertKey(EncodeRecord({Value::Int(0)})).IsCorruption());
  EXPECT_TRUE(tree.DeleteKey(keys[1]).IsCorruption());
}

TEST_F(BTreeTest, CheckerDetectsCorruption) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  BTree tree(pager_.get(), *root, false);
  for (int64_t k = 1; k <= 400; ++k) {
    ASSERT_TRUE(tree.Insert(k, Payload(k)).ok());
  }
  auto clean = CheckBTree(pager_.get(), *root, false);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_GT(clean->depth, 1u);  // large enough to have interior pages
  EXPECT_EQ(clean->cells, 400u);

  // Flip a rowid inside the root so ordering breaks; the checker must see
  // it. (Writing garbage over the cell area.)
  auto ref = pager_->Get(*root);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(ref->MarkDirty().ok());
  std::memset(ref->data() + 9, 0xEE, 24);
  *ref = PageRef();
  auto corrupt = CheckBTree(pager_.get(), *root, false);
  EXPECT_FALSE(corrupt.ok());
}

TEST_F(BTreeTest, DropReleasesPages) {
  auto root = BTree::Create(pager_.get(), false);
  ASSERT_TRUE(root.ok());
  {
    BTree tree(pager_.get(), *root, false);
    for (int64_t k = 1; k <= 500; ++k) {
      ASSERT_TRUE(tree.Insert(k, Payload(k, 100)).ok());
    }
  }
  Pgno before = pager_->page_count();
  ASSERT_TRUE(BTree::Drop(pager_.get(), *root).ok());
  // Freed pages go to the freelist; new allocations reuse them instead of
  // growing the file.
  for (int i = 0; i < 20; ++i) {
    auto ref = pager_->Allocate();
    ASSERT_TRUE(ref.ok());
  }
  EXPECT_EQ(pager_->page_count(), before);
}

}  // namespace
}  // namespace xftl::sql
