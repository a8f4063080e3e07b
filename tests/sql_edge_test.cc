// Edge-case tests for the SQL layer: expression semantics, NULL handling,
// rowid-alias updates, DDL inside transactions, index consistency after
// mixed DML, and scalar functions.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/sim_clock.h"
#include "sql/database.h"
#include "storage/sim_ssd.h"

namespace xftl::sql {
namespace {

class SqlEdgeTest : public ::testing::Test {
 protected:
  SqlEdgeTest() {
    storage::SsdSpec spec = storage::OpenSsdSpec(64, 0.6);
    spec.flash.page_size = 1024;
    spec.flash.pages_per_block = 16;
    spec.flash.num_blocks = 256;
    spec.ftl.meta_blocks = 6;
    spec.ftl.min_free_blocks = 4;
    spec.ftl.num_logical_pages = 2600;
    spec.xftl.xl2p_capacity = 180;
    ssd_ = std::make_unique<storage::SimSsd>(spec, &clock_);
    fs::FsOptions fs_opt;
    fs_opt.journal_mode = fs::JournalMode::kOff;
    CHECK(fs::ExtFs::Mkfs(ssd_->device(), fs_opt).ok());
    fs_ = std::move(fs::ExtFs::Mount(ssd_->device(), fs_opt, &clock_)).value();
    DbOptions opt;
    opt.journal_mode = SqlJournalMode::kOff;
    db_ = std::move(Database::Open(fs_.get(), "edge.db", opt)).value();
  }

  ResultSet Q(const std::string& sql) {
    auto r = db_->Exec(sql);
    CHECK(r.ok()) << sql << " -> " << r.status().ToString();
    return std::move(r).value();
  }
  Value Scalar(const std::string& sql) {
    ResultSet r = Q(sql);
    CHECK(!r.rows.empty()) << sql;
    return r.rows[0][0];
  }

  SimClock clock_;
  std::unique_ptr<storage::SimSsd> ssd_;
  std::unique_ptr<fs::ExtFs> fs_;
  std::unique_ptr<Database> db_;
};

TEST_F(SqlEdgeTest, ExpressionArithmetic) {
  EXPECT_EQ(Scalar("SELECT 2 + 3 * 4 - 1").AsInt(), 13);
  EXPECT_EQ(Scalar("SELECT (2 + 3) * 4").AsInt(), 20);
  EXPECT_EQ(Scalar("SELECT -5 + 2").AsInt(), -3);
  EXPECT_EQ(Scalar("SELECT 7 % 3").AsInt(), 1);
  EXPECT_DOUBLE_EQ(Scalar("SELECT 7.0 / 2").AsReal(), 3.5);
  EXPECT_EQ(Scalar("SELECT 7 / 2").AsInt(), 3);  // integer division
  EXPECT_TRUE(Scalar("SELECT 1 / 0").is_null());  // SQLite: NULL
}

TEST_F(SqlEdgeTest, ComparisonAndLogic) {
  EXPECT_EQ(Scalar("SELECT 1 < 2").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 'a' < 'b'").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT NOT 0").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 1 AND 0").AsInt(), 0);
  EXPECT_EQ(Scalar("SELECT 0 OR 2").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 1 != 2").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 3 >= 3").AsInt(), 1);
}

TEST_F(SqlEdgeTest, NullPropagation) {
  EXPECT_TRUE(Scalar("SELECT NULL + 1").is_null());
  EXPECT_TRUE(Scalar("SELECT NULL = NULL").is_null());
  EXPECT_EQ(Scalar("SELECT NULL IS NULL").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 5 IS NOT NULL").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT COALESCE(NULL, NULL, 3)").AsInt(), 3);
  EXPECT_EQ(Scalar("SELECT IFNULL(NULL, 'x')").AsText(), "x");
}

TEST_F(SqlEdgeTest, ScalarFunctions) {
  EXPECT_EQ(Scalar("SELECT LENGTH('hello')").AsInt(), 5);
  EXPECT_EQ(Scalar("SELECT UPPER('MiXeD')").AsText(), "MIXED");
  EXPECT_EQ(Scalar("SELECT LOWER('MiXeD')").AsText(), "mixed");
  EXPECT_EQ(Scalar("SELECT ABS(-42)").AsInt(), 42);
  EXPECT_EQ(Scalar("SELECT SUBSTR('abcdef', 2, 3)").AsText(), "bcd");
  EXPECT_EQ(Scalar("SELECT SUBSTR('abcdef', 4)").AsText(), "def");
  EXPECT_EQ(Scalar("SELECT MIN(3, 1, 2)").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT MAX(3, 1, 2)").AsInt(), 3);
}

TEST_F(SqlEdgeTest, LikePatterns) {
  EXPECT_EQ(Scalar("SELECT 'hello' LIKE 'h%'").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 'hello' LIKE 'H_LLO'").AsInt(), 1);  // case-insens.
  EXPECT_EQ(Scalar("SELECT 'hello' LIKE '%zzz%'").AsInt(), 0);
  EXPECT_EQ(Scalar("SELECT '' LIKE '%'").AsInt(), 1);
  EXPECT_EQ(Scalar("SELECT 'abc' LIKE 'abc'").AsInt(), 1);
}

TEST_F(SqlEdgeTest, AggregatesOverEmptyTable) {
  Q("CREATE TABLE e (v INT)");
  ResultSet r = Q("SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM e");
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
  EXPECT_TRUE(r.rows[0][3].is_null());
  EXPECT_TRUE(r.rows[0][4].is_null());
}

TEST_F(SqlEdgeTest, UpdateRowidAliasMovesRow) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)");
  Q("INSERT INTO t VALUES (1, 'one'), (2, 'two')");
  Q("UPDATE t SET id = 10 WHERE id = 1");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").AsInt(), 2);
  EXPECT_EQ(Scalar("SELECT v FROM t WHERE id = 10").AsText(), "one");
  EXPECT_EQ(Q("SELECT v FROM t WHERE id = 1").rows.size(), 0u);
  // The rowid actually moved (ORDER BY rowid reflects it).
  ResultSet r = Q("SELECT id FROM t ORDER BY rowid");
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[1][0].AsInt(), 10);
}

TEST_F(SqlEdgeTest, InsertColumnSubsetFillsNulls) {
  Q("CREATE TABLE t (a INT, b TEXT, c REAL)");
  Q("INSERT INTO t (b) VALUES ('only-b')");
  ResultSet r = Q("SELECT a, b, c FROM t");
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_EQ(r.rows[0][1].AsText(), "only-b");
  EXPECT_TRUE(r.rows[0][2].is_null());
}

TEST_F(SqlEdgeTest, StringEscaping) {
  Q("CREATE TABLE s (v TEXT)");
  Q("INSERT INTO s VALUES ('it''s a ''test''')");
  EXPECT_EQ(Scalar("SELECT v FROM s").AsText(), "it's a 'test'");
}

TEST_F(SqlEdgeTest, LimitZeroAndBeyond) {
  Q("CREATE TABLE t (v INT)");
  Q("INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(Q("SELECT v FROM t LIMIT 0").rows.size(), 0u);
  EXPECT_EQ(Q("SELECT v FROM t LIMIT 99").rows.size(), 3u);
}

TEST_F(SqlEdgeTest, OrderByMultipleKeysAndExpressions) {
  Q("CREATE TABLE t (a INT, b INT)");
  Q("INSERT INTO t VALUES (1, 3), (1, 1), (2, 2), (2, 0)");
  ResultSet r = Q("SELECT a, b FROM t ORDER BY a ASC, b DESC");
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);
  EXPECT_EQ(r.rows[1][1].AsInt(), 1);
  EXPECT_EQ(r.rows[2][1].AsInt(), 2);
  EXPECT_EQ(r.rows[3][1].AsInt(), 0);
  // Expression order key.
  ResultSet e = Q("SELECT a, b FROM t ORDER BY a * 10 + b");
  EXPECT_EQ(e.rows[0][1].AsInt(), 1);
}

TEST_F(SqlEdgeTest, CommaJoinWithWhere) {
  Q("CREATE TABLE x (id INTEGER PRIMARY KEY, v TEXT)");
  Q("CREATE TABLE y (id INTEGER PRIMARY KEY, xref INT)");
  Q("INSERT INTO x VALUES (1, 'a'), (2, 'b')");
  Q("INSERT INTO y VALUES (10, 1), (11, 2), (12, 1)");
  ResultSet r = Q(
      "SELECT y.id, x.v FROM y, x WHERE y.xref = x.id AND x.v = 'a' "
      "ORDER BY y.id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);
  EXPECT_EQ(r.rows[1][0].AsInt(), 12);
}

TEST_F(SqlEdgeTest, DropIndexFallsBackToScanWithSameResults) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, k INT)");
  Q("CREATE INDEX idx_k ON t (k)");
  for (int i = 1; i <= 40; ++i) {
    Q("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
      std::to_string(i % 4) + ")");
  }
  int64_t with_index = Scalar("SELECT COUNT(*) FROM t WHERE k = 2").AsInt();
  Q("DROP INDEX idx_k");
  int64_t without = Scalar("SELECT COUNT(*) FROM t WHERE k = 2").AsInt();
  EXPECT_EQ(with_index, without);
  EXPECT_EQ(with_index, 10);
}

TEST_F(SqlEdgeTest, DdlInsideTransactionRollsBack) {
  Q("BEGIN");
  Q("CREATE TABLE ephemeral (v INT)");
  Q("INSERT INTO ephemeral VALUES (1)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM ephemeral").AsInt(), 1);
  Q("ROLLBACK");
  EXPECT_FALSE(db_->Exec("SELECT * FROM ephemeral").ok());
  // And can be created again cleanly afterwards.
  Q("CREATE TABLE ephemeral (v TEXT)");
  Q("INSERT INTO ephemeral VALUES ('yes')");
  EXPECT_EQ(Scalar("SELECT v FROM ephemeral").AsText(), "yes");
}

TEST_F(SqlEdgeTest, SelectDistinctStarAndQualifiedStar) {
  Q("CREATE TABLE a (x INT)");
  Q("CREATE TABLE b (y INT)");
  Q("INSERT INTO a VALUES (1)");
  Q("INSERT INTO b VALUES (2)");
  ResultSet r = Q("SELECT a.*, b.* FROM a JOIN b ON 1 = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0].size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
}

TEST_F(SqlEdgeTest, RowsAffectedCounts) {
  Q("CREATE TABLE t (v INT)");
  ResultSet ins = Q("INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(ins.rows_affected, 3u);
  ResultSet upd = Q("UPDATE t SET v = v + 1 WHERE v >= 2");
  EXPECT_EQ(upd.rows_affected, 2u);
  ResultSet del = Q("DELETE FROM t");
  EXPECT_EQ(del.rows_affected, 3u);
}

TEST_F(SqlEdgeTest, IndexConsistencyUnderMixedDml) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, k INT, v TEXT)");
  Q("CREATE INDEX idx ON t (k)");
  Rng rng(5);
  std::map<int64_t, int64_t> model;  // id -> k
  int64_t next_id = 0;
  for (int op = 0; op < 400; ++op) {
    int action = int(rng.Uniform(3));
    if (action == 0 || model.empty()) {
      int64_t id = ++next_id;
      int64_t k = int64_t(rng.Uniform(10));
      Q("INSERT INTO t VALUES (" + std::to_string(id) + ", " +
        std::to_string(k) + ", 'v')");
      model[id] = k;
    } else if (action == 1) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      int64_t k = int64_t(rng.Uniform(10));
      Q("UPDATE t SET k = " + std::to_string(k) + " WHERE id = " +
        std::to_string(it->first));
      it->second = k;
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      Q("DELETE FROM t WHERE id = " + std::to_string(it->first));
      model.erase(it);
    }
  }
  // Index-driven counts must match the model for every key.
  for (int64_t k = 0; k < 10; ++k) {
    int64_t want = 0;
    for (const auto& [id, mk] : model) want += mk == k;
    EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE k = " +
                     std::to_string(k))
                  .AsInt(),
              want)
        << "k=" << k;
  }
}

TEST_F(SqlEdgeTest, GroupByBasic) {
  Q("CREATE TABLE sales (region TEXT, amount INT)");
  Q("INSERT INTO sales VALUES ('east', 10), ('west', 20), ('east', 5), "
    "('west', 1), ('north', 7)");
  ResultSet r = Q(
      "SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region "
      "ORDER BY region");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsText(), "east");
  EXPECT_EQ(r.rows[0][1].AsInt(), 2);
  EXPECT_EQ(r.rows[0][2].AsInt(), 15);
  EXPECT_EQ(r.rows[1][0].AsText(), "north");
  EXPECT_EQ(r.rows[1][2].AsInt(), 7);
  EXPECT_EQ(r.rows[2][0].AsText(), "west");
  EXPECT_EQ(r.rows[2][2].AsInt(), 21);
}

TEST_F(SqlEdgeTest, GroupByHaving) {
  Q("CREATE TABLE t (k INT, v INT)");
  Q("INSERT INTO t VALUES (1, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)");
  ResultSet r = Q(
      "SELECT k, COUNT(*) FROM t GROUP BY k HAVING COUNT(*) >= 2 "
      "ORDER BY k");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
  EXPECT_EQ(r.rows[1][1].AsInt(), 3);
}

TEST_F(SqlEdgeTest, GroupByCompositeKeyAndExpression) {
  Q("CREATE TABLE t (a INT, b INT, v INT)");
  Q("INSERT INTO t VALUES (1, 1, 10), (1, 2, 20), (1, 1, 30), (2, 1, 40)");
  ResultSet r = Q(
      "SELECT a, b, SUM(v) + 1 FROM t GROUP BY a, b ORDER BY a, b");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][2].AsInt(), 41);  // (1,1): 10+30+1
  EXPECT_EQ(r.rows[1][2].AsInt(), 21);  // (1,2)
  EXPECT_EQ(r.rows[2][2].AsInt(), 41);  // (2,1)
}

TEST_F(SqlEdgeTest, GroupByOrderByAggregate) {
  Q("CREATE TABLE t (k TEXT, v INT)");
  Q("INSERT INTO t VALUES ('a', 1), ('b', 10), ('a', 2), ('c', 5)");
  ResultSet r = Q("SELECT k FROM t GROUP BY k ORDER BY SUM(v) DESC");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsText(), "b");   // 10
  EXPECT_EQ(r.rows[1][0].AsText(), "c");   // 5
  EXPECT_EQ(r.rows[2][0].AsText(), "a");   // 3
}

TEST_F(SqlEdgeTest, InAndBetween) {
  Q("CREATE TABLE t (v INT)");
  Q("INSERT INTO t VALUES (1), (2), (3), (4), (5), (6)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE v IN (2, 4, 9)").AsInt(), 2);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE v NOT IN (2, 4)").AsInt(), 4);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE v BETWEEN 2 AND 4").AsInt(),
            3);
  EXPECT_EQ(
      Scalar("SELECT COUNT(*) FROM t WHERE v NOT BETWEEN 2 AND 4").AsInt(),
      3);
  EXPECT_EQ(Scalar("SELECT 'b' IN ('a', 'b')").AsInt(), 1);
}

TEST_F(SqlEdgeTest, GroupedJoin) {
  Q("CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INT)");
  Q("CREATE TABLE lines (oid INT, amount INT)");
  Q("INSERT INTO orders VALUES (1, 7), (2, 7), (3, 9)");
  Q("INSERT INTO lines VALUES (1, 10), (1, 20), (2, 5), (3, 100)");
  ResultSet r = Q(
      "SELECT o.cust, SUM(l.amount) FROM orders o JOIN lines l "
      "ON l.oid = o.id GROUP BY o.cust ORDER BY o.cust");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 7);
  EXPECT_EQ(r.rows[0][1].AsInt(), 35);
  EXPECT_EQ(r.rows[1][0].AsInt(), 9);
  EXPECT_EQ(r.rows[1][1].AsInt(), 100);
}

TEST_F(SqlEdgeTest, ConcatAndTextCoercion) {
  EXPECT_EQ(Scalar("SELECT 'n=' || 42").AsText(), "n=42");
  EXPECT_EQ(Scalar("SELECT LENGTH(1000)").AsInt(), 4);
}

// --- BEGIN modifiers ---------------------------------------------------------

TEST_F(SqlEdgeTest, BeginReadonlyRejectsWrites) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, v INT)");
  Q("INSERT INTO t VALUES (1, 10), (2, 20)");

  Q("BEGIN READONLY");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").AsInt(), 2);
  Status s = db_->Exec("INSERT INTO t VALUES (3, 30)").status();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("read-only transaction"), std::string::npos);
  // The rejected write must not have poisoned the read transaction.
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").AsInt(), 2);
  Q("COMMIT");

  // Writes work again once the read transaction ends.
  Q("INSERT INTO t VALUES (3, 30)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").AsInt(), 3);
}

TEST_F(SqlEdgeTest, BeginUnknownModifierIsParseError) {
  Status s = db_->Exec("BEGIN BOGUS").status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unknown BEGIN modifier 'BOGUS'"),
            std::string::npos);
  // The failed parse must not have opened a transaction.
  Q("BEGIN");
  Q("COMMIT");
  // Known modifiers all still parse.
  Q("BEGIN DEFERRED");
  Q("COMMIT");
  Q("BEGIN TRANSACTION");
  Q("COMMIT");
}

// --- statement binding ----------------------------------------------------------
//
// Column references are resolved once per statement; these pin the name
// resolution rules and, through rows_scanned (the input of the simulated
// CPU time), the access path each join level takes.

// Column names are case-insensitive, so a table cannot have two names that
// differ only in case: each reference names one column.
TEST_F(SqlEdgeTest, DuplicateColumnNamesRejected) {
  Status s = db_->Exec("CREATE TABLE d (a INT, b TEXT, A REAL)").status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "duplicate column name: A");
  EXPECT_FALSE(db_->Exec("SELECT * FROM d").ok());
  Q("CREATE TABLE d (a INT, b TEXT, ab REAL)");
  EXPECT_EQ(Q("SELECT a, B, Ab FROM d").columns.size(), 3u);
}

TEST_F(SqlEdgeTest, JoinWithSameNamedColumns) {
  Q("CREATE TABLE p (id INTEGER PRIMARY KEY, name TEXT, k INT)");
  Q("CREATE TABLE c (id INTEGER PRIMARY KEY, name TEXT, pid INT)");
  Q("INSERT INTO p VALUES (1, 'p1', 10), (2, 'p2', 20)");
  Q("INSERT INTO c VALUES (1, 'c1', 2), (2, 'c2', 1), (3, 'c3', 2)");
  // Unqualified names resolve to the first source that has the column.
  ResultSet r = Q(
      "SELECT id, name, c.id, c.name, p.name FROM p JOIN c ON c.pid = p.id "
      "ORDER BY c.id");
  ASSERT_EQ(r.rows.size(), 3u);
  const std::vector<std::vector<std::string>> want = {
      {"2", "p2", "1", "c1", "p2"},
      {"1", "p1", "2", "c2", "p1"},
      {"2", "p2", "3", "c3", "p2"}};
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(r.rows[i].size(), want[i].size());
    for (size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(r.rows[i][j].AsText(), want[i][j]) << i << "," << j;
    }
  }
  // Full scan of p, then a full scan of c per p row.
  EXPECT_EQ(r.rows_scanned, 8u);
  // With c first, the same unqualified names now mean c's columns, and p is
  // reached by rowid from each c row.
  r = Q("SELECT name, id FROM c JOIN p ON p.id = c.pid WHERE p.name = 'p2' "
        "ORDER BY id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsText(), "c1");
  EXPECT_EQ(r.rows[0][1].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsText(), "c3");
  EXPECT_EQ(r.rows[1][1].AsInt(), 3);
  EXPECT_EQ(r.rows_scanned, 6u);
  // A star expands each source's columns under its own alias.
  r = Q("SELECT * FROM p a JOIN p b ON b.id = a.id + 1");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0].size(), 6u);
  EXPECT_EQ(r.rows[0][1].AsText(), "p1");
  EXPECT_EQ(r.rows[0][4].AsText(), "p2");
  EXPECT_EQ(r.rows_scanned, 3u);
}

TEST_F(SqlEdgeTest, MixedCaseAliasesAndColumns) {
  Q("CREATE TABLE stock (s_key INTEGER PRIMARY KEY, s_i_id INT, s_w_id INT, "
    "s_quantity INT)");
  Q("CREATE INDEX idx_stock ON stock (s_w_id, s_i_id)");
  for (int i = 1; i <= 20; ++i) {
    Q("INSERT INTO stock VALUES (" + std::to_string(i) + ", " +
      std::to_string(i % 10) + ", " + std::to_string(1 + i % 2) + ", " +
      std::to_string(i * 3) + ")");
  }
  ResultSet r = Q(
      "SELECT S.S_I_ID, s.S_Quantity, S.s_key FROM Stock S "
      "WHERE S.S_W_ID = 2 AND s.s_i_id = 3 ORDER BY s.S_KEY");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsInt(), 9);
  EXPECT_EQ(r.rows[0][2].AsInt(), 3);
  EXPECT_EQ(r.rows[1][1].AsInt(), 39);
  EXPECT_EQ(r.rows_scanned, 2u);  // both index columns bound
  r = Q("SELECT COUNT(*) FROM STOCK WHERE stock.S_W_ID = 1");
  EXPECT_EQ(r.rows[0][0].AsInt(), 10);
  EXPECT_EQ(r.rows_scanned, 10u);  // index prefix of one column
}

TEST_F(SqlEdgeTest, RowidAndIntegerPrimaryKeyAlias) {
  Q("CREATE TABLE r (k INTEGER PRIMARY KEY, v TEXT)");
  Q("CREATE TABLE n (v TEXT)");
  Q("INSERT INTO r VALUES (5, 'five'), (7, 'seven'), (9, 'nine')");
  Q("INSERT INTO n VALUES ('a'), ('b'), ('c')");
  ResultSet r = Q("SELECT rowid, k, ROWID, r.RowId, v FROM r WHERE k = 7");
  ASSERT_EQ(r.rows.size(), 1u);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(r.rows[0][j].AsInt(), 7) << j;
  EXPECT_EQ(r.rows[0][4].AsText(), "seven");
  EXPECT_EQ(r.rows_scanned, 1u);  // rowid lookup through the alias
  r = Q("SELECT v FROM r WHERE rowid = 9");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), "nine");
  EXPECT_EQ(r.rows_scanned, 1u);
  r = Q("SELECT rowid, v FROM n WHERE rowid = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[0][1].AsText(), "b");
  EXPECT_EQ(r.rows_scanned, 1u);
  EXPECT_EQ(Q("SELECT v FROM r WHERE k = NULL").rows_scanned, 0u);
  // Join through a rowid on the inner side.
  r = Q("SELECT r.v, n.v FROM r JOIN n ON n.rowid = r.k - 4 ORDER BY r.k");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsText(), "a");
  EXPECT_EQ(r.rows[1][1].AsText(), "c");
  EXPECT_EQ(r.rows_scanned, 5u);
}

TEST_F(SqlEdgeTest, UnknownColumnIsNotFound) {
  Q("CREATE TABLE t (v INT)");
  Q("CREATE TABLE e (v INT)");
  Q("INSERT INTO t VALUES (1), (2)");
  auto expect_not_found = [&](const std::string& sql,
                              const std::string& message) {
    Status s = db_->Exec(sql).status();
    EXPECT_TRUE(s.IsNotFound()) << sql << " -> " << s.ToString();
    EXPECT_EQ(s.message(), message) << sql;
  };
  expect_not_found("SELECT nosuch FROM t", "no such column: nosuch");
  expect_not_found("SELECT t.nosuch FROM t", "no such column: t.nosuch");
  expect_not_found("SELECT x.v FROM t", "no such column: x.v");
  expect_not_found("SELECT v FROM t WHERE nosuch = 1",
                   "no such column: nosuch");
  expect_not_found("UPDATE t SET v = nosuch + 1", "no such column: nosuch");
  expect_not_found("SELECT COUNT(*), nosuch FROM e", "no such column: nosuch");
  expect_not_found("INSERT INTO t VALUES (v)", "no such column: v");
  // References are checked when a row reaches them, as before: a statement
  // that evaluates no row does not fail, and short-circuit skips the rest.
  EXPECT_TRUE(Q("SELECT nosuch FROM e").rows.empty());
  EXPECT_EQ(Q("SELECT v FROM t WHERE v = 0 AND nosuch = 1").rows.size(), 0u);
  EXPECT_EQ(Q("SELECT v FROM t WHERE 1 OR nosuch").rows.size(), 2u);
}

TEST_F(SqlEdgeTest, GroupByHavingDistinctOverJoin) {
  Q("CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INT)");
  Q("CREATE TABLE lines (oid INT, item INT, qty INT)");
  Q("CREATE INDEX idx_lines ON lines (oid)");
  Q("INSERT INTO orders VALUES (1, 7), (2, 7), (3, 9), (4, 8)");
  Q("INSERT INTO lines VALUES (1, 100, 1), (1, 101, 2), (2, 100, 3), "
    "(3, 102, 4), (4, 103, 5), (4, 103, 6)");
  ResultSet r = Q(
      "SELECT o.cust, COUNT(DISTINCT l.item), SUM(l.qty), COUNT(*) "
      "FROM orders o JOIN lines l ON l.oid = o.id GROUP BY o.cust "
      "HAVING COUNT(*) > 1 ORDER BY SUM(l.qty) DESC");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 8);
  EXPECT_EQ(r.rows[0][1].AsInt(), 1);
  EXPECT_EQ(r.rows[0][2].AsInt(), 11);
  EXPECT_EQ(r.rows[0][3].AsInt(), 2);
  EXPECT_EQ(r.rows[1][0].AsInt(), 7);
  EXPECT_EQ(r.rows[1][1].AsInt(), 2);
  EXPECT_EQ(r.rows[1][2].AsInt(), 6);
  EXPECT_EQ(r.rows[1][3].AsInt(), 3);
  EXPECT_EQ(r.rows_scanned, 10u);  // 4 orders, then 6 lines by index
}

TEST_F(SqlEdgeTest, UpdateAndDeleteThroughIndexPrefix) {
  Q("CREATE TABLE t (id INTEGER PRIMARY KEY, a INT, b INT, v INT)");
  Q("CREATE INDEX idx_ab ON t (a, b)");
  for (int i = 1; i <= 30; ++i) {
    Q("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
      std::to_string(i % 3) + ", " + std::to_string(i % 5) + ", 0)");
  }
  ResultSet r = Q("UPDATE t SET v = v + id WHERE a = 2 AND b = 3");
  EXPECT_EQ(r.rows_affected, 2u);  // ids 8 and 23
  EXPECT_EQ(r.rows_scanned, 2u);
  EXPECT_EQ(Scalar("SELECT SUM(v) FROM t").AsInt(), 31);
  r = Q("UPDATE t SET b = 4 WHERE A = 1 AND v = 0");
  EXPECT_EQ(r.rows_affected, 10u);
  EXPECT_EQ(r.rows_scanned, 10u);  // prefix of one column
  r = Q("DELETE FROM t WHERE a = 1 AND b = 4");
  EXPECT_EQ(r.rows_affected, 10u);
  EXPECT_EQ(r.rows_scanned, 10u);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t WHERE a = 1").AsInt(), 0);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM t").AsInt(), 20);
}

// The TPC-C stock-level join and order-status reads on a small database of
// the benchmark's schema. rows_scanned drives the simulated CPU time of
// every statement, so a plan change that moves it fails here.
TEST_F(SqlEdgeTest, TpccReadPlansKeepRowsScanned) {
  Q(R"sql(
    CREATE TABLE district (d_key INTEGER PRIMARY KEY, d_id INT, d_w_id INT,
      d_name TEXT, d_tax REAL, d_ytd REAL, d_next_o_id INT);
    CREATE TABLE customer (c_key INTEGER PRIMARY KEY, c_id INT, c_d_id INT,
      c_w_id INT, c_last TEXT, c_first TEXT, c_balance REAL, c_ytd_payment REAL,
      c_payment_cnt INT, c_delivery_cnt INT, c_data TEXT);
    CREATE TABLE orders (o_key INTEGER PRIMARY KEY, o_id INT, o_d_id INT,
      o_w_id INT, o_c_id INT, o_carrier_id INT, o_ol_cnt INT, o_all_local INT);
    CREATE TABLE order_line (ol_key INTEGER PRIMARY KEY, ol_o_id INT,
      ol_d_id INT, ol_w_id INT, ol_number INT, ol_i_id INT,
      ol_supply_w_id INT, ol_quantity INT, ol_amount REAL, ol_dist_info TEXT);
    CREATE TABLE stock (s_key INTEGER PRIMARY KEY, s_i_id INT, s_w_id INT,
      s_quantity INT, s_ytd INT, s_order_cnt INT, s_remote_cnt INT,
      s_data TEXT);
    CREATE INDEX idx_district ON district (d_w_id, d_id);
    CREATE INDEX idx_customer ON customer (c_w_id, c_d_id, c_id);
    CREATE INDEX idx_customer_name ON customer (c_w_id, c_d_id, c_last);
    CREATE INDEX idx_orders ON orders (o_w_id, o_d_id, o_id);
    CREATE INDEX idx_orders_cust ON orders (o_w_id, o_d_id, o_c_id);
    CREATE INDEX idx_order_line ON order_line (ol_w_id, ol_d_id, ol_o_id);
    CREATE INDEX idx_stock ON stock (s_w_id, s_i_id);
  )sql");
  const int kWarehouses = 2, kDistricts = 2, kCustomers = 10, kOrders = 30,
            kItems = 60;
  auto n = [](int64_t v) { return std::to_string(v); };
  int64_t key = 0;
  for (int w = 1; w <= kWarehouses; ++w) {
    Q("BEGIN");
    for (int i = 1; i <= kItems; ++i) {
      Q("INSERT INTO stock VALUES (" + n(++key) + ", " + n(i) + ", " + n(w) +
        ", " + n(10 + (i * 7 + w) % 91) + ", 0, 0, 0, 'sd')");
    }
    Q("COMMIT");
  }
  for (int w = 1; w <= kWarehouses; ++w) {
    for (int d = 1; d <= kDistricts; ++d) {
      const int64_t dk = (w - 1) * kDistricts + d;
      Q("BEGIN");
      Q("INSERT INTO district VALUES (" + n(dk) + ", " + n(d) + ", " + n(w) +
        ", 'dn', 0.1, 0.0, " + n(kOrders + 1) + ")");
      for (int c = 1; c <= kCustomers; ++c) {
        Q("INSERT INTO customer VALUES (" + n(dk * 100 + c) + ", " + n(c) +
          ", " + n(d) + ", " + n(w) + ", 'LAST" + n(c % 4) +
          "', 'first', -10.0, 10.0, 1, 0, 'cd')");
      }
      for (int o = 1; o <= kOrders; ++o) {
        const int64_t ok = dk * 1000 + o;
        const int lines = 5 + o % 6;
        Q("INSERT INTO orders VALUES (" + n(ok) + ", " + n(o) + ", " + n(d) +
          ", " + n(w) + ", " + n(1 + o % kCustomers) + ", " + n(o % 10) +
          ", " + n(lines) + ", 1)");
        for (int l = 1; l <= lines; ++l) {
          Q("INSERT INTO order_line VALUES (" + n(ok * 100 + l) + ", " + n(o) +
            ", " + n(d) + ", " + n(w) + ", " + n(l) + ", " +
            n(1 + (o * 13 + l * 7) % kItems) + ", " + n(w) + ", 5, " +
            n(o + l) + ".5, 'dist')");
        }
      }
      Q("COMMIT");
    }
  }

  struct Case {
    std::string sql;
    int64_t rows;
    uint64_t scanned;
  };
  const int w = 2, d = 1, c = 4;
  const int64_t o_id = kOrders + 1;
  const std::vector<Case> cases = {
      // Stock level: the district's next order id, then the join.
      {"SELECT d_next_o_id FROM district WHERE d_w_id = " + n(w) +
           " AND d_id = " + n(d),
       1, 1},
      {"SELECT COUNT(DISTINCT s.s_i_id) FROM order_line ol JOIN stock s ON "
       "s.s_i_id = ol.ol_i_id AND s.s_w_id = ol.ol_w_id WHERE ol.ol_w_id = " +
           n(w) + " AND ol.ol_d_id = " + n(d) + " AND ol.ol_o_id >= " +
           n(o_id - 20) + " AND s.s_quantity < " + n(40),
       1, 450},
      // Order status.
      {"SELECT c_balance, c_first, c_last FROM customer WHERE c_w_id = " +
           n(w) + " AND c_d_id = " + n(d) + " AND c_id = " + n(c),
       1, 1},
      {"SELECT o_id, o_carrier_id FROM orders WHERE o_w_id = " + n(w) +
           " AND o_d_id = " + n(d) + " AND o_c_id = " + n(c) +
           " ORDER BY o_id DESC LIMIT 1",
       1, 3},
      {"SELECT ol_i_id, ol_quantity, ol_amount FROM order_line WHERE "
       "ol_w_id = " + n(w) + " AND ol_d_id = " + n(d) + " AND ol_o_id = " +
           n(23),
       10, 10},
  };
  for (const Case& k : cases) {
    ResultSet r = Q(k.sql);
    EXPECT_EQ(int64_t(r.rows.size()), k.rows) << k.sql;
    EXPECT_EQ(r.rows_scanned, k.scanned) << k.sql;
  }
  EXPECT_EQ(Scalar(cases[1].sql).AsInt(), 19);
}

}  // namespace
}  // namespace xftl::sql
