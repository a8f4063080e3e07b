// Statement execution: expression evaluation, access-path selection (rowid
// lookup > index prefix scan > full scan), nested-loop joins with index
// lookups on the inner side, single-group aggregates, and index-maintaining
// DML. Each statement's column names, operators and per-level equality
// conjuncts are resolved once, before its first row.
#ifndef XFTL_SQL_EXECUTOR_H_
#define XFTL_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/pager.h"
#include "sql/record.h"
#include "sql/schema.h"

namespace xftl::sql {

struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  uint64_t rows_affected = 0;
  // Rows visited while executing (drives the host CPU-time model).
  uint64_t rows_scanned = 0;
};

// Executes one parsed statement. Transaction-control and PRAGMA statements
// are handled by the Database facade, not here.
StatusOr<ResultSet> ExecuteStatement(Pager* pager, Schema* schema,
                                     const Statement& stmt);

}  // namespace xftl::sql

#endif  // XFTL_SQL_EXECUTOR_H_
