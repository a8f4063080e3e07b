#include "sql/executor.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "sql/btree.h"

namespace xftl::sql {

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](char c) { return char(std::tolower(c)); });
  return out;
}

bool NameEq(const std::string& a, const std::string& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(x) == std::tolower(y);
         });
}

// One table instance of a statement: the FROM table and each joined table
// in order, or the target of an UPDATE or DELETE.
struct Source {
  std::string alias;  // lower-cased
  const TableInfo* table = nullptr;
};

// The current row of one source while a statement runs. Evaluation sees the
// rows of a prefix of the sources: the outer join levels while a level
// picks its rows, every level at the innermost one.
struct Frame {
  const Row* row = nullptr;
  int64_t rowid = 0;
};
using Frames = std::span<const Frame>;

// Operators and functions, looked up by name once per statement.
enum class Op : uint8_t {
  kNone,  // not an operator node
  kAnd, kOr, kEq, kNe, kLt, kLe, kGt, kGe, kLike, kConcat,
  kAdd, kSub, kMul, kDiv, kMod,
  kNeg, kNot, kIsNull, kIsNotNull,
  kBad,  // unknown name; an error when evaluated
};

Op BinaryOp(const std::string& op) {
  static const std::pair<const char*, Op> kOps[] = {
      {"AND", Op::kAnd}, {"OR", Op::kOr},     {"=", Op::kEq},
      {"!=", Op::kNe},   {"<", Op::kLt},      {"<=", Op::kLe},
      {">", Op::kGt},    {">=", Op::kGe},     {"LIKE", Op::kLike},
      {"||", Op::kConcat}, {"+", Op::kAdd},   {"-", Op::kSub},
      {"*", Op::kMul},   {"/", Op::kDiv},     {"%", Op::kMod}};
  for (const auto& [name, value] : kOps) {
    if (op == name) return value;
  }
  return Op::kBad;
}

Op UnaryOp(const std::string& op) {
  if (op == "-") return Op::kNeg;
  if (op == "NOT") return Op::kNot;
  if (op == "ISNULL") return Op::kIsNull;
  if (op == "ISNOTNULL") return Op::kIsNotNull;
  return Op::kBad;
}

enum class Func : uint8_t {
  kLength, kAbs, kUpper, kLower, kCoalesce, kSubstr, kMin, kMax,
  kCount, kSum, kAvg, kTotal,
  kUnknown,
};

Func FuncOf(const std::string& name) {
  static const std::pair<const char*, Func> kFuncs[] = {
      {"LENGTH", Func::kLength}, {"ABS", Func::kAbs},
      {"UPPER", Func::kUpper},   {"LOWER", Func::kLower},
      {"COALESCE", Func::kCoalesce}, {"IFNULL", Func::kCoalesce},
      {"SUBSTR", Func::kSubstr}, {"MIN", Func::kMin},
      {"MAX", Func::kMax},       {"COUNT", Func::kCount},
      {"SUM", Func::kSum},       {"AVG", Func::kAvg},
      {"TOTAL", Func::kTotal}};
  for (const auto& [n, value] : kFuncs) {
    if (name == n) return value;
  }
  return Func::kUnknown;
}

// MIN and MAX aggregate with one argument and are scalar with more.
bool IsAggregateCall(Func f, size_t nargs) {
  switch (f) {
    case Func::kCount:
    case Func::kSum:
    case Func::kAvg:
    case Func::kTotal:
      return true;
    case Func::kMin:
    case Func::kMax:
      return nargs == 1;
    default:
      return false;
  }
}

bool IsAggregate(const Expr& e) {
  return e.kind == Expr::Kind::kFunction &&
         IsAggregateCall(FuncOf(e.func), e.args.size());
}

bool ContainsAggregate(const Expr& e) {
  if (IsAggregate(e)) return true;
  if (e.lhs != nullptr && ContainsAggregate(*e.lhs)) return true;
  if (e.rhs != nullptr && ContainsAggregate(*e.rhs)) return true;
  for (const auto& a : e.args) {
    if (ContainsAggregate(*a)) return true;
  }
  return false;
}

// An expression with its names resolved for one statement: a column names
// the source that supplies it and its position in the row, operators and
// functions are enums. Resolution follows the rules evaluation always had:
// names are case-insensitive, an unqualified column belongs to the first
// source that has it, a qualified one to the first source of that alias.
// A column no source supplies fails with NotFound when it is evaluated, so
// a statement that never reaches it still runs.
struct BoundExpr {
  const Expr* expr = nullptr;  // the parsed node: kind, literal, names
  Op op = Op::kNone;
  Func func = Func::kUnknown;
  int level = -1;   // column: the supplying source, -1 when none does
  int column = -1;  // column: position in the row, -1 for the rowid
  int agg = -1;     // collected aggregate: index of its finalized value
  std::vector<BoundExpr> args;  // unary {rhs}, binary {lhs, rhs}, call args
};

BoundExpr Bind(const Expr& e, const std::vector<Source>& sources) {
  BoundExpr b;
  b.expr = &e;
  switch (e.kind) {
    case Expr::Kind::kColumn: {
      const bool rowid = NameEq(e.column, "rowid");
      const std::string want = Lower(e.table);
      for (size_t level = 0; level < sources.size(); ++level) {
        const Source& src = sources[level];
        if (!want.empty() && src.alias != want) continue;
        const int idx = rowid ? -1 : src.table->ColumnIndex(e.column);
        if (rowid || idx >= 0) {
          b.level = int(level);
          b.column = idx == src.table->rowid_alias ? -1 : idx;
          break;
        }
        if (!want.empty()) break;
      }
      break;
    }
    case Expr::Kind::kUnary:
      b.op = UnaryOp(e.op);
      b.args.push_back(Bind(*e.rhs, sources));
      break;
    case Expr::Kind::kBinary:
      b.op = BinaryOp(e.op);
      b.args.push_back(Bind(*e.lhs, sources));
      b.args.push_back(Bind(*e.rhs, sources));
      break;
    case Expr::Kind::kFunction:
      b.func = FuncOf(e.func);
      for (const auto& a : e.args) b.args.push_back(Bind(*a, sources));
      break;
    case Expr::Kind::kLiteral:
    case Expr::Kind::kStar:
      break;
  }
  return b;
}

// True when `b` evaluates without error over the rows of the first
// `visible` sources, outside aggregate finalization, whatever their values.
bool AlwaysEvaluates(const BoundExpr& b, size_t visible) {
  switch (b.expr->kind) {
    case Expr::Kind::kLiteral:
      return true;
    case Expr::Kind::kColumn:
      return b.level >= 0 && size_t(b.level) < visible;
    case Expr::Kind::kStar:
      return false;
    case Expr::Kind::kUnary:
    case Expr::Kind::kBinary:
      if (b.op == Op::kBad) return false;
      break;
    case Expr::Kind::kFunction: {
      size_t min_args;
      switch (b.func) {
        case Func::kLength:
        case Func::kAbs:
        case Func::kUpper:
        case Func::kLower:
          min_args = 1;
          break;
        case Func::kSubstr:
        case Func::kMin:
        case Func::kMax:
          min_args = 2;
          break;
        case Func::kCoalesce:
          min_args = 0;
          break;
        default:
          return false;
      }
      if (b.args.size() < min_args) return false;
      break;
    }
  }
  return std::all_of(b.args.begin(), b.args.end(), [&](const BoundExpr& a) {
    return AlwaysEvaluates(a, visible);
  });
}

// A conjunct `column = value` that picks a level's rows: `value` is
// evaluated over the outer levels' rows.
struct EqTerm {
  int column = -1;  // -1: the rowid (by name or through its alias)
  BoundExpr value;
};

// How a level's rows are found: by rowid, by a prefix of one index, or by a
// full scan. The key holds the values of `columns`, in order.
struct AccessPath {
  enum class Kind { kFullScan, kRowid, kIndex };
  Kind kind = Kind::kFullScan;
  const IndexInfo* index = nullptr;
  std::vector<int> columns;  // -1: the rowid
};

// Prefers a rowid lookup, then the index with the longest prefix of bound
// columns (the first such index in catalog order), then a full scan.
template <typename IsBound>
AccessPath ChooseAccess(const TableInfo& table, const IsBound& is_bound) {
  AccessPath path;
  if (is_bound(-1)) {
    path.kind = AccessPath::Kind::kRowid;
    path.columns = {-1};
    return path;
  }
  size_t best_len = 0;
  for (const IndexInfo* idx : table.indexes) {
    size_t len = 0;
    while (len < idx->columns.size() && is_bound(idx->columns[len])) len++;
    if (len > best_len) {
      best_len = len;
      path.index = idx;
    }
  }
  if (path.index != nullptr) {
    path.kind = AccessPath::Kind::kIndex;
    path.columns.assign(path.index->columns.begin(),
                        path.index->columns.begin() + best_len);
  }
  return path;
}

// The access plan of one level, made once per statement.
struct LevelPlan {
  // Per '=' conjunct in statement order, its sides that name a column of
  // this level. For each outer row the first side whose value evaluates
  // binds its column, and a later conjunct overrides an earlier one.
  std::vector<std::vector<EqTerm>> eqs;
  // Every value always evaluates, so the first side of each conjunct binds
  // and the path is the same for every outer row.
  bool fixed = true;
  AccessPath path;                     // when fixed
  std::vector<const BoundExpr*> keys;  // when fixed: the key's values
};

LevelPlan PlanLevel(const std::vector<const Expr*>& conjuncts,
                    const std::vector<Source>& sources, size_t level) {
  LevelPlan plan;
  const Source& src = sources[level];
  const TableInfo& table = *src.table;
  for (const Expr* e : conjuncts) {
    if (e->kind != Expr::Kind::kBinary || BinaryOp(e->op) != Op::kEq) continue;
    std::vector<EqTerm> sides;
    for (int side = 0; side < 2; ++side) {
      const Expr* col = side == 0 ? e->lhs.get() : e->rhs.get();
      const Expr* val = side == 0 ? e->rhs.get() : e->lhs.get();
      if (col->kind != Expr::Kind::kColumn) continue;
      const std::string want = Lower(col->table);
      if (!want.empty() && want != src.alias) continue;
      const bool rowid = NameEq(col->column, "rowid");
      const int idx = rowid ? table.rowid_alias : table.ColumnIndex(col->column);
      const bool is_rowid = rowid || (idx >= 0 && idx == table.rowid_alias);
      if (idx < 0 && !is_rowid) continue;
      EqTerm term{is_rowid ? -1 : idx, Bind(*val, sources)};
      // A bare column of this or an inner level never evaluates here.
      if (val->kind == Expr::Kind::kColumn &&
          !AlwaysEvaluates(term.value, level)) {
        continue;
      }
      plan.fixed = plan.fixed && AlwaysEvaluates(term.value, level);
      sides.push_back(std::move(term));
    }
    if (!sides.empty()) plan.eqs.push_back(std::move(sides));
  }
  if (plan.fixed) {
    std::map<int, const BoundExpr*> bound;
    for (const auto& sides : plan.eqs) {
      bound[sides[0].column] = &sides[0].value;
    }
    plan.path = ChooseAccess(
        table, [&](int column) { return bound.count(column) > 0; });
    for (int column : plan.path.columns) plan.keys.push_back(bound.at(column));
  }
  return plan;
}

// SQL LIKE with % and _, ASCII case-insensitive.
bool LikeMatch(const std::string& pattern, const std::string& text,
               size_t pi = 0, size_t ti = 0) {
  while (pi < pattern.size()) {
    char p = pattern[pi];
    if (p == '%') {
      for (size_t skip = ti; skip <= text.size(); ++skip) {
        if (LikeMatch(pattern, text, pi + 1, skip)) return true;
      }
      return false;
    }
    if (ti >= text.size()) return false;
    if (p != '_' && std::tolower(p) != std::tolower(text[ti])) return false;
    pi++;
    ti++;
  }
  return ti == text.size();
}

class Executor {
 public:
  Executor(Pager* pager, Schema* schema) : pager_(pager), schema_(schema) {}

  StatusOr<ResultSet> Run(const Statement& stmt) {
    auto annotate = [this](StatusOr<ResultSet> r) {
      if (r.ok()) r.value().rows_scanned = rows_scanned_;
      return r;
    };
    if (const auto* s = std::get_if<CreateTableStmt>(&stmt)) {
      XFTL_RETURN_IF_ERROR(schema_->CreateTable(*s));
      return ResultSet{};
    }
    if (const auto* s = std::get_if<CreateIndexStmt>(&stmt)) {
      XFTL_RETURN_IF_ERROR(schema_->CreateIndex(*s));
      return ResultSet{};
    }
    if (const auto* s = std::get_if<DropStmt>(&stmt)) return RunDrop(*s);
    if (const auto* s = std::get_if<InsertStmt>(&stmt)) return RunInsert(*s);
    if (const auto* s = std::get_if<SelectStmt>(&stmt)) {
      return annotate(RunSelect(*s));
    }
    if (const auto* s = std::get_if<UpdateStmt>(&stmt)) {
      return annotate(RunUpdate(*s));
    }
    if (const auto* s = std::get_if<DeleteStmt>(&stmt)) {
      return annotate(RunDelete(*s));
    }
    return Status::InvalidArgument("statement not executable here");
  }

 private:
  // Aggregate accumulator (single group).
  struct Agg {
    uint64_t count = 0;
    double sum = 0;
    bool sum_is_int = true;
    int64_t isum = 0;
    Value min, max;
    std::set<std::string> distinct;
  };

  // Streams (rowid, row) pairs; returning false stops the scan.
  using RowFn = std::function<StatusOr<bool>(int64_t, const Row&)>;

  // --- expression evaluation ------------------------------------------------

  StatusOr<Value> Eval(const BoundExpr& b, Frames ctx) {
    const Expr& e = *b.expr;
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return e.literal;
      case Expr::Kind::kColumn: {
        if (b.level < 0 || size_t(b.level) >= ctx.size()) {
          return Status::NotFound(
              "no such column: " +
              (e.table.empty() ? e.column : e.table + "." + e.column));
        }
        const Frame& f = ctx[b.level];
        if (b.column < 0) return Value::Int(f.rowid);
        if (b.column < int(f.row->size())) return (*f.row)[b.column];
        return Value::Null();
      }
      case Expr::Kind::kUnary:
        return EvalUnary(b, ctx);
      case Expr::Kind::kBinary:
        return EvalBinary(b, ctx);
      case Expr::Kind::kFunction:
        if (agg_values_ != nullptr && b.agg >= 0) return (*agg_values_)[b.agg];
        return EvalScalarFunction(b, ctx);
      case Expr::Kind::kStar:
        return Status::InvalidArgument("'*' not valid in this context");
    }
    return Status::InvalidArgument("bad expression");
  }

  StatusOr<Value> EvalUnary(const BoundExpr& b, Frames ctx) {
    XFTL_ASSIGN_OR_RETURN(Value v, Eval(b.args[0], ctx));
    switch (b.op) {
      case Op::kNeg:
        if (v.type() == ValueType::kInt) return Value::Int(-v.AsInt());
        return Value::Real(-v.AsReal());
      case Op::kNot:
        return Value::Int(v.Truthy() ? 0 : 1);
      case Op::kIsNull:
        return Value::Int(v.is_null() ? 1 : 0);
      case Op::kIsNotNull:
        return Value::Int(v.is_null() ? 0 : 1);
      default:
        return Status::InvalidArgument("bad unary operator " + b.expr->op);
    }
  }

  StatusOr<Value> EvalBinary(const BoundExpr& b, Frames ctx) {
    if (b.op == Op::kAnd || b.op == Op::kOr) {
      XFTL_ASSIGN_OR_RETURN(Value l, Eval(b.args[0], ctx));
      if (b.op == Op::kAnd && !l.Truthy()) return Value::Int(0);
      if (b.op == Op::kOr && l.Truthy()) return Value::Int(1);
      XFTL_ASSIGN_OR_RETURN(Value r, Eval(b.args[1], ctx));
      return Value::Int(r.Truthy() ? 1 : 0);
    }
    XFTL_ASSIGN_OR_RETURN(Value l, Eval(b.args[0], ctx));
    XFTL_ASSIGN_OR_RETURN(Value r, Eval(b.args[1], ctx));
    switch (b.op) {
      case Op::kEq:
      case Op::kNe:
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe: {
        if (l.is_null() || r.is_null()) return Value::Null();
        const int c = l.Compare(r);
        const bool result = (b.op == Op::kEq && c == 0) ||
                            (b.op == Op::kNe && c != 0) ||
                            (b.op == Op::kLt && c < 0) ||
                            (b.op == Op::kLe && c <= 0) ||
                            (b.op == Op::kGt && c > 0) ||
                            (b.op == Op::kGe && c >= 0);
        return Value::Int(result ? 1 : 0);
      }
      case Op::kLike:
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Int(LikeMatch(r.AsText(), l.AsText()) ? 1 : 0);
      case Op::kConcat:
        if (l.is_null() || r.is_null()) return Value::Null();
        return Value::Text(l.AsText() + r.AsText());
      default:
        break;
    }
    if (l.is_null() || r.is_null()) return Value::Null();
    const bool ints =
        l.type() == ValueType::kInt && r.type() == ValueType::kInt;
    switch (b.op) {
      case Op::kAdd:
        return ints ? Value::Int(l.AsInt() + r.AsInt())
                    : Value::Real(l.AsReal() + r.AsReal());
      case Op::kSub:
        return ints ? Value::Int(l.AsInt() - r.AsInt())
                    : Value::Real(l.AsReal() - r.AsReal());
      case Op::kMul:
        return ints ? Value::Int(l.AsInt() * r.AsInt())
                    : Value::Real(l.AsReal() * r.AsReal());
      case Op::kDiv:
        if (ints) {
          if (r.AsInt() == 0) return Value::Null();
          return Value::Int(l.AsInt() / r.AsInt());
        }
        if (r.AsReal() == 0.0) return Value::Null();
        return Value::Real(l.AsReal() / r.AsReal());
      case Op::kMod:
        if (r.AsInt() == 0) return Value::Null();
        return Value::Int(l.AsInt() % r.AsInt());
      default:
        return Status::InvalidArgument("bad binary operator " + b.expr->op);
    }
  }

  StatusOr<Value> EvalScalarFunction(const BoundExpr& b, Frames ctx) {
    const std::string& name = b.expr->func;
    auto arg = [&](size_t i) -> StatusOr<Value> {
      if (i >= b.args.size()) {
        return Status::InvalidArgument(name + ": missing argument");
      }
      return Eval(b.args[i], ctx);
    };
    switch (b.func) {
      case Func::kLength: {
        XFTL_ASSIGN_OR_RETURN(Value v, arg(0));
        if (v.is_null()) return Value::Null();
        if (v.type() == ValueType::kBlob) return Value::Int(v.blob().size());
        return Value::Int(int64_t(v.AsText().size()));
      }
      case Func::kAbs: {
        XFTL_ASSIGN_OR_RETURN(Value v, arg(0));
        if (v.is_null()) return Value::Null();
        if (v.type() == ValueType::kInt) return Value::Int(std::abs(v.AsInt()));
        return Value::Real(std::abs(v.AsReal()));
      }
      case Func::kUpper:
      case Func::kLower: {
        XFTL_ASSIGN_OR_RETURN(Value v, arg(0));
        if (v.is_null()) return Value::Null();
        std::string s = v.AsText();
        for (char& c : s) {
          c = b.func == Func::kUpper ? char(std::toupper(c))
                                     : char(std::tolower(c));
        }
        return Value::Text(std::move(s));
      }
      case Func::kCoalesce:
        for (const BoundExpr& a : b.args) {
          XFTL_ASSIGN_OR_RETURN(Value v, Eval(a, ctx));
          if (!v.is_null()) return v;
        }
        return Value::Null();
      case Func::kSubstr: {
        XFTL_ASSIGN_OR_RETURN(Value v, arg(0));
        XFTL_ASSIGN_OR_RETURN(Value from, arg(1));
        if (v.is_null()) return Value::Null();
        std::string s = v.AsText();
        int64_t start = std::max<int64_t>(1, from.AsInt()) - 1;
        int64_t len = int64_t(s.size()) - start;
        if (b.args.size() > 2) {
          XFTL_ASSIGN_OR_RETURN(Value lv, arg(2));
          len = lv.AsInt();
        }
        if (start >= int64_t(s.size()) || len <= 0) return Value::Text("");
        return Value::Text(s.substr(size_t(start), size_t(len)));
      }
      case Func::kMin:
      case Func::kMax:
        // Scalar form with 2+ args (the 1-arg form is an aggregate).
        if (b.args.size() >= 2) {
          XFTL_ASSIGN_OR_RETURN(Value best, arg(0));
          for (size_t i = 1; i < b.args.size(); ++i) {
            XFTL_ASSIGN_OR_RETURN(Value v, arg(i));
            int c = v.Compare(best);
            if ((b.func == Func::kMin && c < 0) ||
                (b.func == Func::kMax && c > 0)) {
              best = v;
            }
          }
          return best;
        }
        break;
      default:
        break;
    }
    return Status::InvalidArgument("unknown function " + name);
  }

  // Gathers the aggregate nodes of a bound tree and numbers them (not
  // descending into aggregate arguments: COUNT(SUM(x)) is not supported, as
  // in SQLite).
  static void CollectAggregates(BoundExpr* b, std::vector<const BoundExpr*>* out) {
    if (b->expr->kind == Expr::Kind::kFunction &&
        IsAggregateCall(b->func, b->args.size())) {
      b->agg = int(out->size());
      out->push_back(b);
      return;
    }
    for (BoundExpr& a : b->args) CollectAggregates(&a, out);
  }

  // --- access paths -----------------------------------------------------------

  // Flattens the AND tree into conjuncts.
  static void Conjuncts(const Expr* e, std::vector<const Expr*>* out) {
    if (e == nullptr) return;
    if (e->kind == Expr::Kind::kBinary && BinaryOp(e->op) == Op::kAnd) {
      Conjuncts(e->lhs.get(), out);
      Conjuncts(e->rhs.get(), out);
      return;
    }
    out->push_back(e);
  }

  // Streams the rows of level `plan` for the outer rows in `outer`.
  Status ScanLevel(const LevelPlan& plan, const TableInfo& table, Frames outer,
                   const RowFn& fn) {
    Row key;
    if (plan.fixed) {
      for (const BoundExpr* value : plan.keys) {
        XFTL_ASSIGN_OR_RETURN(Value v, Eval(*value, outer));
        key.push_back(std::move(v));
      }
      return ScanTable(table, plan.path, key, fn);
    }
    std::map<int, Value> bound;
    for (const auto& sides : plan.eqs) {
      for (const EqTerm& term : sides) {
        auto v = Eval(term.value, outer);
        if (!v.ok()) continue;  // needs a row this level does not see yet
        bound[term.column] = std::move(v).value();
        break;
      }
    }
    AccessPath path = ChooseAccess(
        table, [&](int column) { return bound.count(column) > 0; });
    for (int column : path.columns) key.push_back(bound.at(column));
    return ScanTable(table, path, key, fn);
  }

  // Streams the rows of `table` that `path` reaches with `key`: a rowid
  // lookup, an index prefix scan, or a full scan.
  Status ScanTable(const TableInfo& table, const AccessPath& path,
                   const Row& key, const RowFn& fn) {
    BTree data(pager_, table.root, /*is_index=*/false);

    auto emit_rowid = [&](int64_t rowid) -> StatusOr<bool> {
      auto cursor = data.NewCursor();
      XFTL_RETURN_IF_ERROR(cursor.SeekGE(rowid));
      if (!cursor.valid() || cursor.rowid() != rowid) return true;
      XFTL_ASSIGN_OR_RETURN(auto payload, cursor.Payload());
      XFTL_ASSIGN_OR_RETURN(Row row, DecodeRecord(payload));
      rows_scanned_++;
      return fn(rowid, row);
    };

    switch (path.kind) {
      case AccessPath::Kind::kRowid: {
        if (key[0].is_null()) return Status::OK();
        XFTL_ASSIGN_OR_RETURN(bool keep, emit_rowid(key[0].AsInt()));
        (void)keep;
        return Status::OK();
      }
      case AccessPath::Kind::kIndex: {
        BTree index(pager_, path.index->root, /*is_index=*/true);
        auto cursor = index.NewCursor();
        XFTL_RETURN_IF_ERROR(cursor.SeekGEKey(EncodeRecord(key)));
        while (cursor.valid()) {
          XFTL_ASSIGN_OR_RETURN(auto key_bytes, cursor.Payload());
          XFTL_ASSIGN_OR_RETURN(Row entry, DecodeRecord(key_bytes));
          // Stop once the prefix no longer matches.
          bool match = entry.size() > key.size();
          for (size_t i = 0; match && i < key.size(); ++i) {
            match = entry[i].Compare(key[i]) == 0;
          }
          if (!match) break;
          XFTL_ASSIGN_OR_RETURN(bool keep, emit_rowid(entry.back().AsInt()));
          if (!keep) return Status::OK();
          XFTL_RETURN_IF_ERROR(cursor.Next());
        }
        return Status::OK();
      }
      case AccessPath::Kind::kFullScan:
        break;
    }
    auto cursor = data.NewCursor();
    XFTL_RETURN_IF_ERROR(cursor.First());
    while (cursor.valid()) {
      XFTL_ASSIGN_OR_RETURN(auto payload, cursor.Payload());
      XFTL_ASSIGN_OR_RETURN(Row row, DecodeRecord(payload));
      rows_scanned_++;
      XFTL_ASSIGN_OR_RETURN(bool keep, fn(cursor.rowid(), row));
      if (!keep) return Status::OK();
      XFTL_RETURN_IF_ERROR(cursor.Next());
    }
    return Status::OK();
  }

  // --- index maintenance -------------------------------------------------------

  std::vector<uint8_t> MakeIndexKey(const IndexInfo& idx, const Row& row,
                                    int64_t rowid, const TableInfo& table) {
    Row key;
    for (int col : idx.columns) {
      if (col == table.rowid_alias) {
        key.push_back(Value::Int(rowid));
      } else {
        key.push_back(col < int(row.size()) ? row[col] : Value::Null());
      }
    }
    key.push_back(Value::Int(rowid));
    return EncodeRecord(key);
  }

  Status IndexesInsert(const TableInfo& table, const Row& row, int64_t rowid) {
    for (const IndexInfo* idx : table.indexes) {
      BTree tree(pager_, idx->root, /*is_index=*/true);
      XFTL_RETURN_IF_ERROR(tree.InsertKey(MakeIndexKey(*idx, row, rowid, table)));
    }
    return Status::OK();
  }

  Status IndexesDelete(const TableInfo& table, const Row& row, int64_t rowid) {
    for (const IndexInfo* idx : table.indexes) {
      BTree tree(pager_, idx->root, /*is_index=*/true);
      Status s = tree.DeleteKey(MakeIndexKey(*idx, row, rowid, table));
      if (!s.ok() && !s.IsNotFound()) return s;
    }
    return Status::OK();
  }

  // --- statements ----------------------------------------------------------------

  StatusOr<ResultSet> RunDrop(const DropStmt& stmt) {
    Status s = stmt.is_index ? schema_->DropIndex(stmt.name)
                             : schema_->DropTable(stmt.name);
    if (s.IsNotFound() && stmt.if_exists) return ResultSet{};
    XFTL_RETURN_IF_ERROR(s);
    return ResultSet{};
  }

  StatusOr<ResultSet> RunInsert(const InsertStmt& stmt) {
    const TableInfo* table = schema_->FindTable(stmt.table);
    if (table == nullptr) return Status::NotFound("table " + stmt.table);
    // Column positions targeted by the VALUES lists.
    std::vector<int> positions;
    if (stmt.columns.empty()) {
      for (size_t i = 0; i < table->columns.size(); ++i) {
        positions.push_back(int(i));
      }
    } else {
      for (const std::string& col : stmt.columns) {
        int idx = table->ColumnIndex(col);
        if (idx < 0) return Status::NotFound("column " + col);
        positions.push_back(idx);
      }
    }

    BTree data(pager_, table->root, /*is_index=*/false);
    ResultSet result;
    for (const auto& exprs : stmt.rows) {
      if (exprs.size() != positions.size()) {
        return Status::InvalidArgument("values count mismatch");
      }
      Row row(table->columns.size(), Value::Null());
      for (size_t i = 0; i < exprs.size(); ++i) {
        XFTL_ASSIGN_OR_RETURN(row[positions[i]],
                              Eval(Bind(*exprs[i], {}), Frames()));
      }
      int64_t rowid;
      if (table->rowid_alias >= 0 && !row[table->rowid_alias].is_null()) {
        rowid = row[table->rowid_alias].AsInt();
        auto cursor = data.NewCursor();
        XFTL_RETURN_IF_ERROR(cursor.SeekGE(rowid));
        if (cursor.valid() && cursor.rowid() == rowid) {
          return Status::AlreadyExists("UNIQUE constraint failed: " +
                                       table->name);
        }
      } else {
        XFTL_ASSIGN_OR_RETURN(int64_t max, data.MaxRowid());
        rowid = max + 1;
        if (table->rowid_alias >= 0) {
          row[table->rowid_alias] = Value::Int(rowid);
        }
      }
      XFTL_RETURN_IF_ERROR(data.Insert(rowid, EncodeRecord(row)));
      XFTL_RETURN_IF_ERROR(IndexesInsert(*table, row, rowid));
      result.rows_affected++;
    }
    return result;
  }

  StatusOr<ResultSet> RunSelect(const SelectStmt& stmt) {
    // Source list: FROM table plus joins.
    std::vector<Source> sources;
    std::vector<const Expr*> conjuncts;
    Conjuncts(stmt.where.get(), &conjuncts);
    if (stmt.from.has_value()) {
      const TableInfo* t = schema_->FindTable(stmt.from->name);
      if (t == nullptr) return Status::NotFound("table " + stmt.from->name);
      sources.push_back({Lower(stmt.from->alias), t});
    }
    for (const JoinClause& join : stmt.joins) {
      const TableInfo* t = schema_->FindTable(join.table.name);
      if (t == nullptr) return Status::NotFound("table " + join.table.name);
      sources.push_back({Lower(join.table.alias), t});
      Conjuncts(join.on.get(), &conjuncts);
    }

    // Projection expansion.
    bool aggregate = !stmt.group_by.empty();
    for (const SelectItem& item : stmt.items) {
      if (ContainsAggregate(*item.expr)) aggregate = true;
    }
    if (stmt.having != nullptr && ContainsAggregate(*stmt.having)) {
      aggregate = true;
    }
    std::vector<const Expr*> projections;
    std::vector<std::string> col_names;
    std::vector<ExprPtr> expanded;  // owns synthesized column exprs
    for (const SelectItem& item : stmt.items) {
      if (item.expr->kind == Expr::Kind::kStar && !aggregate) {
        std::string want = Lower(item.expr->table);
        for (const Source& src : sources) {
          if (!want.empty() && src.alias != want) continue;
          for (const ColumnDef& col : src.table->columns) {
            auto e = std::make_unique<Expr>();
            e->kind = Expr::Kind::kColumn;
            e->table = src.alias;
            e->column = col.name;
            projections.push_back(e.get());
            expanded.push_back(std::move(e));
            col_names.push_back(col.name);
          }
        }
      } else {
        projections.push_back(item.expr.get());
        col_names.push_back(!item.alias.empty() ? item.alias
                            : item.expr->kind == Expr::Kind::kColumn
                                ? item.expr->column
                                : "expr");
      }
    }

    ResultSet result;
    result.columns = col_names;

    // Every expression of the statement, bound once.
    std::vector<BoundExpr> items, order_keys, group_keys;
    for (const Expr* p : projections) items.push_back(Bind(*p, sources));
    for (const OrderTerm& t : stmt.order_by) {
      order_keys.push_back(Bind(*t.expr, sources));
    }
    for (const ExprPtr& g : stmt.group_by) {
      group_keys.push_back(Bind(*g, sources));
    }
    std::vector<BoundExpr> filters;  // WHERE, then each join's ON
    if (stmt.where != nullptr) filters.push_back(Bind(*stmt.where, sources));
    for (const JoinClause& join : stmt.joins) {
      if (join.on != nullptr) filters.push_back(Bind(*join.on, sources));
    }
    std::optional<BoundExpr> having;
    if (stmt.having != nullptr) having = Bind(*stmt.having, sources);

    // All aggregate nodes appearing anywhere in the statement.
    std::vector<const BoundExpr*> agg_nodes;
    if (aggregate) {
      for (BoundExpr& p : items) CollectAggregates(&p, &agg_nodes);
      if (having.has_value()) CollectAggregates(&*having, &agg_nodes);
      for (BoundExpr& k : order_keys) CollectAggregates(&k, &agg_nodes);
    }

    std::vector<LevelPlan> plans;
    plans.reserve(sources.size());
    for (size_t level = 0; level < sources.size(); ++level) {
      plans.push_back(PlanLevel(conjuncts, sources, level));
    }

    // Per-group state: accumulators plus a deep copy of a representative
    // row of each source for evaluating non-aggregate expressions.
    struct GroupState {
      std::vector<Row> rep_rows;
      std::vector<int64_t> rep_rowids;
      std::vector<Agg> aggs;
    };
    // Key: the encoded GROUP BY tuple; "" without GROUP BY.
    std::map<std::string, GroupState> groups;

    // Order keys computed while the row context is live.
    std::vector<std::pair<Row, Row>> ordered;  // (order keys, projected row)

    std::vector<Frame> frames;
    frames.reserve(sources.size());
    auto emit = [&](Frames ctx) -> Status {
      for (const BoundExpr& filter : filters) {
        XFTL_ASSIGN_OR_RETURN(Value cond, Eval(filter, ctx));
        if (!cond.Truthy()) return Status::OK();
      }
      if (aggregate) {
        std::string key;
        if (!group_keys.empty()) {
          Row key_tuple;
          for (const BoundExpr& g : group_keys) {
            XFTL_ASSIGN_OR_RETURN(Value v, Eval(g, ctx));
            key_tuple.push_back(std::move(v));
          }
          auto key_bytes = EncodeRecord(key_tuple);
          key.assign(key_bytes.begin(), key_bytes.end());
        }
        GroupState& g = groups[key];
        if (g.aggs.empty()) {
          g.aggs.resize(agg_nodes.size());
          for (const Frame& f : ctx) {
            g.rep_rows.push_back(*f.row);
            g.rep_rowids.push_back(f.rowid);
          }
        }
        for (size_t i = 0; i < agg_nodes.size(); ++i) {
          XFTL_RETURN_IF_ERROR(Accumulate(*agg_nodes[i], ctx, &g.aggs[i]));
        }
        return Status::OK();
      }
      Row out;
      for (const BoundExpr& p : items) {
        XFTL_ASSIGN_OR_RETURN(Value v, Eval(p, ctx));
        out.push_back(std::move(v));
      }
      Row keys;
      for (const BoundExpr& k : order_keys) {
        XFTL_ASSIGN_OR_RETURN(Value v, Eval(k, ctx));
        keys.push_back(std::move(v));
      }
      ordered.emplace_back(std::move(keys), std::move(out));
      return Status::OK();
    };
    std::function<Status(size_t)> descend = [&](size_t level) -> Status {
      if (level == sources.size()) return emit(frames);
      return ScanLevel(plans[level], *sources[level].table, frames,
                       [&](int64_t rowid, const Row& row) -> StatusOr<bool> {
                         frames.push_back({&row, rowid});
                         Status s = descend(level + 1);
                         frames.pop_back();
                         if (!s.ok()) return s;
                         return true;
                       });
    };

    if (sources.empty()) {
      // SELECT without FROM evaluates the items once.
      Row out;
      for (const BoundExpr& p : items) {
        XFTL_ASSIGN_OR_RETURN(Value v, Eval(p, Frames()));
        out.push_back(std::move(v));
      }
      result.rows.push_back(std::move(out));
      return result;
    }
    XFTL_RETURN_IF_ERROR(descend(0));

    if (aggregate) {
      // An ungrouped aggregate over zero rows still yields one row.
      if (groups.empty() && stmt.group_by.empty()) {
        GroupState& g = groups[""];
        g.aggs.resize(agg_nodes.size());
      }
      for (auto& [key, g] : groups) {
        // Rebuild a representative context for non-aggregate expressions.
        std::vector<Frame> rep;
        for (size_t i = 0; i < g.rep_rows.size() && i < sources.size(); ++i) {
          rep.push_back({&g.rep_rows[i], g.rep_rowids[i]});
        }
        std::vector<Value> finals;
        for (size_t i = 0; i < agg_nodes.size(); ++i) {
          XFTL_ASSIGN_OR_RETURN(Value v, Finalize(*agg_nodes[i], g.aggs[i]));
          finals.push_back(std::move(v));
        }
        agg_values_ = &finals;
        auto cleanup = [this](Status s) {
          agg_values_ = nullptr;
          return s;
        };
        if (having.has_value()) {
          auto cond = Eval(*having, rep);
          if (!cond.ok()) return cleanup(cond.status());
          if (!cond.value().Truthy()) {
            agg_values_ = nullptr;
            continue;
          }
        }
        Row out;
        for (const BoundExpr& p : items) {
          auto v = Eval(p, rep);
          if (!v.ok()) return cleanup(v.status());
          out.push_back(std::move(v).value());
        }
        Row keys;
        for (const BoundExpr& k : order_keys) {
          auto v = Eval(k, rep);
          if (!v.ok()) return cleanup(v.status());
          keys.push_back(std::move(v).value());
        }
        agg_values_ = nullptr;
        ordered.emplace_back(std::move(keys), std::move(out));
      }
    }

    if (!stmt.order_by.empty()) {
      std::stable_sort(ordered.begin(), ordered.end(),
                       [&](const auto& a, const auto& b) {
                         for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                           int c = a.first[i].Compare(b.first[i]);
                           if (c != 0) {
                             return stmt.order_by[i].descending ? c > 0 : c < 0;
                           }
                         }
                         return false;
                       });
    }
    for (auto& [keys, row] : ordered) {
      if (stmt.limit >= 0 && int64_t(result.rows.size()) >= stmt.limit) break;
      result.rows.push_back(std::move(row));
    }
    return result;
  }

  Status Accumulate(const BoundExpr& b, Frames ctx, Agg* agg) {
    CHECK(IsAggregateCall(b.func, b.args.size()))
        << "non-aggregate projection in aggregate query";
    if (b.func == Func::kCount &&
        (b.args.empty() || b.args[0].expr->kind == Expr::Kind::kStar)) {
      agg->count++;
      return Status::OK();
    }
    XFTL_ASSIGN_OR_RETURN(Value v, Eval(b.args[0], ctx));
    if (v.is_null()) return Status::OK();
    if (b.expr->distinct) {
      std::string key = v.AsText() + "#" + std::to_string(int(v.type()));
      if (!agg->distinct.insert(key).second) return Status::OK();
    }
    agg->count++;
    if (v.type() != ValueType::kInt) agg->sum_is_int = false;
    agg->isum += v.AsInt();
    agg->sum += v.AsReal();
    if (agg->count == 1) {
      agg->min = v;
      agg->max = v;
    } else {
      if (v.Compare(agg->min) < 0) agg->min = v;
      if (v.Compare(agg->max) > 0) agg->max = v;
    }
    return Status::OK();
  }

  StatusOr<Value> Finalize(const BoundExpr& b, const Agg& agg) {
    switch (b.func) {
      case Func::kCount:
        return Value::Int(int64_t(agg.count));
      case Func::kSum:
        if (agg.count == 0) return Value::Null();
        return agg.sum_is_int ? Value::Int(agg.isum) : Value::Real(agg.sum);
      case Func::kTotal:
        return Value::Real(agg.sum);
      case Func::kAvg:
        if (agg.count == 0) return Value::Null();
        return Value::Real(agg.sum / double(agg.count));
      case Func::kMin:
        return agg.count == 0 ? Value::Null() : agg.min;
      case Func::kMax:
        return agg.count == 0 ? Value::Null() : agg.max;
      default:
        return Status::InvalidArgument("unknown aggregate " + b.expr->func);
    }
  }

  StatusOr<ResultSet> RunUpdate(const UpdateStmt& stmt) {
    const TableInfo* table = schema_->FindTable(stmt.table);
    if (table == nullptr) return Status::NotFound("table " + stmt.table);
    const std::vector<Source> sources = {{Lower(table->name), table}};
    std::vector<std::pair<int, BoundExpr>> sets;
    for (const auto& [col, expr] : stmt.sets) {
      int idx = table->ColumnIndex(col);
      if (idx < 0) return Status::NotFound("column " + col);
      sets.emplace_back(idx, Bind(*expr, sources));
    }
    XFTL_ASSIGN_OR_RETURN(auto matches, Materialize(sources, stmt.where.get()));

    BTree data(pager_, table->root, /*is_index=*/false);
    ResultSet result;
    for (auto& [rowid, row] : matches) {
      const Frame frame{&row, rowid};
      Row updated = row;
      for (const auto& [idx, value] : sets) {
        XFTL_ASSIGN_OR_RETURN(updated[idx], Eval(value, Frames(&frame, 1)));
      }
      int64_t new_rowid = rowid;
      if (table->rowid_alias >= 0) {
        new_rowid = updated[table->rowid_alias].AsInt();
      }
      XFTL_RETURN_IF_ERROR(IndexesDelete(*table, row, rowid));
      if (new_rowid != rowid) {
        XFTL_RETURN_IF_ERROR(data.Delete(rowid));
      }
      XFTL_RETURN_IF_ERROR(data.Insert(new_rowid, EncodeRecord(updated)));
      XFTL_RETURN_IF_ERROR(IndexesInsert(*table, updated, new_rowid));
      result.rows_affected++;
    }
    return result;
  }

  StatusOr<ResultSet> RunDelete(const DeleteStmt& stmt) {
    const TableInfo* table = schema_->FindTable(stmt.table);
    if (table == nullptr) return Status::NotFound("table " + stmt.table);
    XFTL_ASSIGN_OR_RETURN(
        auto matches,
        Materialize({{Lower(table->name), table}}, stmt.where.get()));
    BTree data(pager_, table->root, /*is_index=*/false);
    ResultSet result;
    for (auto& [rowid, row] : matches) {
      XFTL_RETURN_IF_ERROR(IndexesDelete(*table, row, rowid));
      XFTL_RETURN_IF_ERROR(data.Delete(rowid));
      result.rows_affected++;
    }
    return result;
  }

  // Collects the (rowid, row) pairs of the one source of an UPDATE or
  // DELETE that match `where` (modification-safe).
  StatusOr<std::vector<std::pair<int64_t, Row>>> Materialize(
      const std::vector<Source>& sources, const Expr* where) {
    std::vector<const Expr*> conjuncts;
    Conjuncts(where, &conjuncts);
    const LevelPlan plan = PlanLevel(conjuncts, sources, 0);
    std::optional<BoundExpr> filter;
    if (where != nullptr) filter = Bind(*where, sources);
    std::vector<std::pair<int64_t, Row>> out;
    XFTL_RETURN_IF_ERROR(ScanLevel(
        plan, *sources[0].table, Frames(),
        [&](int64_t rowid, const Row& row) -> StatusOr<bool> {
          if (filter.has_value()) {
            const Frame frame{&row, rowid};
            XFTL_ASSIGN_OR_RETURN(Value cond,
                                  Eval(*filter, Frames(&frame, 1)));
            if (!cond.Truthy()) return true;
          }
          out.emplace_back(rowid, row);
          return true;
        }));
    return out;
  }

  Pager* const pager_;
  Schema* const schema_;
  uint64_t rows_scanned_ = 0;
  // When set (during grouped finalization), aggregate nodes evaluate to
  // their finalized per-group values instead of being re-computed.
  const std::vector<Value>* agg_values_ = nullptr;
};

}  // namespace

StatusOr<ResultSet> ExecuteStatement(Pager* pager, Schema* schema,
                                     const Statement& stmt) {
  Executor executor(pager, schema);
  return executor.Run(stmt);
}

}  // namespace xftl::sql
