#include "sql/btree.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace xftl::sql {

namespace {
// Page types.
constexpr uint8_t kTableLeaf = 1;
constexpr uint8_t kTableInterior = 2;
constexpr uint8_t kIndexLeaf = 3;
constexpr uint8_t kIndexInterior = 4;
constexpr uint8_t kOverflow = 5;

constexpr size_t kPageHeader = 9;  // type(1) ncells(2) right_child(4) pad(2)
constexpr size_t kOverflowHeader = 12;  // type(1) pad(3) next(4) len(4)

// Index pages up to this size (twice the default flash page) are binary
// searched over an array of their cell offsets on the stack; an index cell
// takes at least 10 bytes, which bounds their count.
constexpr size_t kMaxSearchPage = 16384;
constexpr size_t kMaxIndexCells = (kMaxSearchPage - kPageHeader) / 10;

bool IsLeafType(uint8_t t) { return t == kTableLeaf || t == kIndexLeaf; }

uint8_t PageType(bool is_index, bool leaf) {
  return leaf ? (is_index ? kIndexLeaf : kTableLeaf)
              : (is_index ? kIndexInterior : kTableInterior);
}

// Turns `page` into an empty b-tree page.
void InitPage(uint8_t* page, uint32_t page_size, uint8_t type,
              Pgno right_child) {
  std::memset(page, 0, page_size);
  page[0] = type;
  EncodeFixed16(page + 1, 0);
  EncodeFixed32(page + 3, right_child);
}

}  // namespace

uint32_t BTree::MaxLocal() const { return pager_->page_size() / 4; }

size_t BTree::FixedCellSize(bool leaf) const {
  return (leaf ? 0 : 4) + (is_index_ ? 0 : 8) + (is_index_ || leaf ? 10 : 0);
}

// ---------------------------------------------------------------------------
// zero-copy page access
// ---------------------------------------------------------------------------

StatusOr<BTree::PageHeader> BTree::ReadHeader(const uint8_t* page) const {
  uint8_t type = page[0];
  if ((is_index_ && type != kIndexLeaf && type != kIndexInterior) ||
      (!is_index_ && type != kTableLeaf && type != kTableInterior)) {
    return Status::Corruption("unexpected btree page type " +
                              std::to_string(type));
  }
  PageHeader h;
  h.leaf = IsLeafType(type);
  h.ncells = DecodeFixed16(page + 1);
  h.right_child = DecodeFixed32(page + 3);
  // Every cell takes at least its fixed part; this bounds the cell count
  // (and places every fixed-size table interior cell inside the page).
  if (kPageHeader + size_t(h.ncells) * FixedCellSize(h.leaf) >
      pager_->page_size()) {
    return Status::Corruption("btree cell count " + std::to_string(h.ncells) +
                              " overruns the page");
  }
  return h;
}

Status BTree::ViewCell(const uint8_t* page, bool leaf, size_t off,
                       CellView* cell) const {
  const size_t page_size = pager_->page_size();
  *cell = CellView();
  cell->size = FixedCellSize(leaf);
  if (off + cell->size > page_size) {
    return Status::Corruption("btree cell runs past the page");
  }
  const uint8_t* p = page + off;
  if (!leaf) {
    cell->child = DecodeFixed32(p);
    p += 4;
  }
  if (!is_index_) {
    cell->rowid = int64_t(DecodeFixed64(p));
    p += 8;
  }
  if (is_index_ || leaf) {
    cell->payload_total = DecodeFixed32(p);
    cell->local_size = DecodeFixed16(p + 4);
    cell->overflow = DecodeFixed32(p + 6);
    cell->local = p + 10;
    cell->size += cell->local_size;
    if (off + cell->size > page_size) {
      return Status::Corruption("btree cell payload runs past the page");
    }
  }
  return Status::OK();
}

StatusOr<size_t> BTree::CellOffset(const uint8_t* page, const PageHeader& h,
                                   size_t index) const {
  DCHECK(index <= h.ncells);
  if (!h.leaf && !is_index_) {
    // Fixed-size cells, all inside the page (ReadHeader checked the count).
    return kPageHeader + index * FixedCellSize(false);
  }
  size_t off = kPageHeader;
  CellView cell;
  for (size_t i = 0; i < index; ++i) {
    XFTL_RETURN_IF_ERROR(ViewCell(page, h.leaf, off, &cell));
    off += cell.size;
  }
  return off;
}

StatusOr<BTree::CellView> BTree::CellAt(const uint8_t* page,
                                        const PageHeader& h,
                                        size_t index) const {
  DCHECK(index < h.ncells);
  XFTL_ASSIGN_OR_RETURN(size_t off, CellOffset(page, h, index));
  CellView cell;
  XFTL_RETURN_IF_ERROR(ViewCell(page, h.leaf, off, &cell));
  return cell;
}

StatusOr<BTree::CellView> BTree::PinCell(Pgno pgno, size_t index,
                                         size_t offset, PageRef* ref) const {
  XFTL_ASSIGN_OR_RETURN(*ref, pager_->Get(pgno));
  XFTL_ASSIGN_OR_RETURN(PageHeader h, ReadHeader(ref->data()));
  if (index >= h.ncells) return Status::Corruption("btree cursor past page");
  // A write to the page since the cursor moved would leave `offset` stale.
  DCHECK_EQ(offset, CellOffset(ref->data(), h, index).value());
  CellView cell;
  XFTL_RETURN_IF_ERROR(ViewCell(ref->data(), h.leaf, offset, &cell));
  return cell;
}

StatusOr<BTree::Slot> BTree::Search(const uint8_t* page, const PageHeader& h,
                                    int64_t rowid,
                                    const RecordProbe* probe) const {
  if (is_index_ && pager_->page_size() <= kMaxSearchPage) {
    return SearchIndexPage(page, h, rowid, probe);
  }
  Slot slot;
  if (!h.leaf && !is_index_) {
    // Fixed-size cells in rowid order: binary search for the same slot.
    const size_t cell_size = FixedCellSize(false);
    size_t lo = 0, hi = h.ncells;
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      XFTL_RETURN_IF_ERROR(
          ViewCell(page, false, kPageHeader + mid * cell_size, &slot.cell));
      if (CompareToCell(rowid, probe, slot.cell) <= 0) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    slot.pos = lo;
    slot.offset = kPageHeader + lo * cell_size;
    if (lo == h.ncells) {
      slot.cell = CellView();
      return slot;
    }
    XFTL_RETURN_IF_ERROR(ViewCell(page, false, slot.offset, &slot.cell));
    slot.exact = CompareToCell(rowid, probe, slot.cell) == 0;
    return slot;
  }
  return WalkSearch(page, h, rowid, probe);
}

StatusOr<BTree::Slot> BTree::SearchIndexPage(const uint8_t* page,
                                             const PageHeader& h,
                                             int64_t rowid,
                                             const RecordProbe* probe) const {
  Slot slot;
  // One bounds-checked pass collects the cell offsets, reading only each
  // cell's fixed part; the keys of a page ascend strictly, so a binary
  // search over the offsets finds the slot the walk would.
  const size_t page_size = pager_->page_size();
  const size_t fixed = FixedCellSize(h.leaf);
  DCHECK(h.ncells <= kMaxIndexCells);
  uint16_t offsets[kMaxIndexCells];
  size_t end = kPageHeader;
  for (size_t i = 0; i < h.ncells; ++i) {
    if (end + fixed > page_size) {
      return Status::Corruption("btree cell runs past the page");
    }
    offsets[i] = uint16_t(end);
    // The local payload length sits 6 bytes before the end of the fixed
    // part, ahead of the overflow page number.
    end += fixed + DecodeFixed16(page + end + fixed - 6);
    if (end > page_size) {
      return Status::Corruption("btree cell payload runs past the page");
    }
  }
  auto compare = [&](size_t i) {
    const uint8_t* local = page + offsets[i] + fixed;
    return probe->Compare(local, DecodeFixed16(local - 6));
  };
  size_t lo = 0, hi = h.ncells;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (compare(mid) <= 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  slot.pos = lo;
  slot.offset = lo < h.ncells ? offsets[lo] : end;
  if (lo < h.ncells) {
    XFTL_RETURN_IF_ERROR(ViewCell(page, h.leaf, slot.offset, &slot.cell));
    slot.exact = compare(lo) == 0;
  }
  DCHECK(WalkFindsSlot(page, h, rowid, probe, slot));
  return slot;
}

StatusOr<BTree::Slot> BTree::WalkSearch(const uint8_t* page,
                                        const PageHeader& h, int64_t rowid,
                                        const RecordProbe* probe) const {
  Slot slot;
  slot.offset = kPageHeader;
  for (; slot.pos < h.ncells; ++slot.pos) {
    XFTL_RETURN_IF_ERROR(ViewCell(page, h.leaf, slot.offset, &slot.cell));
    int c = CompareToCell(rowid, probe, slot.cell);
    if (c <= 0) {
      slot.exact = c == 0;
      return slot;
    }
    slot.offset += slot.cell.size;
  }
  slot.cell = CellView();
  return slot;
}

bool BTree::WalkFindsSlot(const uint8_t* page, const PageHeader& h,
                          int64_t rowid, const RecordProbe* probe,
                          const Slot& slot) const {
  auto walk = WalkSearch(page, h, rowid, probe);
  return walk.ok() && walk->pos == slot.pos && walk->offset == slot.offset &&
         walk->exact == slot.exact;
}

int BTree::CompareToCell(int64_t rowid, const RecordProbe* probe,
                         const CellView& cell) const {
  if (is_index_) {
    DCHECK(probe != nullptr);
    return probe->Compare(cell.local, cell.local_size);
  }
  return rowid < cell.rowid ? -1 : (rowid > cell.rowid ? 1 : 0);
}

// ---------------------------------------------------------------------------
// page edits
// ---------------------------------------------------------------------------

void BTree::Splice(uint8_t* page, size_t off, size_t old_size,
                   size_t new_size, size_t end) const {
  DCHECK(end - old_size + new_size <= pager_->page_size());
  std::memmove(page + off + new_size, page + off + old_size,
               end - off - old_size);
  if (new_size < old_size) {
    std::memset(page + end - (old_size - new_size), 0, old_size - new_size);
  }
}

size_t BTree::CellSize(bool leaf, const Cell& cell) const {
  return FixedCellSize(leaf) + (is_index_ || leaf ? cell.local.size() : 0);
}

void BTree::EncodeCell(uint8_t* dst, bool leaf, const Cell& c) const {
  if (!leaf) {
    EncodeFixed32(dst, c.child);
    dst += 4;
  }
  if (!is_index_) {
    EncodeFixed64(dst, uint64_t(c.rowid));
    dst += 8;
  }
  if (is_index_ || leaf) {
    EncodeFixed32(dst, c.payload_total);
    EncodeFixed16(dst + 4, uint16_t(c.local.size()));
    EncodeFixed32(dst + 6, c.overflow);
    std::memcpy(dst + 10, c.local.data(), c.local.size());
  }
}

StatusOr<std::vector<BTree::Cell>> BTree::ReadCells(
    const uint8_t* page, const PageHeader& h) const {
  std::vector<Cell> cells;
  cells.reserve(h.ncells);
  size_t off = kPageHeader;
  CellView view;
  for (uint16_t i = 0; i < h.ncells; ++i) {
    XFTL_RETURN_IF_ERROR(ViewCell(page, h.leaf, off, &view));
    Cell c;
    c.rowid = view.rowid;
    c.child = view.child;
    c.payload_total = view.payload_total;
    c.overflow = view.overflow;
    c.local.assign(view.local, view.local + view.local_size);
    cells.push_back(std::move(c));
    off += view.size;
  }
  return cells;
}

Status BTree::WriteCells(uint8_t* page, bool leaf, Pgno right_child,
                         const std::vector<Cell>& cells) const {
  const uint32_t page_size = pager_->page_size();
  size_t end = kPageHeader;
  for (const Cell& c : cells) end += CellSize(leaf, c);
  if (end > page_size) {
    return Status::ResourceExhausted("btree page overflow");
  }
  InitPage(page, page_size, PageType(is_index_, leaf), right_child);
  EncodeFixed16(page + 1, uint16_t(cells.size()));
  size_t off = kPageHeader;
  for (const Cell& c : cells) {
    EncodeCell(page + off, leaf, c);
    off += CellSize(leaf, c);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// create / drop
// ---------------------------------------------------------------------------

StatusOr<Pgno> BTree::Create(Pager* pager, bool is_index) {
  XFTL_ASSIGN_OR_RETURN(PageRef ref, pager->Allocate());
  InitPage(ref.data(), pager->page_size(), PageType(is_index, /*leaf=*/true),
           kNoPgno);
  return ref.pgno();
}

Status BTree::Drop(Pager* pager, Pgno root) {
  XFTL_ASSIGN_OR_RETURN(PageRef ref, pager->Get(root));
  uint8_t type = ref.data()[0];
  BTree tree(pager, root, type == kIndexLeaf || type == kIndexInterior);
  XFTL_ASSIGN_OR_RETURN(PageHeader h, tree.ReadHeader(ref.data()));

  // Collect child pages and overflow heads before freeing this page.
  std::vector<Pgno> children;
  std::vector<Pgno> overflows;
  size_t off = kPageHeader;
  CellView cell;
  for (uint16_t i = 0; i < h.ncells; ++i) {
    XFTL_RETURN_IF_ERROR(tree.ViewCell(ref.data(), h.leaf, off, &cell));
    if (!h.leaf) children.push_back(cell.child);
    if (cell.overflow != kNoPgno) overflows.push_back(cell.overflow);
    off += cell.size;
  }
  if (!h.leaf && h.right_child != kNoPgno) children.push_back(h.right_child);
  ref = PageRef();  // release the pin before recursing

  for (Pgno child : children) XFTL_RETURN_IF_ERROR(Drop(pager, child));
  for (Pgno ovfl : overflows) {
    XFTL_RETURN_IF_ERROR(tree.FreeOverflowChain(ovfl));
  }
  return pager->Free(root);
}

// ---------------------------------------------------------------------------
// overflow chains
// ---------------------------------------------------------------------------

StatusOr<BTree::Cell> BTree::MakeLeafCell(int64_t rowid,
                                          const std::vector<uint8_t>& payload) {
  Cell cell;
  cell.rowid = rowid;
  cell.payload_total = uint32_t(payload.size());
  uint32_t max_local = MaxLocal();
  if (payload.size() <= max_local) {
    cell.local = payload;
    return cell;
  }
  cell.local.assign(payload.begin(), payload.begin() + max_local);
  const uint32_t chunk_cap = pager_->page_size() - kOverflowHeader;
  size_t pos = max_local;
  Pgno prev = kNoPgno;
  while (pos < payload.size()) {
    size_t n = std::min<size_t>(chunk_cap, payload.size() - pos);
    XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Allocate());
    ref.data()[0] = kOverflow;
    EncodeFixed32(ref.data() + 4, kNoPgno);
    EncodeFixed32(ref.data() + 8, uint32_t(n));
    std::memcpy(ref.data() + kOverflowHeader, payload.data() + pos, n);
    if (prev == kNoPgno) {
      cell.overflow = ref.pgno();
    } else {
      XFTL_ASSIGN_OR_RETURN(PageRef pref, pager_->Get(prev));
      XFTL_RETURN_IF_ERROR(pref.MarkDirty());
      EncodeFixed32(pref.data() + 4, ref.pgno());
    }
    prev = ref.pgno();
    pos += n;
  }
  return cell;
}

Status BTree::FreeOverflowChain(Pgno first) {
  Pgno p = first;
  while (p != kNoPgno) {
    XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Get(p));
    Pgno next = DecodeFixed32(ref.data() + 4);
    ref = PageRef();
    XFTL_RETURN_IF_ERROR(pager_->Free(p));
    p = next;
  }
  return Status::OK();
}

Status BTree::AppendOverflow(Pgno first, uint32_t total,
                             std::vector<uint8_t>* out) {
  Pgno p = first;
  while (p != kNoPgno && out->size() < total) {
    XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Get(p));
    if (ref.data()[0] != kOverflow) {
      return Status::Corruption("bad overflow page");
    }
    uint32_t len = DecodeFixed32(ref.data() + 8);
    if (len > pager_->page_size() - kOverflowHeader) {
      return Status::Corruption("overflow page length runs past the page");
    }
    out->insert(out->end(), ref.data() + kOverflowHeader,
                ref.data() + kOverflowHeader + len);
    p = DecodeFixed32(ref.data() + 4);
  }
  if (out->size() != total) {
    return Status::Corruption("truncated overflow chain");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// insert
// ---------------------------------------------------------------------------

Status BTree::Insert(int64_t rowid, const std::vector<uint8_t>& payload) {
  CHECK(!is_index_);
  XFTL_ASSIGN_OR_RETURN(Cell cell, MakeLeafCell(rowid, payload));
  return InsertCell(std::move(cell), nullptr);
}

Status BTree::InsertKey(const std::vector<uint8_t>& key) {
  CHECK(is_index_);
  if (key.size() > MaxLocal()) {
    return Status::InvalidArgument("index key exceeds local payload budget");
  }
  Cell cell;
  cell.payload_total = uint32_t(key.size());
  cell.local = key;
  const RecordProbe probe(key.data(), key.size());
  return InsertCell(std::move(cell), &probe);
}

Status BTree::InsertCell(Cell cell, const RecordProbe* probe) {
  XFTL_ASSIGN_OR_RETURN(auto split,
                        InsertInto(root_, std::move(cell), probe));
  if (!split.has_value()) return Status::OK();

  // Root split: move the lower half (currently in the root page, just
  // repacked by the split) to a fresh page, then turn the root into an
  // interior node over {left, right}.
  XFTL_ASSIGN_OR_RETURN(PageRef root_ref, pager_->Get(root_));
  XFTL_ASSIGN_OR_RETURN(PageRef left, pager_->Allocate());
  std::memcpy(left.data(), root_ref.data(), pager_->page_size());
  Cell sep = std::move(split->separator);
  sep.child = left.pgno();
  XFTL_RETURN_IF_ERROR(root_ref.MarkDirty());
  return WriteCells(root_ref.data(), /*leaf=*/false, split->right, {sep});
}

StatusOr<std::optional<BTree::SplitResult>> BTree::InsertInto(
    Pgno pgno, Cell cell, const RecordProbe* probe) {
  XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Get(pgno));
  XFTL_ASSIGN_OR_RETURN(PageHeader h, ReadHeader(ref.data()));
  XFTL_ASSIGN_OR_RETURN(Slot slot, Search(ref.data(), h, cell.rowid, probe));
  const uint32_t page_size = pager_->page_size();

  if (h.leaf) {
    XFTL_ASSIGN_OR_RETURN(size_t end, CellOffset(ref.data(), h, h.ncells));
    if (slot.exact && slot.cell.overflow != kNoPgno) {
      XFTL_RETURN_IF_ERROR(FreeOverflowChain(slot.cell.overflow));
    }
    XFTL_RETURN_IF_ERROR(ref.MarkDirty());
    const size_t old_size = slot.exact ? slot.cell.size : 0;
    const size_t new_size = CellSize(true, cell);
    if (end - old_size + new_size <= page_size) {
      Splice(ref.data(), slot.offset, old_size, new_size, end);
      EncodeCell(ref.data() + slot.offset, true, cell);
      if (!slot.exact) EncodeFixed16(ref.data() + 1, uint16_t(h.ncells + 1));
      return std::optional<SplitResult>{};
    }

    // Split the leaf: lower half stays, upper half moves right.
    XFTL_ASSIGN_OR_RETURN(std::vector<Cell> cells, ReadCells(ref.data(), h));
    if (slot.exact) {
      cells[slot.pos] = std::move(cell);
    } else {
      cells.insert(cells.begin() + slot.pos, std::move(cell));
    }
    size_t mid = cells.size() / 2;
    std::vector<Cell> left_cells(cells.begin(), cells.begin() + mid);
    std::vector<Cell> right_cells(cells.begin() + mid, cells.end());
    XFTL_ASSIGN_OR_RETURN(PageRef right, pager_->Allocate());
    XFTL_RETURN_IF_ERROR(WriteCells(right.data(), true, kNoPgno, right_cells));
    XFTL_RETURN_IF_ERROR(WriteCells(ref.data(), true, kNoPgno, left_cells));

    SplitResult split;
    split.right = right.pgno();
    split.separator.child = pgno;
    if (is_index_) {
      split.separator.local = left_cells.back().local;
      split.separator.payload_total = uint32_t(split.separator.local.size());
    } else {
      split.separator.rowid = left_cells.back().rowid;
    }
    return std::optional<SplitResult>{std::move(split)};
  }

  // Interior: route to the child covering the key.
  const size_t pos = slot.pos;
  Pgno child = pos < h.ncells ? slot.cell.child : h.right_child;
  ref = PageRef();  // release pin during recursion
  XFTL_ASSIGN_OR_RETURN(auto sub, InsertInto(child, std::move(cell), probe));
  if (!sub.has_value()) return std::optional<SplitResult>{};

  // The child split into child (lower) and sub->right (upper): insert the
  // new separator and redirect the old route to the upper half.
  XFTL_ASSIGN_OR_RETURN(ref, pager_->Get(pgno));
  XFTL_ASSIGN_OR_RETURN(h, ReadHeader(ref.data()));
  XFTL_ASSIGN_OR_RETURN(size_t off, CellOffset(ref.data(), h, pos));
  XFTL_ASSIGN_OR_RETURN(size_t end, CellOffset(ref.data(), h, h.ncells));
  Cell sep = std::move(sub->separator);
  sep.child = child;
  XFTL_RETURN_IF_ERROR(ref.MarkDirty());
  const size_t sep_size = CellSize(false, sep);
  if (end + sep_size <= page_size) {
    EncodeFixed32(pos < h.ncells ? ref.data() + off : ref.data() + 3,
                  sub->right);
    Splice(ref.data(), off, 0, sep_size, end);
    EncodeCell(ref.data() + off, false, sep);
    EncodeFixed16(ref.data() + 1, uint16_t(h.ncells + 1));
    return std::optional<SplitResult>{};
  }

  // Split the interior node: promote the middle cell.
  XFTL_ASSIGN_OR_RETURN(std::vector<Cell> cells, ReadCells(ref.data(), h));
  Pgno rc = h.right_child;
  if (pos < cells.size()) {
    cells[pos].child = sub->right;
  } else {
    rc = sub->right;
  }
  cells.insert(cells.begin() + pos, std::move(sep));
  size_t mid = cells.size() / 2;
  Cell promoted = cells[mid];
  std::vector<Cell> left_cells(cells.begin(), cells.begin() + mid);
  std::vector<Cell> right_cells(cells.begin() + mid + 1, cells.end());
  XFTL_ASSIGN_OR_RETURN(PageRef right, pager_->Allocate());
  XFTL_RETURN_IF_ERROR(WriteCells(right.data(), false, rc, right_cells));
  XFTL_RETURN_IF_ERROR(WriteCells(ref.data(), false, promoted.child,
                                  left_cells));
  SplitResult split;
  split.right = right.pgno();
  split.separator = std::move(promoted);
  split.separator.child = pgno;
  return std::optional<SplitResult>{std::move(split)};
}

// ---------------------------------------------------------------------------
// delete
// ---------------------------------------------------------------------------

Status BTree::Delete(int64_t rowid) {
  CHECK(!is_index_);
  bool emptied = false;
  return DeleteFrom(root_, rowid, nullptr, &emptied);
}

Status BTree::DeleteKey(const std::vector<uint8_t>& key) {
  CHECK(is_index_);
  bool emptied = false;
  const RecordProbe probe(key.data(), key.size());
  return DeleteFrom(root_, 0, &probe, &emptied);
}

Status BTree::DeleteFrom(Pgno pgno, int64_t rowid, const RecordProbe* probe,
                         bool* emptied) {
  *emptied = false;
  XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Get(pgno));
  XFTL_ASSIGN_OR_RETURN(PageHeader h, ReadHeader(ref.data()));
  XFTL_ASSIGN_OR_RETURN(Slot slot, Search(ref.data(), h, rowid, probe));

  if (h.leaf) {
    if (!slot.exact) return Status::NotFound("btree entry not found");
    XFTL_ASSIGN_OR_RETURN(size_t end, CellOffset(ref.data(), h, h.ncells));
    if (slot.cell.overflow != kNoPgno) {
      XFTL_RETURN_IF_ERROR(FreeOverflowChain(slot.cell.overflow));
    }
    XFTL_RETURN_IF_ERROR(ref.MarkDirty());
    Splice(ref.data(), slot.offset, slot.cell.size, 0, end);
    EncodeFixed16(ref.data() + 1, uint16_t(h.ncells - 1));
    *emptied = h.ncells == 1 && pgno != root_;
    return Status::OK();
  }

  const size_t pos = slot.pos;
  Pgno child = pos < h.ncells ? slot.cell.child : h.right_child;
  ref = PageRef();
  bool child_emptied = false;
  XFTL_RETURN_IF_ERROR(DeleteFrom(child, rowid, probe, &child_emptied));
  if (!child_emptied) return Status::OK();

  // Unlink the emptied child.
  XFTL_RETURN_IF_ERROR(pager_->Free(child));
  XFTL_ASSIGN_OR_RETURN(ref, pager_->Get(pgno));
  XFTL_ASSIGN_OR_RETURN(h, ReadHeader(ref.data()));
  if (h.ncells == 0) {
    // Interior node whose only subtree vanished: it is empty itself.
    XFTL_RETURN_IF_ERROR(ref.MarkDirty());
    if (pgno == root_) {
      // Empty tree again: turn the root back into an empty leaf.
      InitPage(ref.data(), pager_->page_size(), PageType(is_index_, true),
               kNoPgno);
    } else {
      *emptied = true;
    }
    return Status::OK();
  }
  // Drop the separator that routed to the child; when the child was the
  // right child, the last separator's subtree becomes the right child.
  const size_t victim = std::min<size_t>(pos, h.ncells - 1);
  XFTL_ASSIGN_OR_RETURN(size_t off, CellOffset(ref.data(), h, victim));
  XFTL_ASSIGN_OR_RETURN(size_t end, CellOffset(ref.data(), h, h.ncells));
  CellView cell;
  XFTL_RETURN_IF_ERROR(ViewCell(ref.data(), false, off, &cell));
  const Pgno rc = pos < h.ncells ? h.right_child : cell.child;
  XFTL_RETURN_IF_ERROR(ref.MarkDirty());

  if (h.ncells == 1 && pgno == root_) {
    // Collapse: the root routes everything to rc; pull rc's content up so
    // the root page number stays stable.
    XFTL_ASSIGN_OR_RETURN(PageRef child_ref, pager_->Get(rc));
    std::memcpy(ref.data(), child_ref.data(), pager_->page_size());
    child_ref = PageRef();
    return pager_->Free(rc);
  }
  EncodeFixed32(ref.data() + 3, rc);
  Splice(ref.data(), off, cell.size, 0, end);
  EncodeFixed16(ref.data() + 1, uint16_t(h.ncells - 1));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// queries
// ---------------------------------------------------------------------------

StatusOr<int64_t> BTree::MaxRowid() {
  CHECK(!is_index_);
  Pgno pgno = root_;
  while (true) {
    XFTL_ASSIGN_OR_RETURN(PageRef ref, pager_->Get(pgno));
    XFTL_ASSIGN_OR_RETURN(PageHeader h, ReadHeader(ref.data()));
    if (h.leaf && h.ncells == 0) return 0;
    if (!h.leaf && h.right_child != kNoPgno) {
      pgno = h.right_child;
      continue;
    }
    if (h.ncells == 0) return Status::Corruption("empty interior page");
    XFTL_ASSIGN_OR_RETURN(CellView last, CellAt(ref.data(), h, h.ncells - 1));
    if (h.leaf) return last.rowid;
    pgno = last.child;
  }
}

// ---------------------------------------------------------------------------
// cursor
// ---------------------------------------------------------------------------

Status BTree::Cursor::DescendLeftmost(Pgno pgno) {
  while (true) {
    XFTL_ASSIGN_OR_RETURN(PageRef ref, tree_->pager_->Get(pgno));
    XFTL_ASSIGN_OR_RETURN(PageHeader h, tree_->ReadHeader(ref.data()));
    stack_.push_back({pgno, 0, kPageHeader});
    if (h.ncells == 0) {
      if (h.leaf) return AdvanceFromLeafEnd();
      pgno = h.right_child;
      continue;
    }
    CellView first;
    XFTL_RETURN_IF_ERROR(
        tree_->ViewCell(ref.data(), h.leaf, kPageHeader, &first));
    if (h.leaf) {
      valid_ = true;
      return Status::OK();
    }
    pgno = first.child;
  }
}

Status BTree::Cursor::First() {
  stack_.clear();
  valid_ = false;
  return DescendLeftmost(tree_->root_);
}

Status BTree::Cursor::SeekGE(int64_t rowid) {
  CHECK(!tree_->is_index_);
  return Seek(rowid, nullptr);
}

Status BTree::Cursor::SeekGEKey(const std::vector<uint8_t>& key) {
  CHECK(tree_->is_index_);
  const RecordProbe probe(key.data(), key.size());
  return Seek(0, &probe);
}

Status BTree::Cursor::Seek(int64_t rowid, const RecordProbe* probe) {
  stack_.clear();
  valid_ = false;
  Pgno pgno = tree_->root_;
  while (true) {
    XFTL_ASSIGN_OR_RETURN(PageRef ref, tree_->pager_->Get(pgno));
    XFTL_ASSIGN_OR_RETURN(PageHeader h, tree_->ReadHeader(ref.data()));
    XFTL_ASSIGN_OR_RETURN(Slot slot,
                          tree_->Search(ref.data(), h, rowid, probe));
    stack_.push_back({pgno, int(slot.pos), slot.offset});
    if (h.leaf) {
      if (slot.pos < h.ncells) {
        valid_ = true;
        return Status::OK();
      }
      return AdvanceFromLeafEnd();
    }
    pgno = slot.pos < h.ncells ? slot.cell.child : h.right_child;
  }
}

Status BTree::Cursor::AdvanceFromLeafEnd() {
  // The leaf frame is exhausted; climb until an interior frame has a next
  // child, then descend its leftmost path.
  stack_.pop_back();
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    XFTL_ASSIGN_OR_RETURN(PageRef ref, tree_->pager_->Get(f.pgno));
    XFTL_ASSIGN_OR_RETURN(PageHeader h, tree_->ReadHeader(ref.data()));
    CellView cell;
    if (f.index < int(h.ncells)) {
      XFTL_RETURN_IF_ERROR(tree_->ViewCell(ref.data(), false, f.offset, &cell));
      f.offset += cell.size;
    }
    f.index++;
    if (f.index < int(h.ncells)) {
      XFTL_RETURN_IF_ERROR(tree_->ViewCell(ref.data(), false, f.offset, &cell));
      return DescendLeftmost(cell.child);
    }
    if (f.index == int(h.ncells)) return DescendLeftmost(h.right_child);
    stack_.pop_back();
  }
  valid_ = false;
  return Status::OK();
}

Status BTree::Cursor::Next() {
  CHECK(valid_);
  Frame& f = stack_.back();
  XFTL_ASSIGN_OR_RETURN(PageRef ref, tree_->pager_->Get(f.pgno));
  XFTL_ASSIGN_OR_RETURN(PageHeader h, tree_->ReadHeader(ref.data()));
  CellView cell;
  if (f.index < int(h.ncells)) {
    XFTL_RETURN_IF_ERROR(tree_->ViewCell(ref.data(), h.leaf, f.offset, &cell));
    f.offset += cell.size;
  }
  f.index++;
  if (f.index < int(h.ncells)) {
    // Check the cell now, so that rowid() can assume it decodes.
    return tree_->ViewCell(ref.data(), h.leaf, f.offset, &cell);
  }
  valid_ = false;
  return AdvanceFromLeafEnd();
}

int64_t BTree::Cursor::rowid() const {
  CHECK(valid_);
  PageRef ref;
  const Frame& f = stack_.back();
  auto cell = tree_->PinCell(f.pgno, f.index, f.offset, &ref);
  CHECK(cell.ok()) << cell.status().ToString();
  return cell->rowid;
}

StatusOr<std::vector<uint8_t>> BTree::Cursor::Payload() {
  CHECK(valid_);
  PageRef ref;
  const Frame& f = stack_.back();
  XFTL_ASSIGN_OR_RETURN(CellView cell,
                        tree_->PinCell(f.pgno, f.index, f.offset, &ref));
  std::vector<uint8_t> out;
  out.reserve(cell.payload_total);
  out.assign(cell.local, cell.local + cell.local_size);
  ref = PageRef();
  XFTL_RETURN_IF_ERROR(
      tree_->AppendOverflow(cell.overflow, cell.payload_total, &out));
  return out;
}

}  // namespace xftl::sql
