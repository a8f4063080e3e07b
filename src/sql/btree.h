// B+tree on pager pages, in the spirit of SQLite's btree layer.
//
// Two flavours share the implementation:
//  * table trees: rowid (int64) -> record payload, payload may spill into a
//    chain of overflow pages;
//  * index trees: the encoded key record IS the payload; keys must fit a
//    page's local-payload budget (our upper layers guarantee that).
//
// Interior pages hold separator cells {child, key}: the child subtree
// contains keys <= separator; the right_child pointer covers everything
// greater. The root page number never changes (a root split pushes its
// contents down), so catalog entries stay valid.
//
// Deletion is lazy: empty pages are unlinked and freed, but underfull pages
// are not rebalanced (a correct and common B+tree variant; SQLite's
// balance-on-delete is an optimization we do not reproduce).
//
// Pages are read in place through bounds-checked cell views, and inserts,
// replaces and deletes shift the page's bytes in place; only a split
// decodes a page into owned cells. The sequence of pager calls (Get,
// MarkDirty, Allocate, Free) and how long each page stays pinned are part
// of the simulation: the pager's LRU picks evictions, and evictions are
// simulated I/O. Keep both when changing this code.
#ifndef XFTL_SQL_BTREE_H_
#define XFTL_SQL_BTREE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "sql/pager.h"
#include "sql/record.h"

namespace xftl::sql {

class BTree {
 public:
  // Allocates an empty leaf as the tree root.
  static StatusOr<Pgno> Create(Pager* pager, bool is_index);
  // Frees every page of the tree (including overflow chains).
  static Status Drop(Pager* pager, Pgno root);

  BTree(Pager* pager, Pgno root, bool is_index)
      : pager_(pager), root_(root), is_index_(is_index) {}

  Pgno root() const { return root_; }

  // --- table trees ----------------------------------------------------------
  // Inserts or replaces the record for `rowid`.
  Status Insert(int64_t rowid, const std::vector<uint8_t>& payload);
  Status Delete(int64_t rowid);  // NotFound if absent
  // Largest rowid in the tree (0 when empty).
  StatusOr<int64_t> MaxRowid();

  // --- index trees -----------------------------------------------------------
  Status InsertKey(const std::vector<uint8_t>& key);
  Status DeleteKey(const std::vector<uint8_t>& key);

  // --- cursor ----------------------------------------------------------------
  // Cursors are invalidated by any write to the tree: each frame keeps the
  // byte offset of its cell, which an edit of the page moves.
  class Cursor {
   public:
    explicit Cursor(BTree* tree) : tree_(tree) {}

    Status First();
    // Positions at the first entry with rowid >= target (table trees).
    Status SeekGE(int64_t rowid);
    // Positions at the first entry with key >= target (index trees).
    Status SeekGEKey(const std::vector<uint8_t>& key);
    Status Next();
    bool valid() const { return valid_; }

    int64_t rowid() const;
    // Full payload, overflow chain included.
    StatusOr<std::vector<uint8_t>> Payload();

   private:
    friend class BTree;
    struct Frame {
      Pgno pgno = 0;
      int index = 0;  // cell index; == ncells means "in right_child"
      size_t offset = 0;  // byte offset of cell `index`, or of the end of
                          // the cells when index == ncells
    };
    // Seeks by rowid (probe == nullptr) or by encoded key.
    Status Seek(int64_t rowid, const RecordProbe* probe);
    Status DescendLeftmost(Pgno pgno);
    Status AdvanceFromLeafEnd();

    BTree* tree_;
    std::vector<Frame> stack_;
    bool valid_ = false;
  };

  Cursor NewCursor() { return Cursor(this); }

 private:
  friend class Cursor;

  // An owned copy of a cell: built for inserts, and for every cell of a page
  // on the split path, the only place a page is decoded into a vector.
  struct Cell {
    int64_t rowid = 0;              // table trees
    Pgno child = kNoPgno;           // interior cells
    uint32_t payload_total = 0;     // full payload length
    Pgno overflow = kNoPgno;        // first overflow page
    std::vector<uint8_t> local;     // local payload part
  };

  struct SplitResult {
    Cell separator;  // cell pointing at the left page
    Pgno right;      // page that takes the upper half
  };

  struct PageHeader {
    bool leaf = false;
    uint16_t ncells = 0;
    Pgno right_child = kNoPgno;
  };

  // A cell decoded in place. `local` points into the page it was read from,
  // so a view is only good while that page stays pinned and unchanged.
  struct CellView {
    int64_t rowid = 0;
    Pgno child = kNoPgno;
    uint32_t payload_total = 0;
    Pgno overflow = kNoPgno;
    const uint8_t* local = nullptr;
    uint16_t local_size = 0;
    size_t size = 0;  // encoded length of the whole cell
  };

  // Where a probe key falls in a page.
  struct Slot {
    size_t pos = 0;      // first cell whose key is >= the probe, or ncells
    size_t offset = 0;   // byte offset of that cell, or the end of the cells
    bool exact = false;  // the cell at pos holds the probe's key
    CellView cell;       // the cell at pos, when pos < ncells
  };

  uint32_t MaxLocal() const;
  // Bytes of a cell before its local payload.
  size_t FixedCellSize(bool leaf) const;
  // Key comparison between a probe and a cell: the rowid in table trees,
  // the decoded key in index trees.
  int CompareToCell(int64_t rowid, const RecordProbe* probe,
                    const CellView& cell) const;

  // Zero-copy page access. Every read is checked against the page size and
  // fails with Corruption rather than run past the page.
  StatusOr<PageHeader> ReadHeader(const uint8_t* page) const;
  // Decodes the cell that starts at byte `off`.
  Status ViewCell(const uint8_t* page, bool leaf, size_t off,
                  CellView* cell) const;
  // Byte offset of cell `index`; index == ncells gives the end of the cells.
  StatusOr<size_t> CellOffset(const uint8_t* page, const PageHeader& h,
                              size_t index) const;
  StatusOr<CellView> CellAt(const uint8_t* page, const PageHeader& h,
                            size_t index) const;
  // Pins leaf page `pgno` into *ref and views its cell `index`, which
  // starts at byte `offset`.
  StatusOr<CellView> PinCell(Pgno pgno, size_t index, size_t offset,
                             PageRef* ref) const;
  // The first cell whose key is >= the probe. Table interior pages (fixed
  // size cells) and index pages are binary searched; an index page is read
  // whole, so a corrupt cell anywhere on it fails the search. Table leaves,
  // and index pages over 16 KiB, are walked cell by cell.
  StatusOr<Slot> Search(const uint8_t* page, const PageHeader& h,
                        int64_t rowid, const RecordProbe* probe) const;
  // The index page search: kept out of Search so that the other page kinds
  // run without its stack array of cell offsets.
  StatusOr<Slot> SearchIndexPage(const uint8_t* page, const PageHeader& h,
                                 int64_t rowid,
                                 const RecordProbe* probe) const;
  // The walk: views cells in order up to the slot.
  StatusOr<Slot> WalkSearch(const uint8_t* page, const PageHeader& h,
                            int64_t rowid, const RecordProbe* probe) const;
  // Cross-check of a binary-searched slot against the walk (DCHECK only).
  bool WalkFindsSlot(const uint8_t* page, const PageHeader& h, int64_t rowid,
                     const RecordProbe* probe, const Slot& slot) const;

  // In-place edits. Splice resizes the `old_size` bytes at `off` to
  // `new_size`, moving the cells behind them (the cells end at `end`) and
  // zeroing the bytes freed at the end, so that the page stays byte-identical
  // to a WriteCells repack of its cells.
  void Splice(uint8_t* page, size_t off, size_t old_size, size_t new_size,
              size_t end) const;
  size_t CellSize(bool leaf, const Cell& cell) const;
  void EncodeCell(uint8_t* dst, bool leaf, const Cell& cell) const;

  // Split path: every cell of a page as owned copies, and the repack of a
  // cell list into a page. WriteCells fails with ResourceExhausted, leaving
  // the page untouched, when the cells do not fit.
  StatusOr<std::vector<Cell>> ReadCells(const uint8_t* page,
                                        const PageHeader& h) const;
  Status WriteCells(uint8_t* page, bool leaf, Pgno right_child,
                    const std::vector<Cell>& cells) const;

  // Builds a leaf cell, spilling payload to overflow pages as needed.
  StatusOr<Cell> MakeLeafCell(int64_t rowid,
                              const std::vector<uint8_t>& payload);
  Status FreeOverflowChain(Pgno first);
  // Appends the overflow chain starting at `first` to *out, which holds a
  // cell's local payload, until it holds all `total` bytes.
  Status AppendOverflow(Pgno first, uint32_t total,
                        std::vector<uint8_t>* out);

  // Inserts from the root; a root split pushes the root's lower half down.
  // `probe` is the decoded key of an index cell, nullptr in table trees.
  Status InsertCell(Cell cell, const RecordProbe* probe);
  // Recursive insert; returns a split description when `pgno` split.
  StatusOr<std::optional<SplitResult>> InsertInto(Pgno pgno, Cell cell,
                                                  const RecordProbe* probe);
  // Recursive delete; sets *emptied when `pgno` became empty and was freed.
  Status DeleteFrom(Pgno pgno, int64_t rowid, const RecordProbe* probe,
                    bool* emptied);

  Pager* const pager_;
  const Pgno root_;
  const bool is_index_;
};

}  // namespace xftl::sql

#endif  // XFTL_SQL_BTREE_H_
