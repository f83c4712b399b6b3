#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "relstore/database.h"
#include "relstore/datum.h"
#include "relstore/heap_file.h"
#include "relstore/page.h"
#include "relstore/schema.h"
#include "relstore/table.h"
#include "util/rng.h"

namespace cpdb::relstore {
namespace {

// ----- Datum ---------------------------------------------------------------

TEST(DatumTest, EncodeDecodeRoundTrip) {
  for (const Datum& d : {Datum(), Datum(int64_t{-5}), Datum(3.25),
                         Datum("hello world"), Datum("")}) {
    std::string buf;
    d.EncodeTo(&buf);
    size_t pos = 0;
    Datum back;
    ASSERT_TRUE(Datum::DecodeFrom(buf, &pos, &back));
    EXPECT_EQ(back, d);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(DatumTest, RowEncodeDecode) {
  Row row = {Datum(int64_t{121}), Datum("C"), Datum("T/c2"), Datum("S1/a2")};
  std::string buf;
  EncodeRow(row, &buf);
  Row back;
  size_t pos = 0;
  ASSERT_TRUE(DecodeRow(buf, &pos, &back));
  EXPECT_EQ(back, row);
  EXPECT_EQ(EncodedRowSize(row), buf.size());
  for (const Row& other : {Row{}, Row{Datum(), Datum(2.5), Datum("")}}) {
    buf.clear();
    EncodeRow(other, &buf);
    EXPECT_EQ(EncodedRowSize(other), buf.size());
  }
}

TEST(DatumTest, DecodeRejectsTruncation) {
  Row row = {Datum("abcdef")};
  std::string buf;
  EncodeRow(row, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Row back;
    size_t pos = 0;
    EXPECT_FALSE(DecodeRow(buf.substr(0, cut), &pos, &back)) << cut;
  }
}

TEST(DatumTest, DecodeRejectsColumnCountPastInput) {
  // A 4-byte row image claiming 0xFFFFFFFF columns: every datum takes at
  // least one byte, so the count is refused before anything is reserved.
  const std::string image(4, '\xff');
  Row back;
  size_t pos = 0;
  EXPECT_FALSE(DecodeRow(image, &pos, &back));
}

TEST(DatumTest, CompareAgreesWithOperatorLess) {
  // One value of each kind an ordering bug would trip on: NULL, integer
  // extremes, signed zeros and infinities, a prefix pair, an embedded NUL,
  // a byte >= 0x80, and two long strings that differ in the last byte.
  const double inf = std::numeric_limits<double>::infinity();
  const std::string long_a(40, 'q');
  std::string long_b = long_a;
  long_b.back() = 'r';
  const std::vector<Datum> values = {
      Datum(),
      Datum(std::numeric_limits<int64_t>::min()),
      Datum(int64_t{-1}),
      Datum(int64_t{0}),
      Datum(int64_t{1}),
      Datum(std::numeric_limits<int64_t>::max()),
      Datum(-inf),
      Datum(-1.5),
      Datum(-0.0),
      Datum(0.0),
      Datum(1e300),
      Datum(inf),
      Datum(""),
      Datum("a"),
      Datum("ab"),
      Datum("b"),
      Datum(std::string("a\0b", 3)),
      Datum("\xff"),
      Datum(long_a),
      Datum(long_b),
  };
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (const Datum& a : values) {
    for (const Datum& b : values) {
      const int want = a < b ? -1 : b < a ? 1 : 0;
      EXPECT_EQ(sign(a.Compare(b)), want) << a << " vs " << b;
    }
  }

  // Rows of 0-3 columns from the same values; half the pairs share a
  // prefix, so ties on the leading columns and proper prefixes come up.
  Rng rng(2006);
  auto draw = [&](size_t n) {
    Row row;
    for (size_t i = 0; i < n; ++i) {
      row.push_back(values[rng.NextIndex(values.size())]);
    }
    return row;
  };
  for (int i = 0; i < 20000; ++i) {
    const Row a = draw(rng.NextIndex(4));
    Row b = draw(rng.NextIndex(4));
    if (rng.NextBool(0.5)) {
      const size_t shared = std::min(a.size(), b.size());
      std::copy(a.begin(), a.begin() + static_cast<ptrdiff_t>(shared),
                b.begin());
    }
    const bool less =
        std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
    const bool greater =
        std::lexicographical_compare(b.begin(), b.end(), a.begin(), a.end());
    const int want = less ? -1 : greater ? 1 : 0;
    ASSERT_EQ(sign(CompareRows(a, b)), want)
        << RowToString(a) << " vs " << RowToString(b);
    ASSERT_EQ(RowLess(a, b), less)
        << RowToString(a) << " vs " << RowToString(b);
  }
}

// ----- Schema ----------------------------------------------------------------

TEST(SchemaTest, Validate) {
  Schema s({{"Tid", ColumnType::kInt64, false},
            {"Loc", ColumnType::kString, false},
            {"Src", ColumnType::kString, true}});
  EXPECT_TRUE(s.Validate({Datum(int64_t{1}), Datum("a"), Datum()}).ok());
  EXPECT_FALSE(s.Validate({Datum(int64_t{1}), Datum("a")}).ok());  // arity
  EXPECT_FALSE(
      s.Validate({Datum(), Datum("a"), Datum()}).ok());  // null pk
  EXPECT_FALSE(
      s.Validate({Datum("x"), Datum("a"), Datum()}).ok());  // type
}

// ----- Page / heap file -------------------------------------------------------

TEST(PageTest, InsertReadDelete) {
  Page page;
  auto s1 = page.Insert("hello");
  auto s2 = page.Insert("world!");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(page.Read(s1.value()).value(), "hello");
  EXPECT_EQ(page.Read(s2.value()).value(), "world!");
  ASSERT_TRUE(page.Delete(s1.value()).ok());
  EXPECT_FALSE(page.Read(s1.value()).ok());
  EXPECT_TRUE(page.Delete(s1.value()).IsNotFound());  // double delete
  EXPECT_EQ(page.LiveRecords(), 1u);
}

TEST(PageTest, FillsAndReportsFull) {
  Page page;
  std::string rec(100, 'x');
  size_t n = 0;
  while (page.Fits(rec.size())) {
    ASSERT_TRUE(page.Insert(rec).ok());
    ++n;
  }
  EXPECT_GT(n, 30u);  // ~4096/104
  EXPECT_FALSE(page.Insert(rec).ok());
}

TEST(PageTest, CompactionReclaimsDeletedSpace) {
  Page page;
  std::string rec(100, 'x');
  std::vector<uint16_t> slots;
  while (page.Fits(rec.size())) {
    slots.push_back(page.Insert(rec).value());
  }
  // Free half the page, then insert again: compaction must make room.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(page.Delete(slots[i]).ok());
  }
  EXPECT_TRUE(page.Fits(rec.size()));
  auto slot = page.Insert(rec);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(page.Read(slot.value()).value(), rec);
  // Surviving records are intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(page.Read(slots[i]).value(), rec);
  }
}

TEST(PageTest, RejectsOversizedRecord) {
  Page page;
  EXPECT_FALSE(page.Insert(std::string(Page::kPageSize, 'x')).ok());
}

TEST(HeapFileTest, InsertReadDeleteScan) {
  HeapFile heap;
  std::vector<Rid> rids;
  for (int i = 0; i < 1000; ++i) {
    auto rid = heap.Insert("record-" + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  EXPECT_EQ(heap.RecordCount(), 1000u);
  EXPECT_GT(heap.PageCount(), 1u);
  EXPECT_EQ(heap.Read(rids[123]).value(), "record-123");

  ASSERT_TRUE(heap.Delete(rids[500]).ok());
  EXPECT_FALSE(heap.Read(rids[500]).ok());
  EXPECT_EQ(heap.RecordCount(), 999u);

  size_t seen = 0;
  heap.Scan([&](const Rid&, const std::string&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 999u);
}

TEST(HeapFileTest, ReusesFreedSpace) {
  HeapFile heap;
  std::vector<Rid> rids;
  for (int i = 0; i < 500; ++i) {
    rids.push_back(heap.Insert(std::string(64, 'a')).value());
  }
  size_t pages_before = heap.PageCount();
  for (const Rid& rid : rids) ASSERT_TRUE(heap.Delete(rid).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(heap.Insert(std::string(64, 'b')).ok());
  }
  EXPECT_EQ(heap.PageCount(), pages_before);  // no growth
}

// ----- Table -----------------------------------------------------------------

Schema ProvSchema() {
  return Schema({{"Tid", ColumnType::kInt64, false},
                 {"Op", ColumnType::kString, false},
                 {"Loc", ColumnType::kString, false},
                 {"Src", ColumnType::kString, true}});
}

TEST(TableTest, InsertAndScan) {
  Table t("Prov", ProvSchema());
  ASSERT_TRUE(
      t.Insert({Datum(int64_t{1}), Datum("I"), Datum("T/a"), Datum()}).ok());
  ASSERT_TRUE(
      t.Insert({Datum(int64_t{2}), Datum("C"), Datum("T/b"), Datum("S/x")})
          .ok());
  EXPECT_EQ(t.RowCount(), 2u);
  size_t n = 0;
  t.Scan([&](const Rid&, const Row& row) {
    EXPECT_EQ(row.size(), 4u);
    ++n;
    return true;
  });
  EXPECT_EQ(n, 2u);
}

/// Column `col` of every row a cursor over `index` yields, in index order.
std::vector<Datum> ScanColumn(const Table& t, const std::string& index,
                              size_t col) {
  ScanSpec spec;
  spec.index = index;
  auto cur = t.OpenScan(std::move(spec));
  EXPECT_TRUE(cur.ok()) << cur.status();
  std::vector<Datum> out;
  if (!cur.ok()) return out;
  Row row;
  while (cur->Next(&row)) out.push_back(row[col]);
  EXPECT_TRUE(cur->status().ok());
  return out;
}

TEST(TableTest, BulkLoadBuildsIndexesAndEnforcesUnique) {
  // A bulk load is one InsertBatch into the empty table.
  Table t("Prov", ProvSchema());
  ASSERT_TRUE(t.CreateIndex("pk", {0, 2}, true).ok());
  ASSERT_TRUE(t.CreateIndex("idx_loc", {2}).ok());
  ASSERT_TRUE(t.CreateIndex("idx_tid", {0}).ok());
  std::vector<Row> rows;
  for (int i = 199; i >= 0; --i) {  // unsorted on purpose
    rows.push_back({Datum(int64_t{i}), Datum("I"),
                    Datum("T/n" + std::to_string(i)), Datum()});
  }
  ASSERT_TRUE(t.InsertBatch(rows).ok());
  EXPECT_EQ(t.RowCount(), 200u);
  // Every index answers lookups after the bulk build.
  size_t hits = 0;
  auto count = [&](const Rid&, const Row&) {
    ++hits;
    return true;
  };
  ASSERT_TRUE(t.LookupEq("pk", {Datum(int64_t{42}), Datum("T/n42")}, count)
                  .ok());
  EXPECT_EQ(hits, 1u);
  hits = 0;
  ASSERT_TRUE(t.LookupEq("idx_loc", {Datum("T/n7")}, count).ok());
  EXPECT_EQ(hits, 1u);
  hits = 0;
  ASSERT_TRUE(t.LookupEq("idx_tid", {Datum(int64_t{3})}, count).ok());
  EXPECT_EQ(hits, 1u);
  // The index scans in key order and stays mutable afterwards.
  std::vector<Datum> tids = ScanColumn(t, "pk", 0);
  ASSERT_EQ(tids.size(), 200u);
  for (size_t i = 0; i < tids.size(); ++i) {
    EXPECT_EQ(tids[i], Datum(static_cast<int64_t>(i)));
  }
  ASSERT_TRUE(
      t.Insert({Datum(int64_t{500}), Datum("I"), Datum("T/x"), Datum()})
          .ok());
  EXPECT_EQ(t.RowCount(), 201u);
}

TEST(TableTest, BulkLoadRejectsBadBatchesAtomically) {
  Table t("Prov", ProvSchema());
  ASSERT_TRUE(t.CreateIndex("pk", {0, 2}, true).ok());
  // In-batch unique violation: same {Tid, Loc} twice.
  Status dup = t.InsertBatch(
      {{Datum(int64_t{1}), Datum("I"), Datum("T/a"), Datum()},
       {Datum(int64_t{1}), Datum("D"), Datum("T/a"), Datum()}});
  EXPECT_TRUE(dup.IsAlreadyExists()) << dup;
  EXPECT_EQ(t.RowCount(), 0u);  // nothing stored
  // Schema violation anywhere in the batch rejects the whole batch.
  Status bad = t.InsertBatch({{Datum(int64_t{1}), Datum("I"), Datum("T/a"),
                               Datum()},
                              {Datum("not-an-int"), Datum("I"), Datum("T/b"),
                               Datum()}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(t.RowCount(), 0u);
  // A good batch then loads; a later batch clashing with a stored key is
  // rejected whole, its fresh row included.
  ASSERT_TRUE(t.InsertBatch({{Datum(int64_t{1}), Datum("I"), Datum("T/a"),
                              Datum()}})
                  .ok());
  Status clash = t.InsertBatch(
      {{Datum(int64_t{2}), Datum("I"), Datum("T/b"), Datum()},
       {Datum(int64_t{1}), Datum("D"), Datum("T/a"), Datum()}});
  EXPECT_TRUE(clash.IsAlreadyExists()) << clash;
  EXPECT_EQ(t.RowCount(), 1u);
}

TEST(TableTest, BulkLoadRollsBackOnHeapFailure) {
  // A record larger than a page, mid-batch: the validation phase refuses
  // it (Table::CheckRow), so nothing is stored and the table stays empty
  // and reloadable.
  Table t("Prov", ProvSchema());
  ASSERT_TRUE(t.CreateIndex("pk", {0, 2}, true).ok());
  std::string huge(Page::kPageSize + 1, 'x');
  Status bad = t.InsertBatch({{Datum(int64_t{1}), Datum("I"), Datum("T/a"),
                               Datum()},
                              {Datum(int64_t{2}), Datum("I"), Datum(huge),
                               Datum()}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(t.RowCount(), 0u);
  size_t scanned = 0;
  t.Scan([&](const Rid&, const Row&) {
    ++scanned;
    return true;
  });
  EXPECT_EQ(scanned, 0u);
  // No index kept an entry for the un-stored rows, so the same key loads.
  ASSERT_TRUE(t.InsertBatch({{Datum(int64_t{1}), Datum("I"), Datum("T/a"),
                              Datum()}})
                  .ok());
  EXPECT_EQ(t.RowCount(), 1u);
}

TEST(TableTest, CheckRowBoundsTheEncodingByOnePage) {
  // One STRING column encodes to 4 (count) + 1 (tag) + 4 (length) bytes
  // plus the string: the longest row a page holds, and one byte more.
  Table t("Blob", Schema({{"b", ColumnType::kString, false}}));
  ASSERT_TRUE(t.CreateIndex("pk", {0}, true).ok());
  const Row fits = {Datum(std::string(Page::kMaxRecordSize - 9, 'x'))};
  const Row over = {Datum(std::string(Page::kMaxRecordSize - 8, 'x'))};
  ASSERT_EQ(EncodedRowSize(fits), Page::kMaxRecordSize);
  EXPECT_TRUE(t.CheckRow(fits).ok());
  for (const Status& refused : {t.CheckRow(over), t.Insert(over).status(),
                                t.InsertBatch({over})}) {
    EXPECT_TRUE(refused.IsInvalidArgument()) << refused;
    EXPECT_EQ(refused.message(), "record larger than page");
  }
  EXPECT_EQ(t.RowCount(), 0u);
  // The schema check runs first.
  EXPECT_EQ(t.CheckRow({Datum()}).message(),
            "NULL in non-nullable column 'b'");
  ASSERT_TRUE(t.Insert(fits).ok());
  EXPECT_EQ(t.RowCount(), 1u);
}

TEST(TableTest, UniqueIndexRejectsDuplicates) {
  Table t("Prov", ProvSchema());
  ASSERT_TRUE(t.CreateIndex("pk", {0, 2}, true).ok());
  ASSERT_TRUE(
      t.Insert({Datum(int64_t{1}), Datum("I"), Datum("T/a"), Datum()}).ok());
  // Same {Tid, Loc}: rejected (the paper's provenance-table key).
  auto dup =
      t.Insert({Datum(int64_t{1}), Datum("D"), Datum("T/a"), Datum()});
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  // Different Tid: fine.
  EXPECT_TRUE(
      t.Insert({Datum(int64_t{2}), Datum("D"), Datum("T/a"), Datum()}).ok());
}

TEST(TableTest, LookupEqThroughBothIndexKinds) {
  // A duplicate-key index and a distinct-key one.
  Table t("Prov", ProvSchema());
  ASSERT_TRUE(t.CreateIndex("idx_tid", {0}).ok());
  ASSERT_TRUE(t.CreateIndex("idx_loc", {2}).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.Insert({Datum(int64_t{i % 5}), Datum("I"),
                          Datum("T/n" + std::to_string(i)), Datum()})
                    .ok());
  }
  size_t hits = 0;
  ASSERT_TRUE(t.LookupEq("idx_tid", {Datum(int64_t{3})},
                         [&](const Rid&, const Row&) {
                           ++hits;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(hits, 10u);
  hits = 0;
  ASSERT_TRUE(t.LookupEq("idx_loc", {Datum("T/n7")},
                         [&](const Rid&, const Row&) {
                           ++hits;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(hits, 1u);
  // Bad index name and key arity are reported, not silently scanned.
  auto never = [](const Rid&, const Row&) { return true; };
  EXPECT_TRUE(t.LookupEq("no_such_index", {Datum("x")}, never).IsNotFound());
  EXPECT_TRUE(t.LookupEq("idx_loc", {Datum("x"), Datum("y")}, never)
                  .IsInvalidArgument());
}

TEST(TableTest, PrefixScanFindsDescendants) {
  Table t("Prov", ProvSchema());
  ASSERT_TRUE(t.CreateIndex("idx_loc", {2}).ok());
  for (const char* loc :
       {"T/c1", "T/c1/x", "T/c1/y", "T/c10", "T/c2", "S/c1/x"}) {
    ASSERT_TRUE(
        t.Insert({Datum(int64_t{1}), Datum("I"), Datum(loc), Datum()}).ok());
  }
  ScanSpec spec;
  spec.index = "idx_loc";
  spec.prefix = "T/c1/";
  auto cur = t.OpenScan(std::move(spec));
  ASSERT_TRUE(cur.ok());
  std::vector<std::string> found;
  for (Row row; cur->Next(&row);) found.push_back(row[2].AsString());
  // Strict descendants only: not T/c1 itself and not the sibling T/c10.
  EXPECT_EQ(found, (std::vector<std::string>{"T/c1/x", "T/c1/y"}));
}

TEST(TableTest, DeleteMaintainsIndexes) {
  Table t("Prov", ProvSchema());
  ASSERT_TRUE(t.CreateIndex("idx_loc", {2}).ok());
  auto rid =
      t.Insert({Datum(int64_t{1}), Datum("I"), Datum("T/a"), Datum()});
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(t.Delete(rid.value()).ok());
  size_t hits = 0;
  ASSERT_TRUE(t.LookupEq("idx_loc", {Datum("T/a")},
                         [&](const Rid&, const Row&) {
                           ++hits;
                           return true;
                         })
                  .ok());
  EXPECT_EQ(hits, 0u);
}

TEST(TableTest, PhysicalBytesArePageMultiples) {
  Table t("Prov", ProvSchema());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.Insert({Datum(int64_t{i}), Datum("C"),
                          Datum("T/some/fairly/long/path/n" +
                                std::to_string(i)),
                          Datum("S/source/path")})
                    .ok());
  }
  EXPECT_EQ(t.PhysicalBytes() % Page::kPageSize, 0u);
  EXPECT_GT(t.PhysicalBytes(), t.LiveBytes());
  EXPECT_GT(t.LiveBytes(), 0u);
}

// ----- Database / executor ----------------------------------------------------

TEST(DatabaseTest, CatalogOperations) {
  Database db("provdb");
  ASSERT_TRUE(db.CreateTable("Prov", ProvSchema()).ok());
  EXPECT_TRUE(db.CreateTable("Prov", ProvSchema()).status().IsAlreadyExists());
  EXPECT_TRUE(db.GetTable("Prov").ok());
  EXPECT_TRUE(db.GetTable("zz").status().IsNotFound());
  ASSERT_TRUE(db.DropTable("Prov").ok());
  EXPECT_TRUE(db.GetTable("Prov").status().IsNotFound());
}

// ----- Cursor scans ----------------------------------------------------------

/// A Prov-shaped table with a composite {Loc, Tid} index, as the
/// provenance backend builds it.
Table MakeScanTable() {
  Table t("Prov", ProvSchema());
  EXPECT_TRUE(t.CreateIndex("pk", {0, 2}, true).ok());
  EXPECT_TRUE(t.CreateIndex("loc_tid", {2, 0}).ok());
  for (int64_t tid = 1; tid <= 3; ++tid) {
    for (const char* loc : {"T/a", "T/a/x", "T/a/y", "T/ab", "T/b"}) {
      EXPECT_TRUE(
          t.Insert({Datum(tid), Datum("I"), Datum(loc), Datum()}).ok());
    }
  }
  return t;
}

TEST(TableCursorTest, EqPrefixScanStreamsInKeyOrder) {
  Table t = MakeScanTable();
  ScanSpec spec;
  spec.index = "loc_tid";
  spec.eq = {Datum("T/a")};
  auto cur = t.OpenScan(std::move(spec));
  ASSERT_TRUE(cur.ok());
  Row row;
  std::vector<int64_t> tids;
  while (cur->Next(&row)) {
    EXPECT_EQ(row[2].AsString(), "T/a");
    tids.push_back(row[0].AsInt());
  }
  EXPECT_TRUE(cur->status().ok());
  EXPECT_TRUE(cur->done());
  EXPECT_EQ(tids, (std::vector<int64_t>{1, 2, 3}));  // (Loc, Tid) order
}

TEST(TableCursorTest, StringPrefixScanExcludesSiblingsAndStrangers) {
  Table t = MakeScanTable();
  ScanSpec spec;
  spec.index = "loc_tid";
  spec.prefix = "T/a/";
  auto cur = t.OpenScan(std::move(spec));
  ASSERT_TRUE(cur.ok());
  Row row;
  size_t n = 0;
  while (cur->Next(&row)) {
    EXPECT_TRUE(row[2].AsString() == "T/a/x" || row[2].AsString() == "T/a/y");
    ++n;
  }
  EXPECT_EQ(n, 6u);  // 2 locs x 3 tids; neither "T/a" nor "T/ab"
}

TEST(TableCursorTest, LowerBoundStartsMidRange) {
  Table t = MakeScanTable();
  ScanSpec spec;
  spec.index = "pk";
  spec.eq = {Datum(int64_t{2})};  // partial-arity bound inside the index
  auto cur = t.OpenScan(std::move(spec));
  ASSERT_TRUE(cur.ok());
  Row row;
  size_t n = 0;
  while (cur->Next(&row)) {
    EXPECT_EQ(row[0].AsInt(), 2);
    ++n;
  }
  EXPECT_EQ(n, 5u);
}

TEST(TableCursorTest, RejectsBadSpecs) {
  Table t = MakeScanTable();
  ScanSpec missing;
  missing.index = "nope";
  EXPECT_FALSE(t.OpenScan(std::move(missing)).ok());
  ScanSpec fat;
  fat.index = "pk";
  fat.eq = {Datum(int64_t{1}), Datum("T/a"), Datum("x")};
  EXPECT_FALSE(t.OpenScan(std::move(fat)).ok());
}

/// Drains a keys-only scan of `spec`, checking every key has the index's
/// arity.
std::vector<Row> DrainKeys(const Table& t, ScanSpec spec) {
  spec.keys_only = true;
  auto cur = t.OpenScan(std::move(spec));
  EXPECT_TRUE(cur.ok()) << cur.status();
  std::vector<Row> keys;
  if (!cur.ok()) return keys;
  Row key;
  while (cur->Next(&key)) {
    EXPECT_EQ(key.size(), 2u);
    keys.push_back(key);
  }
  EXPECT_TRUE(cur->status().ok());
  return keys;
}

TEST(TableCursorTest, KeysOnlyYieldsIndexKeysInOrder) {
  Table t = MakeScanTable();
  ScanSpec eq;
  eq.index = "loc_tid";
  eq.eq = {Datum("T/a")};
  EXPECT_EQ(DrainKeys(t, eq),
            (std::vector<Row>{{Datum("T/a"), Datum(int64_t{1})},
                              {Datum("T/a"), Datum(int64_t{2})},
                              {Datum("T/a"), Datum(int64_t{3})}}));

  ScanSpec prefix;
  prefix.index = "loc_tid";
  prefix.prefix = "T/a/";
  std::vector<Row> want;
  for (const char* loc : {"T/a/x", "T/a/y"}) {
    for (int64_t tid = 1; tid <= 3; ++tid) {
      want.push_back({Datum(loc), Datum(tid)});
    }
  }
  EXPECT_EQ(DrainKeys(t, prefix), want);

  // The primary index yields (Tid, Loc) keys.
  ScanSpec primary;
  primary.index = "pk";
  primary.eq = {Datum(int64_t{1})};
  want.clear();
  for (const char* loc : {"T/a", "T/a/x", "T/a/y", "T/ab", "T/b"}) {
    want.push_back({Datum(int64_t{1}), Datum(loc)});
  }
  EXPECT_EQ(DrainKeys(t, primary), want);
}

TEST(TableCursorTest, KeysOnlyWatermarkSkipsYoungerEntriesFromTheKey) {
  Table t = MakeScanTable();
  ScanSpec spec;
  spec.index = "loc_tid";
  spec.prefix = "T/a";
  spec.visible_col = 0;  // Tid: column 0 of the table, 1 of the key
  spec.visible_max = 2;
  // A keys-only scan never reads a row, so the bound is decided on the
  // key: tid 3 is skipped at each of T/a, T/a/x, T/a/y and T/ab.
  std::vector<Row> want;
  for (const char* loc : {"T/a", "T/a/x", "T/a/y", "T/ab"}) {
    for (int64_t tid = 1; tid <= 2; ++tid) {
      want.push_back({Datum(loc), Datum(tid)});
    }
  }
  EXPECT_EQ(DrainKeys(t, spec), want);
}

TEST(TableCursorTest, KeysOnlyRejectsFiltersOutsideTheKey) {
  Table t = MakeScanTable();
  ScanSpec non_key;
  non_key.index = "loc_tid";
  non_key.keys_only = true;
  non_key.visible_col = 1;  // Op: not part of (Loc, Tid)
  auto off_key = t.OpenScan(std::move(non_key));
  ASSERT_FALSE(off_key.ok());
  EXPECT_TRUE(off_key.status().IsInvalidArgument()) << off_key.status();

  // A row scan's bound is decided on the key too, so it must also name a
  // key column.
  ScanSpec row_bound;
  row_bound.index = "loc_tid";
  row_bound.visible_col = 1;
  auto row_off_key = t.OpenScan(std::move(row_bound));
  ASSERT_FALSE(row_off_key.ok());
  EXPECT_TRUE(row_off_key.status().IsInvalidArgument());
}

TEST(CostModelTest, SnapshotDeltasCountRoundTrips) {
  CostModel cost;
  cost.ChargeCall(3);
  CostSnapshot before = cost.Snap();
  cost.ChargeCall(2);
  cost.ChargeCall(0);
  CostSnapshot after = cost.Snap();
  EXPECT_EQ(after.calls - before.calls, 2u);
  EXPECT_EQ(after.rows - before.rows, 2u);
  EXPECT_GT(after.micros, before.micros);
}

TEST(CostModelTest, ChargesRoundTripsAndRows) {
  CostModel cost(CostParams{100.0, 10.0, 0.0});
  cost.ChargeCall(0);
  EXPECT_DOUBLE_EQ(cost.ElapsedMicros(), 100.0);
  cost.ChargeCall(4);
  EXPECT_DOUBLE_EQ(cost.ElapsedMicros(), 240.0);
  EXPECT_EQ(cost.Calls(), 2u);
  EXPECT_EQ(cost.RowsMoved(), 4u);
  cost.Reset();
  EXPECT_DOUBLE_EQ(cost.ElapsedMicros(), 0.0);
}

}  // namespace
}  // namespace cpdb::relstore
