// Unit and session-level coverage of the durability subsystem: WAL
// framing and tail truncation, checkpoint round trips, Database
// Open/Sync/Checkpoint/Close semantics, and durable editor sessions whose
// provenance tables survive a crash bit-for-bit. The fault-injection
// sweeps (kill at every byte offset, torn records, bit flips at scale)
// live in crash_recovery_test.cc.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/durable.h"
#include "storage/log_format.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace cpdb {
namespace {

using provenance::ProvRecord;
using provenance::Strategy;
using relstore::ColumnType;
using relstore::Database;
using relstore::Datum;
using relstore::Row;
using relstore::Schema;
using storage::Durability;
using storage::Wal;
using testutil::TempDir;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::string> ReplayAll(const std::string& path) {
  std::vector<std::string> payloads;
  auto n = Wal::Replay(path, [&](const std::string& p) {
    payloads.push_back(p);
    return Status::OK();
  });
  EXPECT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(n.value_or(0), payloads.size());
  return payloads;
}

// ----- WAL framing ---------------------------------------------------------

TEST(WalTest, AppendReplayRoundTrip) {
  TempDir dir("wal_roundtrip");
  const std::string path = dir.path() + "/wal.log";
  const std::vector<std::string> payloads = {
      "first", std::string("\x00\x01\xff binary", 10), "", "last"};
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    for (const std::string& p : payloads) {
      ASSERT_TRUE((*wal)->Append(p).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  EXPECT_EQ(ReplayAll(path), payloads);
}

TEST(WalTest, MissingFileReplaysNothing) {
  TempDir dir("wal_missing");
  EXPECT_TRUE(ReplayAll(dir.path() + "/nope.log").empty());
}

TEST(WalTest, TornTailIsTruncatedAndAppendable) {
  TempDir dir("wal_torn");
  const std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("alpha").ok());
    ASSERT_TRUE((*wal)->Append("beta").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  std::string bytes = ReadFile(path);
  // A torn append: the first half of a valid frame.
  std::string torn = bytes;
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append("gamma-never-synced").ok());
  }
  std::string full = ReadFile(path);
  torn = full.substr(0, bytes.size() + (full.size() - bytes.size()) / 2);
  WriteFile(path, torn);

  EXPECT_EQ(ReplayAll(path), (std::vector<std::string>{"alpha", "beta"}));
  // The tail was cut back to the last good boundary...
  EXPECT_EQ(ReadFile(path), bytes);
  // ...so the log keeps working.
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append("delta").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  EXPECT_EQ(ReplayAll(path),
            (std::vector<std::string>{"alpha", "beta", "delta"}));
}

TEST(WalTest, BitFlipStopsReplayAtLastGoodRecord) {
  TempDir dir("wal_flip");
  const std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    size_t rec2_start = 0;  // record 1's framed size
    ASSERT_TRUE((*wal)->Append("one", &rec2_start).ok());
    ASSERT_TRUE((*wal)->Append("two").ok());
    ASSERT_TRUE((*wal)->Append("three").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
    // Flip one payload bit inside record 2 (past its varint+crc header).
    std::string bytes = ReadFile(path);
    bytes[rec2_start + 5] = static_cast<char>(bytes[rec2_start + 5] ^ 0x01);
    WriteFile(path, bytes);
  }
  // Recovery surfaces record 1 only: a log must have no gaps, so intact
  // records past the corruption are unreachable by design.
  EXPECT_EQ(ReplayAll(path), (std::vector<std::string>{"one"}));
}

TEST(WalTest, AppendWritesTheSharedFrameBytes) {
  TempDir dir("wal_golden");
  const std::string path = dir.path() + "/wal.log";
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    size_t framed = 0;
    ASSERT_TRUE((*wal)->Append("abc", &framed).ok());
    EXPECT_EQ(framed, 8u);
  }
  // The bytes EncodeFrame("abc") produces (see FrameTest.GoldenBytes).
  EXPECT_EQ(ReadFile(path), std::string("\x03\xc2\x41\x24\x35" "abc", 8));
}

TEST(WalTest, RecordLargerThanAWireFrameReplays) {
  // One cohort's record can outgrow the wire's 8 MiB bound on a frame; the
  // log bounds a record by its own size instead.
  TempDir dir("wal_large");
  const std::string path = dir.path() + "/wal.log";
  std::string big(9u << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 7);
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append("small").ok());
    ASSERT_TRUE((*wal)->Append(big).ok());
    ASSERT_TRUE((*wal)->Append("after").ok());
  }
  const size_t size = ReadFile(path).size();
  std::vector<std::string> got = ReplayAll(path);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "small");
  EXPECT_TRUE(got[1] == big);
  EXPECT_EQ(got[2], "after");
  EXPECT_EQ(ReadFile(path).size(), size);
}

TEST(WalTest, RecordStraddlingAReadChunkReplaysAndATornOneIsCut) {
  TempDir dir("wal_chunk");
  const std::string path = dir.path() + "/wal.log";
  const size_t chunk = Wal::kReplayChunkBytes;
  const std::string one(chunk / 2, '1');
  const std::string two(chunk, '2');
  size_t framed_one = 0;
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE((*wal)->Append(one, &framed_one).ok());
    ASSERT_TRUE((*wal)->Append(two).ok());
    ASSERT_TRUE((*wal)->Append("three").ok());
  }
  const std::string bytes = ReadFile(path);
  // Record 2 starts in the first chunk and ends in the second.
  ASSERT_LT(framed_one, chunk);
  ASSERT_GT(framed_one + two.size(), chunk);
  EXPECT_EQ(ReplayAll(path), (std::vector<std::string>{one, two, "three"}));
  EXPECT_EQ(ReadFile(path), bytes);

  // Torn past the chunk boundary, inside record 2: cut back to record 1.
  WriteFile(path, bytes.substr(0, chunk + 10));
  EXPECT_EQ(ReplayAll(path), (std::vector<std::string>{one}));
  EXPECT_EQ(ReadFile(path), bytes.substr(0, framed_one));
}

TEST(WalTest, ReplayMatchesAByteAtATimeReaderOnCorruptLogs) {
  // Seeded logs of a few records each, every one with one corruption: a
  // bit flip, a truncation or a garbage length prefix. Replay surfaces
  // exactly the payloads a FrameReader fed one byte at a time yields
  // before its first non-frame event, and leaves the file at that offset.
  TempDir dir("wal_corrupt");
  const std::string path = dir.path() + "/wal.log";
  Rng rng(2025);
  for (int iter = 0; iter < 300; ++iter) {
    SCOPED_TRACE(iter);
    std::string log;
    std::vector<size_t> starts;
    const size_t records = 2 + rng.NextBelow(6);
    for (size_t r = 0; r < records; ++r) {
      // Mostly short records; now and then one longer than a read chunk.
      const size_t len = rng.NextBool(0.05)
                             ? Wal::kReplayChunkBytes + rng.NextBelow(1000)
                             : rng.NextBelow(300);
      std::string payload(len, '\0');
      for (char& c : payload) c = static_cast<char>(rng.Next());
      starts.push_back(log.size());
      EncodeFrame(payload, &log);
    }
    switch (rng.NextBelow(3)) {
      case 0:  // bit flip
        log[rng.NextIndex(log.size())] ^=
            static_cast<char>(1u << rng.NextBelow(8));
        break;
      case 1:  // truncation
        log.resize(rng.NextBelow(log.size()));
        break;
      default: {  // garbage length: continuation bytes, then maybe an end
        size_t at = starts[rng.NextIndex(starts.size())];
        const size_t n = 1 + rng.NextBelow(kMaxVarint64Bytes + 1);
        for (size_t k = 0; k < n && at < log.size(); ++k, ++at) {
          log[at] = static_cast<char>(rng.Next() | 0x80);
        }
        if (at < log.size() && rng.NextBool()) log[at] &= 0x7f;
      }
    }

    FrameReader oracle(log.size());
    std::vector<std::string> expected;
    std::string payload;
    for (size_t i = 0; i < log.size(); ++i) {
      oracle.Append(&log[i], 1);
      FrameReader::Event ev;
      while ((ev = oracle.Next(&payload)) == FrameReader::Event::kFrame) {
        expected.push_back(payload);
      }
      if (ev != FrameReader::Event::kNeedMore) break;
    }

    WriteFile(path, log);
    EXPECT_EQ(ReplayAll(path), expected);
    EXPECT_EQ(ReadFile(path), log.substr(0, oracle.consumed()));
  }
}

// ----- Checkpoint files ----------------------------------------------------

Database MakeTwoTableDb() {
  Database db("snapdb");
  Schema people({{"id", ColumnType::kInt64, false},
                 {"name", ColumnType::kString, false},
                 {"score", ColumnType::kDouble, true}});
  auto t1 = db.CreateTable("people", people);
  EXPECT_TRUE(t1.ok());
  EXPECT_TRUE((*t1)->CreateIndex("pk", {0}, /*unique=*/true).ok());
  EXPECT_TRUE((*t1)->CreateIndex("by_name", {1}).ok());
  EXPECT_TRUE((*t1)->Insert(Row{Datum(int64_t{1}), Datum("ada"),
                                Datum(2.5)}).ok());
  EXPECT_TRUE((*t1)->Insert(Row{Datum(int64_t{2}), Datum("grace"),
                                Datum()}).ok());
  Schema logs({{"msg", ColumnType::kString, false}});
  auto t2 = db.CreateTable("logs", logs);
  EXPECT_TRUE(t2.ok());
  EXPECT_TRUE((*t2)->Insert(Row{Datum("hello")}).ok());
  return db;
}

TEST(SnapshotTest, RoundTripRestoresSchemaIndexesAndRows) {
  TempDir dir("snap_roundtrip");
  const std::string path = dir.path() + "/CHECKPOINT";
  Database db = MakeTwoTableDb();
  ASSERT_TRUE(storage::WriteSnapshot(db, 42, path).ok());

  Database restored("snapdb");
  auto seq = storage::LoadSnapshot(&restored, path);
  ASSERT_TRUE(seq.ok()) << seq.status();
  EXPECT_EQ(*seq, 42u);
  EXPECT_EQ(restored.TableNames(),
            (std::vector<std::string>{"logs", "people"}));
  auto people = restored.GetTable("people");
  ASSERT_TRUE(people.ok());
  EXPECT_EQ((*people)->RowCount(), 2u);
  EXPECT_EQ((*people)->IndexDefs().size(), 2u);
  // The unique index is live again: a duplicate key must be rejected.
  EXPECT_TRUE((*people)
                  ->Insert(Row{Datum(int64_t{1}), Datum("dup"), Datum()})
                  .status()
                  .IsAlreadyExists());
  // Point lookup through the restored secondary index.
  size_t hits = 0;
  ASSERT_TRUE((*people)
                  ->LookupEq("by_name", Row{Datum("grace")},
                             [&](const relstore::Rid&, const Row& row) {
                               EXPECT_TRUE(row[2].is_null());
                               ++hits;
                               return true;
                             })
                  .ok());
  EXPECT_EQ(hits, 1u);
}

TEST(SnapshotTest, ChecksumMismatchIsRejected) {
  TempDir dir("snap_crc");
  const std::string path = dir.path() + "/CHECKPOINT";
  Database db = MakeTwoTableDb();
  ASSERT_TRUE(storage::WriteSnapshot(db, 7, path).ok());
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  WriteFile(path, bytes);
  Database restored("snapdb");
  auto seq = storage::LoadSnapshot(&restored, path);
  EXPECT_FALSE(seq.ok());
  EXPECT_TRUE(restored.TableNames().empty());
}

TEST(SnapshotTest, RowCountPastBodyIsCorrupt) {
  // A checksum-valid checkpoint of one table whose row count no body of
  // this size can hold: refused as malformed, never reserved.
  std::string body(1, '\x01');  // format version
  PutVarint64(&body, 5);         // seq
  PutVarint64(&body, 1);         // one table
  PutLengthPrefixed(&body, "t");
  storage::EncodeSchema(Schema({{"k", ColumnType::kInt64, false}}), &body);
  PutVarint64(&body, 0);  // no indexes
  PutVarint64(&body, uint64_t{1} << 60);
  std::string file = "CPDBCKPT" + body;
  PutFixed32(&file, Crc32(body));

  TempDir dir("snap_hostile_rows");
  const std::string path = dir.path() + "/CHECKPOINT";
  WriteFile(path, file);
  Database restored("snapdb");
  auto seq = storage::LoadSnapshot(&restored, path);
  ASSERT_FALSE(seq.ok());
  EXPECT_NE(seq.status().ToString().find("malformed"), std::string::npos)
      << seq.status();
}

// ----- Log record codecs ---------------------------------------------------

TEST(LogFormatTest, SchemaColumnCountPastInputIsRejected) {
  std::string in;
  PutVarint64(&in, uint64_t{1} << 60);
  size_t pos = 0;
  Schema schema;
  EXPECT_FALSE(storage::DecodeSchema(in, &pos, &schema));
}

TEST(LogFormatTest, IndexDefColumnCountPastInputIsRejected) {
  std::string in;
  PutLengthPrefixed(&in, "idx");
  PutVarint64(&in, uint64_t{1} << 60);
  size_t pos = 0;
  relstore::IndexDef def;
  EXPECT_FALSE(storage::DecodeIndexDef(in, &pos, &def));
}

/// An index definition's bytes, written by hand: name(lp) | n_columns |
/// columns | kind | unique. Kind 0 is a B+-tree; stores written before
/// every index was one also carry kind 1, a hash index.
std::string IndexDefBytes(const std::string& name,
                          const std::vector<uint64_t>& columns, uint8_t kind,
                          bool unique) {
  std::string out;
  PutLengthPrefixed(&out, name);
  PutVarint64(&out, columns.size());
  for (uint64_t c : columns) PutVarint64(&out, c);
  out.push_back(static_cast<char>(kind));
  out.push_back(unique ? 1 : 0);
  return out;
}

constexpr uint64_t kColumnPastInt = (uint64_t{1} << 32) + 1;

TEST(LogFormatTest, IndexDefColumnPastIntRangeIsRejected) {
  // Narrowed to int, 2^32 + 1 would read as column 1.
  const std::string in = IndexDefBytes("idx", {kColumnPastInt}, 0, false);
  size_t pos = 0;
  relstore::IndexDef def;
  EXPECT_FALSE(storage::DecodeIndexDef(in, &pos, &def));
  // The largest int column still decodes (CreateIndex range-checks it).
  const std::string max_int =
      IndexDefBytes("idx", {uint64_t{2147483647}}, 0, false);
  pos = 0;
  ASSERT_TRUE(storage::DecodeIndexDef(max_int, &pos, &def));
  EXPECT_EQ(def.columns, std::vector<int>{2147483647});
}

TEST(LogFormatTest, IndexDefKindPastHashIsRejected) {
  relstore::IndexDef def;
  for (uint8_t kind : {0, 1}) {
    const std::string in = IndexDefBytes("idx", {0, 2}, kind, true);
    size_t pos = 0;
    ASSERT_TRUE(storage::DecodeIndexDef(in, &pos, &def)) << int{kind};
    EXPECT_EQ(pos, in.size());
    EXPECT_EQ(def.columns, (std::vector<int>{0, 2}));
    EXPECT_TRUE(def.unique);
  }
  for (uint8_t kind : {2, 7, 255}) {
    const std::string in = IndexDefBytes("idx", {0}, kind, false);
    size_t pos = 0;
    EXPECT_FALSE(storage::DecodeIndexDef(in, &pos, &def)) << int{kind};
  }
}

// ----- Database Open/Sync/Checkpoint/Close ---------------------------------

TEST(DurableDatabaseTest, WalRowWithHostileColumnCountIsUndecodable) {
  // A CRC-valid commit record inserting a row image that claims
  // 0xFFFFFFFF columns: recovery refuses the record with a typed error.
  std::string payload;
  PutVarint64(&payload, 1);  // seq
  PutVarint64(&payload, 1);  // one write
  payload.push_back(static_cast<char>(storage::LogOp::kInsert));
  PutLengthPrefixed(&payload, "t");
  payload.append(4, '\xff');
  TempDir dir("db_hostile_row");
  {
    auto wal = Wal::Open(Durability::WalPath(dir.path()));
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(payload).ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  auto db = Database::Open("d", dir.path());
  ASSERT_FALSE(db.ok());
  EXPECT_NE(db.status().ToString().find("undecodable commit record"),
            std::string::npos)
      << db.status();
}

/// Appends one journalled write to a hand-built commit record payload.
void AppendWrite(std::string* payload, storage::LogOp op,
                 const std::string& table, const std::string& body) {
  payload->push_back(static_cast<char>(op));
  PutLengthPrefixed(payload, table);
  payload->append(body);
}

/// Writes `payload` as the only record of `dir`'s write-ahead log.
void WriteWalRecord(const std::string& dir, const std::string& payload) {
  auto wal = Wal::Open(Durability::WalPath(dir));
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_TRUE((*wal)->Append(payload).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
}

TEST(DurableDatabaseTest, WalIndexDefWithHostileColumnOrKindIsUndecodable) {
  // CRC-valid commit records creating a two-column table and an index
  // whose definition is malformed: a column past the int range (which
  // would narrow to column 1) or a kind byte past hash.
  const std::vector<std::string> bad_defs = {
      IndexDefBytes("idx", {kColumnPastInt}, 0, false),
      IndexDefBytes("idx", {1}, 7, false)};
  for (size_t i = 0; i < bad_defs.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    std::string schema;
    storage::EncodeSchema(Schema({{"k", ColumnType::kInt64, false},
                                  {"v", ColumnType::kString, true}}),
                          &schema);
    std::string payload;
    PutVarint64(&payload, 1);  // seq
    PutVarint64(&payload, 2);  // two writes
    AppendWrite(&payload, storage::LogOp::kCreateTable, "t", schema);
    AppendWrite(&payload, storage::LogOp::kCreateIndex, "t", bad_defs[i]);
    TempDir dir("db_hostile_index_" + std::to_string(i));
    WriteWalRecord(dir.path(), payload);
    auto db = Database::Open("d", dir.path());
    ASSERT_FALSE(db.ok());
    EXPECT_NE(db.status().ToString().find("undecodable commit record"),
              std::string::npos)
        << db.status();
  }
}

// ----- Stores written when an index could be a hash index ------------------

Schema PeopleSchema() {
  return Schema({{"id", ColumnType::kInt64, false},
                 {"name", ColumnType::kString, false}});
}

std::vector<Row> PeopleRows() {
  return {Row{Datum(int64_t{1}), Datum("ada")},
          Row{Datum(int64_t{2}), Datum("grace")},
          Row{Datum(int64_t{3}), Datum("grace")}};
}

/// The people table's two indexes as a hash-index store recorded them.
std::vector<std::string> HashIndexDefs() {
  return {IndexDefBytes("pk", {0}, 1, /*unique=*/true),
          IndexDefBytes("by_name", {1}, 1, /*unique=*/false)};
}

/// The recovered people table answers through both former hash indexes
/// as B+-trees: point lookups, ordered cursors, and the unique key.
void ExpectHashIndexesServeAsBTrees(Database* db) {
  auto people = db->GetTable("people");
  ASSERT_TRUE(people.ok()) << people.status();
  relstore::Table* t = *people;
  EXPECT_EQ(t->RowCount(), 3u);
  size_t hits = 0;
  ASSERT_TRUE(t->LookupEq("by_name", Row{Datum("grace")},
                          [&](const relstore::Rid&, const Row& row) {
                            EXPECT_EQ(row[1].AsString(), "grace");
                            ++hits;
                            return true;
                          })
                  .ok());
  EXPECT_EQ(hits, 2u);
  std::vector<int64_t> ids;
  for (const char* index : {"by_name", "pk"}) {
    relstore::ScanSpec spec;
    spec.index = index;
    auto cur = t->OpenScan(std::move(spec));
    ASSERT_TRUE(cur.ok()) << cur.status();
    for (Row row; cur->Next(&row);) ids.push_back(row[0].AsInt());
    EXPECT_TRUE(cur->status().ok());
  }
  // by_name orders ada, grace, grace; pk orders 1, 2, 3.
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 2, 3, 1, 2, 3}));
  EXPECT_TRUE(t->Insert(Row{Datum(int64_t{2}), Datum("dup")})
                  .status()
                  .IsAlreadyExists());
}

TEST(DurableDatabaseTest, HashIndexDefsInWalRecoverAsBTrees) {
  std::string payload;
  PutVarint64(&payload, 1);  // seq
  PutVarint64(&payload, 1 + HashIndexDefs().size() + PeopleRows().size());
  std::string schema;
  storage::EncodeSchema(PeopleSchema(), &schema);
  AppendWrite(&payload, storage::LogOp::kCreateTable, "people", schema);
  for (const std::string& def : HashIndexDefs()) {
    AppendWrite(&payload, storage::LogOp::kCreateIndex, "people", def);
  }
  for (const Row& row : PeopleRows()) {
    std::string image;
    relstore::EncodeRow(row, &image);
    AppendWrite(&payload, storage::LogOp::kInsert, "people", image);
  }
  TempDir dir("db_hash_wal");
  WriteWalRecord(dir.path(), payload);
  auto db = Database::Open("d", dir.path());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->durability()->stats().replayed_commits, 1u);
  ExpectHashIndexesServeAsBTrees(db->get());
}

TEST(DurableDatabaseTest, HashIndexDefsInCheckpointRecoverAsBTrees) {
  std::string body(1, '\x01');  // format version
  PutVarint64(&body, 5);         // seq
  PutVarint64(&body, 1);         // one table
  PutLengthPrefixed(&body, "people");
  storage::EncodeSchema(PeopleSchema(), &body);
  PutVarint64(&body, HashIndexDefs().size());
  for (const std::string& def : HashIndexDefs()) body += def;
  PutVarint64(&body, PeopleRows().size());
  for (const Row& row : PeopleRows()) relstore::EncodeRow(row, &body);
  std::string file = "CPDBCKPT" + body;
  PutFixed32(&file, Crc32(body));

  TempDir dir("db_hash_ckpt");
  WriteFile(Durability::CheckpointPath(dir.path()), file);
  auto db = Database::Open("d", dir.path());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db)->durability()->stats().snapshot_loaded);
  ExpectHashIndexesServeAsBTrees(db->get());
}

TEST(DurableDatabaseTest, SyncedWritesSurviveReopenUnsyncedAreLost) {
  TempDir dir("db_reopen");
  {
    auto db = Database::Open("d", dir.path());
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_TRUE((*db)->durable());
    Schema s({{"k", ColumnType::kInt64, false}});
    auto t = (*db)->CreateTable("t", s);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Insert(Row{Datum(int64_t{1})}).ok());
    ASSERT_TRUE((*db)->Sync().ok());
    // Past the barrier: this write is in the crash window.
    ASSERT_TRUE((*t)->Insert(Row{Datum(int64_t{2})}).ok());
    // Simulated kill: the unique_ptr drops without Close().
  }
  auto db = Database::Open("d", dir.path());
  ASSERT_TRUE(db.ok()) << db.status();
  auto t = (*db)->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->RowCount(), 1u);
  EXPECT_EQ((*db)->durability()->stats().replayed_commits, 1u);
  EXPECT_FALSE((*db)->durability()->stats().snapshot_loaded);
}

TEST(DurableDatabaseTest, DdlAndDeletesRecoverFromLogAlone) {
  TempDir dir("db_ddl");
  {
    auto db = Database::Open("d", dir.path());
    ASSERT_TRUE(db.ok());
    Schema s({{"k", ColumnType::kInt64, false},
              {"v", ColumnType::kString, true}});
    auto t = (*db)->CreateTable("t", s);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->CreateIndex("pk", {0}, /*unique=*/true).ok());
    auto rid = (*t)->Insert(Row{Datum(int64_t{1}), Datum("gone")});
    ASSERT_TRUE(rid.ok());
    ASSERT_TRUE((*t)->Insert(Row{Datum(int64_t{2}), Datum("kept")}).ok());
    ASSERT_TRUE((*t)->Delete(rid.value()).ok());
    // Delete + reinsert of the same unique key inside one commit: replay
    // must apply the delete first or the reinsert would be rejected.
    ASSERT_TRUE((*t)->Insert(Row{Datum(int64_t{1}), Datum("back")}).ok());
    ASSERT_TRUE((*db)->Sync().ok());
  }
  auto db = Database::Open("d", dir.path());
  ASSERT_TRUE(db.ok()) << db.status();
  auto t = (*db)->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->RowCount(), 2u);
  EXPECT_EQ((*t)->IndexDefs().size(), 1u);
  size_t hits = 0;
  ASSERT_TRUE((*t)->LookupEq("pk", Row{Datum(int64_t{1})},
                             [&](const relstore::Rid&, const Row& row) {
                               EXPECT_EQ(row[1].AsString(), "back");
                               ++hits;
                               return true;
                             })
                  .ok());
  EXPECT_EQ(hits, 1u);
}

TEST(DurableDatabaseTest, DeletesFromUnindexedTableRecoverFromLog) {
  // With no index to route through, replay finds a deleted row image by
  // scanning the heap; of two identical rows it removes exactly one.
  TempDir dir("db_unindexed_delete");
  {
    auto db = Database::Open("d", dir.path());
    ASSERT_TRUE(db.ok());
    Schema s({{"k", ColumnType::kInt64, false},
              {"v", ColumnType::kString, true}});
    auto t = (*db)->CreateTable("t", s);
    ASSERT_TRUE(t.ok());
    const Row twin{Datum(int64_t{1}), Datum("twin")};
    auto rid = (*t)->Insert(twin);
    ASSERT_TRUE(rid.ok());
    ASSERT_TRUE((*t)->Insert(Row{Datum(int64_t{2}), Datum("kept")}).ok());
    ASSERT_TRUE((*t)->Insert(twin).ok());
    ASSERT_TRUE((*db)->Sync().ok());
    ASSERT_TRUE((*t)->Delete(rid.value()).ok());
    ASSERT_TRUE((*db)->Sync().ok());
  }
  auto db = Database::Open("d", dir.path());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->durability()->stats().replayed_commits, 2u);
  auto t = (*db)->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE((*t)->IndexDefs().empty());
  std::vector<std::string> values;
  (*t)->Scan([&](const relstore::Rid&, const Row& row) {
    values.push_back(row[1].AsString());
    return true;
  });
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<std::string>{"kept", "twin"}));
}

TEST(DurableDatabaseTest, CheckpointTruncatesLogAndLaterCommitsReplay) {
  TempDir dir("db_ckpt");
  {
    auto db = Database::Open("d", dir.path());
    ASSERT_TRUE(db.ok());
    Schema s({{"k", ColumnType::kInt64, false}});
    auto t = (*db)->CreateTable("t", s);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Insert(Row{Datum(int64_t{1})}).ok());
    ASSERT_TRUE((*db)->Sync().ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ(ReadFile(Durability::WalPath(dir.path())).size(), 0u);
    ASSERT_TRUE((*t)->Insert(Row{Datum(int64_t{2})}).ok());
    ASSERT_TRUE((*db)->Sync().ok());
  }
  auto db = Database::Open("d", dir.path());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db)->durability()->stats().snapshot_loaded);
  EXPECT_EQ((*db)->durability()->stats().replayed_commits, 1u);
  auto t = (*db)->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->RowCount(), 2u);
}

TEST(DurableDatabaseTest, CloseIsCleanShutdownAndInMemoryNoops) {
  TempDir dir("db_close");
  {
    auto db = Database::Open("d", dir.path());
    ASSERT_TRUE(db.ok());
    Schema s({{"k", ColumnType::kInt64, false}});
    auto t = (*db)->CreateTable("t", s);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Insert(Row{Datum(int64_t{9})}).ok());
    // No explicit Sync: Close must flush the pending commit itself.
    ASSERT_TRUE((*db)->Close().ok());
    EXPECT_FALSE((*db)->durable());
  }
  auto db = Database::Open("d", dir.path());
  ASSERT_TRUE(db.ok());
  auto t = (*db)->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->RowCount(), 1u);

  Database mem("m");
  EXPECT_FALSE(mem.durable());
  EXPECT_TRUE(mem.Sync().ok());
  EXPECT_TRUE(mem.Close().ok());
  EXPECT_TRUE(mem.Checkpoint().IsFailedPrecondition());
  // No durability engine: nothing was logged or fsynced, and no barrier
  // was charged to the modelled clock.
  EXPECT_EQ(mem.durability(), nullptr);
  EXPECT_EQ(mem.cost().ElapsedMicros(), 0.0);
}

TEST(DurableDatabaseTest, SyncAfterCloseIsRefusedAndReachesTheEditor) {
  TempDir dir("db_closed_sync");
  auto db = Database::Open("d", dir.path());
  ASSERT_TRUE(db.ok()) << db.status();
  provenance::ProvBackend backend(db->get());
  auto t = (*db)->CreateTable("t", Schema({{"k", ColumnType::kInt64, false}}));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*db)->Sync().ok());
  ASSERT_TRUE((*db)->Close().ok());

  // The row lands in memory only, so no barrier may acknowledge it.
  ASSERT_TRUE((*t)->Insert(Row{Datum(int64_t{1})}).ok());
  Status synced = (*db)->Sync();
  EXPECT_TRUE(synced.IsFailedPrecondition()) << synced;
  EXPECT_TRUE((*db)->Checkpoint().IsFailedPrecondition());

  // A standalone strategy-H editor commits each update with its own
  // barrier: the refusal comes back from ApplyUpdate.
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  EditorOptions opts;
  opts.strategy = Strategy::kHierarchical;
  auto editor = Editor::Create(&target, &backend, opts);
  ASSERT_TRUE(editor.ok()) << editor.status();
  Status applied = (*editor)->ApplyUpdate(
      update::Update::Insert(tree::Path::MustParse("T"), "fresh"));
  EXPECT_TRUE(applied.IsFailedPrecondition()) << applied;

  // Nothing written after Close reached the log.
  auto reopened = Database::Open("d", dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto t2 = (*reopened)->GetTable("t");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ((*t2)->RowCount(), 0u);
}

TEST(DurableDatabaseTest, SecondLiveSessionOnSameDirIsRejected) {
  TempDir dir("db_lock");
  auto first = Database::Open("d", dir.path());
  ASSERT_TRUE(first.ok());
  // A concurrent opener must not interleave its commits into our log.
  auto second = Database::Open("d", dir.path());
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsFailedPrecondition());
  // Clean Close releases the lock; a crash releases it with the process.
  ASSERT_TRUE((*first)->Close().ok());
  EXPECT_TRUE(Database::Open("d", dir.path()).ok());
}

TEST(DurableDatabaseTest, MoveRebindsTheDurabilityEngine) {
  TempDir dir("db_move");
  {
    auto opened = Database::Open("d", dir.path());
    ASSERT_TRUE(opened.ok());
    // Move the database out of the unique_ptr; the engine must follow.
    Database db = std::move(**opened);
    opened->reset();
    Schema s({{"k", ColumnType::kInt64, false}});
    auto t = db.CreateTable("t", s);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE((*t)->Insert(Row{Datum(int64_t{5})}).ok());
    ASSERT_TRUE(db.Sync().ok());
    // Checkpoint snapshots through the rebound back reference: if it
    // still pointed at the moved-from shell this would write 0 tables.
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  auto db = Database::Open("d", dir.path());
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->durability()->stats().snapshot_loaded);
  auto t = (*db)->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->RowCount(), 1u);
}

// ----- Durable editor sessions ---------------------------------------------

std::vector<ProvRecord> RunFigure3Durable(Strategy strategy,
                                          const std::string& dir,
                                          std::string* table_text) {
  auto db = Database::Open("provdb", dir);
  EXPECT_TRUE(db.ok());
  provenance::ProvBackend backend(db->get());
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  wrap::TreeSourceDb s1("S1", testutil::Figure4SourceS1());
  wrap::TreeSourceDb s2("S2", testutil::Figure4SourceS2());
  EditorOptions opts;
  opts.strategy = strategy;
  opts.first_tid = 121;
  auto editor = Editor::Create(&target, &backend, opts);
  EXPECT_TRUE(editor.ok());
  EXPECT_TRUE((*editor)->MountSource(&s1).ok());
  EXPECT_TRUE((*editor)->MountSource(&s2).ok());
  EXPECT_TRUE((*editor)->ApplyScriptText(testutil::Figure3ScriptText()).ok());
  EXPECT_TRUE((*editor)->Commit().ok());
  auto all = testutil::DrainAll(backend.ScanAll());
  EXPECT_TRUE(all.ok());
  *table_text = provenance::RecordsToTable(*all);
  // Simulated crash on return: editor, backend, and database are dropped
  // with no Close() — only fsynced state may survive.
  return *all;
}

TEST(DurableEditorTest, Figure5TableSurvivesCrashBitForBit) {
  for (Strategy strategy :
       {Strategy::kNaive, Strategy::kHierarchical, Strategy::kTransactional,
        Strategy::kHierarchicalTransactional}) {
    SCOPED_TRACE(provenance::StrategyName(strategy));
    TempDir dir("fig5_durable");
    std::string expected_table;
    std::vector<ProvRecord> expected =
        RunFigure3Durable(strategy, dir.path(), &expected_table);
    ASSERT_FALSE(expected.empty());

    auto db = Database::Open("provdb", dir.path());
    ASSERT_TRUE(db.ok()) << db.status();
    provenance::ProvBackend backend(db->get());
    EXPECT_EQ(backend.MaxTid(), expected.back().tid);
    auto recovered = testutil::DrainAll(backend.ScanAll());
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(*recovered, expected);
    EXPECT_EQ(provenance::RecordsToTable(*recovered), expected_table);
  }
}

TEST(DurableEditorTest, SessionContinuesAcrossReopenWithContiguousTids) {
  TempDir dir("session_continue");
  std::string ignored;
  std::vector<ProvRecord> first =
      RunFigure3Durable(Strategy::kNaive, dir.path(), &ignored);
  int64_t last_tid = first.back().tid;

  auto db = Database::Open("provdb", dir.path());
  ASSERT_TRUE(db.ok());
  provenance::ProvBackend backend(db->get());
  // The reopened target resumes from the pre-crash tree (the paper's
  // target database is an external store; here we rebuild its end state).
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  EditorOptions opts;
  opts.strategy = Strategy::kNaive;
  opts.first_tid = backend.MaxTid() + 1;
  auto editor = Editor::Create(&target, &backend, opts);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE(
      (*editor)->Insert(tree::Path::MustParse("T"), "c9").ok());
  auto all = testutil::DrainAll(backend.ScanAll());
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), first.size() + 1);
  EXPECT_EQ(all->back().tid, last_tid + 1);
  EXPECT_EQ(all->back().loc.ToString(), "T/c9");
}

TEST(DurableEditorTest, FsyncOncePerTransactionAndCountersExposed) {
  TempDir dir("fsync_counts");
  auto db = Database::Open("provdb", dir.path());
  ASSERT_TRUE(db.ok());
  provenance::ProvBackend backend(db->get());
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  wrap::TreeSourceDb s1("S1", testutil::Figure4SourceS1());
  EditorOptions opts;
  opts.strategy = Strategy::kHierarchicalTransactional;
  auto editor = Editor::Create(&target, &backend, opts);
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE((*editor)->MountSource(&s1).ok());

  const storage::DurabilityStats before = (*db)->durability()->stats();
  ASSERT_TRUE((*editor)->Insert(tree::Path::MustParse("T"), "n1").ok());
  ASSERT_TRUE((*editor)->Insert(tree::Path::MustParse("T"), "n2").ok());
  ASSERT_TRUE((*editor)->Insert(tree::Path::MustParse("T"), "n3").ok());
  // T/HT stage in memory: nothing durable happens before Commit...
  EXPECT_EQ((*db)->durability()->stats().fsyncs, before.fsyncs);
  EXPECT_EQ((*db)->durability()->stats().log_bytes, before.log_bytes);
  ASSERT_TRUE((*editor)->Commit().ok());
  // ...and the whole transaction rides exactly one record and one fsync
  // barrier.
  const storage::DurabilityStats after = (*db)->durability()->stats();
  EXPECT_EQ(after.commits, before.commits + 1);
  EXPECT_EQ(after.fsyncs, before.fsyncs + 1);
  EXPECT_GT(after.log_bytes, before.log_bytes);
}

}  // namespace
}  // namespace cpdb
