#include "storage/snapshot.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "storage/log_format.h"
#include "storage/wal.h"  // SyncDir
#include "util/crc32.h"

namespace cpdb::storage {

namespace {

constexpr char kMagic[8] = {'C', 'P', 'D', 'B', 'C', 'K', 'P', 'T'};
constexpr uint8_t kVersion = 1;

}  // namespace

Status WriteSnapshot(const relstore::Database& db, uint64_t seq,
                     const std::string& path) {
  // The body is encoded straight after the magic, in the one buffer that
  // is written out.
  std::string file(kMagic, sizeof kMagic);
  file.push_back(static_cast<char>(kVersion));
  PutVarint64(&file, seq);
  PutVarint64(&file, db.TableCount());
  db.ForEachTable([&](const relstore::Table& table) {
    PutLengthPrefixed(&file, table.name());
    EncodeSchema(table.schema(), &file);
    std::vector<relstore::IndexDef> defs = table.IndexDefs();
    PutVarint64(&file, defs.size());
    for (const relstore::IndexDef& def : defs) EncodeIndexDef(def, &file);
    PutVarint64(&file, table.RowCount());
    table.Scan([&](const relstore::Rid&, const relstore::Row& row) {
      relstore::EncodeRow(row, &file);
      return true;
    });
  });

  PutFixed32(&file, Crc32(file.data() + sizeof kMagic,
                          file.size() - sizeof kMagic));

  // Temp-write + fsync + atomic rename: a crash at any point leaves
  // either the old checkpoint or the new one, never a torn file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::Internal("cannot write checkpoint '" + tmp + "'");
    }
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out.good()) {
      return Status::Internal("checkpoint write failed '" + tmp + "'");
    }
  }
  FILE* f = std::fopen(tmp.c_str(), "rb+");
  if (f == nullptr || ::fsync(::fileno(f)) != 0) {
    if (f != nullptr) std::fclose(f);
    return Status::Internal("checkpoint fsync failed '" + tmp + "'");
  }
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("checkpoint rename failed '" + path + "'");
  }
  // The rename is only durable once the directory is: without this, a
  // power loss could keep a subsequently truncated WAL but lose the
  // checkpoint's directory entry — dropping every checkpointed commit.
  return SyncDir(DirOf(path));
}

Result<uint64_t> LoadSnapshot(relstore::Database* db,
                              const std::string& path) {
  if (db->TableCount() != 0) {
    return Status::FailedPrecondition(
        "snapshot load requires an empty database");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("no checkpoint at '" + path + "'");
  }
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  if (file.size() < sizeof kMagic + 1 + 4 ||
      std::memcmp(file.data(), kMagic, sizeof kMagic) != 0) {
    return Status::Internal("checkpoint '" + path + "' has a bad header");
  }
  // The body lies between the magic and the CRC trailer. Cut the trailer
  // off in place, then check and decode the body where it lies, from
  // offset sizeof kMagic: `file.size()` is then the body's end and bounds
  // every decoder below, and the checkpoint is held once.
  size_t crc_pos = file.size() - 4;
  uint32_t stored_crc = 0;
  const bool crc_read = GetFixed32(file, &crc_pos, &stored_crc);
  file.resize(file.size() - 4);
  if (!crc_read || Crc32(file.data() + sizeof kMagic,
                         file.size() - sizeof kMagic) != stored_crc) {
    return Status::Internal("checkpoint '" + path + "' fails its checksum");
  }

  size_t pos = sizeof kMagic;
  auto corrupt = [&path]() {
    return Status::Internal("checkpoint '" + path + "' is malformed");
  };
  if (pos >= file.size() ||
      static_cast<uint8_t>(file[pos++]) != kVersion) {
    return corrupt();
  }
  uint64_t seq, n_tables;
  if (!GetVarint64(file, &pos, &seq)) return corrupt();
  if (!GetVarint64(file, &pos, &n_tables)) return corrupt();
  for (uint64_t t = 0; t < n_tables; ++t) {
    std::string name;
    relstore::Schema schema;
    if (!GetLengthPrefixed(file, &pos, &name)) return corrupt();
    if (!DecodeSchema(file, &pos, &schema)) return corrupt();
    CPDB_ASSIGN_OR_RETURN(relstore::Table * table,
                          db->CreateTable(name, std::move(schema)));
    uint64_t n_indexes;
    if (!GetVarint64(file, &pos, &n_indexes)) return corrupt();
    for (uint64_t i = 0; i < n_indexes; ++i) {
      relstore::IndexDef def;
      if (!DecodeIndexDef(file, &pos, &def)) return corrupt();
      CPDB_RETURN_IF_ERROR(
          table->CreateIndex(def.name, def.columns, def.unique));
    }
    uint64_t n_rows;
    if (!GetVarint64(file, &pos, &n_rows)) return corrupt();
    if (n_rows > file.size() - pos) return corrupt();  // rows are >= 1 byte
    std::vector<relstore::Row> rows;
    rows.reserve(n_rows);
    for (uint64_t r = 0; r < n_rows; ++r) {
      relstore::Row row;
      if (!relstore::DecodeRow(file, &pos, &row)) return corrupt();
      rows.push_back(std::move(row));
    }
    CPDB_RETURN_IF_ERROR(table->InsertBatch(rows));
  }
  if (pos != file.size()) return corrupt();
  return seq;
}

}  // namespace cpdb::storage
