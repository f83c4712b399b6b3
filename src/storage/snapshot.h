#pragma once

#include <cstdint>
#include <string>

#include "relstore/database.h"
#include "util/result.h"

namespace cpdb::storage {

/// Binary checkpoint of a whole Database — every table's schema, index
/// definitions, and live rows — stamped with the commit sequence it
/// captures. Layout (all integers varint unless noted):
///
///   "CPDBCKPT" (8 bytes) | u8 version
///   seq | n_tables
///   per table: name(lp) | schema | n_indexes x index_def | n_rows x row
///   u32 crc32 over everything after the magic
///
/// WriteSnapshot writes to `path + ".tmp"`, fsyncs, then renames over
/// `path`, so a crash mid-checkpoint leaves the previous checkpoint
/// intact (rename is atomic on POSIX). LoadSnapshot verifies the CRC
/// before touching the database and restores each table with one
/// Table::InsertBatch into the empty table (B+-trees packed from one
/// sorted run, not per-row inserts).
Status WriteSnapshot(const relstore::Database& db, uint64_t seq,
                     const std::string& path);

/// Restores a snapshot into `db`, which must hold no tables yet.
/// Returns the commit sequence the snapshot captured. Fails without
/// side effects on a missing file, bad magic, or CRC mismatch.
Result<uint64_t> LoadSnapshot(relstore::Database* db,
                              const std::string& path);

}  // namespace cpdb::storage
