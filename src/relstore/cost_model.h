#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/sim_clock.h"

namespace cpdb::relstore {

/// Parameters of the simulated client/server interaction cost.
///
/// The paper's CPDB is a Java client talking to MySQL via JDBC and to
/// Timber via SOAP; its timing results (Figures 9, 10, 12) are dominated
/// by these round trips — the paper explicitly attributes transactional
/// provenance's speed to "the reduced number of round-trips to the
/// provenance database". Our substrates are in-process, so we charge each
/// modelled round trip and each transferred row to a SimClock. The default
/// magnitudes are scaled down ~1000x from the paper's wall-clock times
/// (450 ms per Timber update -> 450 us simulated); only ratios matter for
/// the reproduced figures.
struct CostParams {
  /// Fixed cost of one client call (connection + parse + dispatch).
  double roundtrip_us = 60.0;
  /// Marginal cost per row written to or read from the store.
  double per_row_us = 10.0;
  /// Marginal cost per KB of payload.
  double per_kb_us = 1.0;
  /// Cost of one fsync barrier (durable group commit). Only charged by
  /// durable databases; in-memory stores never pay it.
  double fsync_us = 120.0;
};

/// Point-in-time reading of a CostModel's counters. Queries and benches
/// measure a code path by taking a snapshot before and after and
/// differencing: `calls` is the modelled round-trip count (the paper's
/// unit of query cost), `rows` the transferred-row count. `write_calls`
/// and `write_rows` are the write-side subset — round trips issued by
/// ChargeWrite (WriteRecords, the target's native write) — so benches can
/// difference write round trips the same way reads do.
struct CostSnapshot {
  double micros = 0;
  size_t calls = 0;
  size_t rows = 0;
  size_t write_calls = 0;
  size_t write_rows = 0;
};

/// Accumulates simulated interaction time for one store.
///
/// Accounting contract (matching the paper's "one SQL statement is one
/// round trip"): every ChargeCall is one client/server round trip, no
/// matter how many rows ride on it. Cursor-based reads charge one round
/// trip per *batch fetched*, not per materialized result vector — a scan
/// drained in a single batch costs exactly one call, like the one-shot
/// queries it replaced, while a huge result streamed in k batches costs k.
class CostModel {
 public:
  CostModel() = default;
  explicit CostModel(CostParams params) : params_(params) {}

  /// Charges one client round trip moving `rows` rows / `bytes` payload.
  void ChargeCall(size_t rows = 0, size_t bytes = 0) {
    ++calls_;
    rows_ += rows;
    clock_.Advance(params_.roundtrip_us +
                   static_cast<double>(rows) * params_.per_row_us +
                   static_cast<double>(bytes) / 1024.0 * params_.per_kb_us);
  }

  /// Charges one client round trip that *writes* `rows` rows. Identical
  /// timing/accounting to ChargeCall (write calls are counted in Calls()
  /// too), but additionally bumps the write-side counters so callers can
  /// difference write round trips separately from reads — the quantity
  /// the batched write path reduces.
  void ChargeWrite(size_t rows = 0, size_t bytes = 0) {
    ++write_calls_;
    write_rows_ += rows;
    ChargeCall(rows, bytes);
  }

  /// Charges pure local CPU work (no round trip), e.g. provlist upkeep.
  void ChargeLocal(double micros) { clock_.Advance(micros); }

  /// Charges one fsync barrier's modelled time (durable group commit). The
  /// barriers themselves, and the log bytes they cover, are counted once,
  /// in storage::DurabilityStats.
  void ChargeFsync() { clock_.Advance(params_.fsync_us); }

  double ElapsedMicros() const { return clock_.ElapsedMicros(); }
  double ElapsedMillis() const { return clock_.ElapsedMillis(); }
  size_t Calls() const { return calls_; }
  size_t RowsMoved() const { return rows_; }
  size_t WriteCalls() const { return write_calls_; }
  size_t WriteRows() const { return write_rows_; }

  CostSnapshot Snap() const {
    return {clock_.ElapsedMicros(), calls_, rows_, write_calls_,
            write_rows_};
  }

  void Reset() {
    clock_.Reset();
    calls_ = 0;
    rows_ = 0;
    write_calls_ = 0;
    write_rows_ = 0;
  }

  const CostParams& params() const { return params_; }
  void set_params(CostParams p) { params_ = p; }

 private:
  CostParams params_;
  SimClock clock_;
  size_t calls_ = 0;
  size_t rows_ = 0;
  size_t write_calls_ = 0;
  size_t write_rows_ = 0;
};

/// Race-free accumulator of CostSnapshots from many threads — the
/// engine-wide totals of the service layer.
///
/// CostModel itself is deliberately NOT thread-safe: it sits on every
/// charge path and a single session only ever charges it from one thread
/// at a time (the service layer gives each session its own plain model and
/// routes backend charges to it — see ProvBackend's cost sink). What IS
/// shared across threads is the *aggregation*: sessions fold their
/// snapshots in here (SessionPool::Release, bench teardown), concurrently
/// with other sessions folding theirs, so every counter is a relaxed
/// atomic. Snap() reads the counters individually; the result is a sum of
/// whole snapshots ever folded, not a consistent cut across concurrent
/// Add() calls — exact once the folding threads have been joined, which is
/// when benches and tests read it.
class CostAggregate {
 public:
  void Add(const CostSnapshot& s) {
    AddMicros(s.micros);
    calls_.fetch_add(s.calls, std::memory_order_relaxed);
    rows_.fetch_add(s.rows, std::memory_order_relaxed);
    write_calls_.fetch_add(s.write_calls, std::memory_order_relaxed);
    write_rows_.fetch_add(s.write_rows, std::memory_order_relaxed);
  }

  CostSnapshot Snap() const {
    CostSnapshot s;
    s.micros = micros_.load(std::memory_order_relaxed);
    s.calls = calls_.load(std::memory_order_relaxed);
    s.rows = rows_.load(std::memory_order_relaxed);
    s.write_calls = write_calls_.load(std::memory_order_relaxed);
    s.write_rows = write_rows_.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    micros_.store(0, std::memory_order_relaxed);
    calls_.store(0, std::memory_order_relaxed);
    rows_.store(0, std::memory_order_relaxed);
    write_calls_.store(0, std::memory_order_relaxed);
    write_rows_.store(0, std::memory_order_relaxed);
  }

 private:
  // fetch_add on atomic<double> is C++20; CAS keeps this C++17.
  void AddMicros(double micros) {
    double cur = micros_.load(std::memory_order_relaxed);
    while (!micros_.compare_exchange_weak(cur, cur + micros,
                                          std::memory_order_relaxed)) {
    }
  }

  std::atomic<double> micros_{0};
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> write_calls_{0};
  std::atomic<uint64_t> write_rows_{0};
};

}  // namespace cpdb::relstore
