#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>

#include "obs/metrics.h"
#include "tree/tree.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cpdb::service {

/// The engine's version chain of committed target states — MVCC-lite.
///
/// Every group-commit cohort publishes the committed target tree at its
/// watermark tid (the last tid the cohort minted; tids are commit-ordered
/// because they are minted under the exclusive latch). Publishing is O(1):
/// the tree is a copy-on-write clone sharing all nodes with the live
/// target, so a "version" is one root pointer, not a copy of the database.
///
/// Sessions PIN the version their snapshot was opened at. A pinned
/// version cannot be garbage-collected; when the oldest pin is released,
/// every unpinned version older than the new oldest pin is dropped (the
/// latest version always survives — it IS the committed state). Because
/// versions share structure, dropping a version frees exactly the nodes
/// that were copy-on-write-superseded since — the per-version delta.
///
/// The chain's registry sinks (see Metrics) feed STATS, METRICS, and the
/// benches; the one to watch is snapshot_rebuilds — full
/// materializations (TargetDb::TreeFromDb scans), the O(database) path
/// this chain exists to avoid. A warm pool under write traffic must not
/// add any.
class SnapshotManager {
 public:
  /// A pinned version: `root` is valid until Unpin(seq). seq == 0 means
  /// "no pin" (the chain was empty; the caller must materialize).
  struct Pin {
    int64_t tid = -1;
    uint64_t seq = 0;
    std::shared_ptr<const tree::Tree> root;
  };

  /// Registry sinks; any pointer may be null. Set once, before the
  /// chain is shared (Engine::WireMetrics).
  struct Metrics {
    obs::Gauge* versions_live = nullptr;  ///< versions in the chain
    obs::Counter* versions_published = nullptr;
    obs::Counter* versions_gced = nullptr;
    obs::Counter* snapshot_rebuilds = nullptr;
    obs::Counter* snapshot_rebuild_rows = nullptr;
    obs::Counter* snapshot_refreshes = nullptr;  ///< O(1) session re-pins
  };
  void set_metrics(const Metrics& m) { metrics_ = m; }

  /// Publishes the committed state at `watermark_tid`. Called by the
  /// commit queue's leader with the exclusive latch held (state is
  /// stable), and by the session pool when it bootstraps the chain from a
  /// full materialization. Also garbage-collects the unpinned prefix.
  void Publish(int64_t watermark_tid, tree::Tree root) CPDB_EXCLUDES(mu_) {
    MutexLock l(mu_);
    if (!chain_.empty() && chain_.back().tid >= watermark_tid) return;
    Version v;
    v.tid = watermark_tid;
    v.seq = ++last_seq_;
    v.root = std::make_shared<const tree::Tree>(std::move(root));
    chain_.push_back(std::move(v));
    if (metrics_.versions_published) metrics_.versions_published->Inc();
    latest_tid_.store(watermark_tid, std::memory_order_release);
    CollectLocked();
  }

  /// Pins the newest version, O(1). Pin.seq == 0 if the chain is empty.
  Pin PinLatest() CPDB_EXCLUDES(mu_) {
    MutexLock l(mu_);
    if (chain_.empty()) return Pin{};
    Version& v = chain_.back();
    ++v.pins;
    return Pin{v.tid, v.seq, v.root};
  }

  /// Releases a pin taken by PinLatest; unblocks GC of the version once
  /// it is both unpinned and older than every remaining pin.
  void Unpin(const Pin& pin) CPDB_EXCLUDES(mu_) {
    if (pin.seq == 0) return;
    MutexLock l(mu_);
    for (Version& v : chain_) {
      if (v.seq == pin.seq) {
        --v.pins;
        break;
      }
    }
    CollectLocked();
  }

  /// Watermark of the newest published version, -1 when none. Readable
  /// without the lock (staleness checks on the session-acquire fast path).
  int64_t LatestTid() const {
    return latest_tid_.load(std::memory_order_acquire);
  }

  /// Accounting for the slow path: a full TreeFromDb materialization of
  /// `rows` nodes (chain bootstrap, or a target without cheap snapshots).
  void NoteRebuild(size_t rows) {
    if (metrics_.snapshot_rebuilds) metrics_.snapshot_rebuilds->Inc();
    if (metrics_.snapshot_rebuild_rows) {
      metrics_.snapshot_rebuild_rows->Inc(rows);
    }
  }

  /// Accounting for the fast path: an O(1) re-pin of a pooled session.
  void NoteRefresh() {
    if (metrics_.snapshot_refreshes) metrics_.snapshot_refreshes->Inc();
  }

 private:
  struct Version {
    int64_t tid = -1;
    uint64_t seq = 0;
    std::shared_ptr<const tree::Tree> root;
    size_t pins = 0;
  };

  /// Drops unpinned versions older than the oldest pin. The newest
  /// version is never dropped: it is the current committed state and the
  /// next session acquire pins it. Every chain change ends here, so this
  /// is where the live-versions gauge follows the chain.
  void CollectLocked() CPDB_REQUIRES(mu_) {
    while (chain_.size() > 1 && chain_.front().pins == 0) {
      chain_.pop_front();
      if (metrics_.versions_gced) metrics_.versions_gced->Inc();
    }
    if (metrics_.versions_live) {
      metrics_.versions_live->Set(static_cast<int64_t>(chain_.size()));
    }
  }

  Metrics metrics_;  ///< set once before the chain is shared
  Mutex mu_;
  std::deque<Version> chain_ CPDB_GUARDED_BY(mu_);
  uint64_t last_seq_ CPDB_GUARDED_BY(mu_) = 0;
  std::atomic<int64_t> latest_tid_{-1};
};

}  // namespace cpdb::service
