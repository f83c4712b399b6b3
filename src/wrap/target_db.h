#pragma once

#include <functional>
#include <string>
#include <vector>

#include "relstore/cost_model.h"
#include "tree/tree.h"
#include "update/update.h"
#include "util/mutex.h"
#include "util/result.h"

namespace cpdb::wrap {

using cpdb::Mutex;
using cpdb::MutexLock;

/// One update of a committed transaction, ready for the native store:
/// paths already rebased to the target's root, and for copies the
/// materialised subtree (borrowed; must outlive the write it is replayed
/// by), because the native store cannot see the editor's universe.
struct NativeOp {
  update::Update update;
  const tree::Tree* pasted = nullptr;
};

/// A transaction's checked replay: running it stores the native writes
/// TargetDb::Prepare checked, and charges their one modelled round trip.
using NativeWrite = std::function<Status()>;

/// Wrapper a target database must implement (paper Figure 6): initial
/// tree view plus the update methods addNode / deleteNode / pasteNode,
/// here unified as Prepare over update-language ops since the three
/// update verbs map 1:1 onto the atomic update language.
///
/// The editor keeps the authoritative universe tree; each sealed unit's
/// updates are mirrored into the native store so it stays in sync, and
/// charge the target's interaction cost (the dominant "dataset update"
/// time of Figure 9 — Timber-over-SOAP in the paper). Prepare is the
/// only native write call, in two steps: it checks the whole unit before
/// the editor writes its provenance, and the NativeWrite it returns
/// stores the unit after. A T/HT transaction arrives as one batch at
/// Commit(), an N/H script as one batch, and a single N/H update as a
/// batch of one. Wrappers charge each write as ONE modelled client call
/// carrying all its rows — the write-side analogue of the cursor read
/// API's one-round-trip-per-batch contract.
class TargetDb {
 public:
  virtual ~TargetDb() = default;

  /// The label under which the target mounts in the universe (e.g. "T").
  virtual const std::string& name() const = 0;

  /// The committed content as a fully-keyed tree view: an editor's
  /// initial target, and the service pool's snapshot at each committed
  /// watermark. The rows it ships are charged to cost(), so a scanning
  /// wrapper's snapshot is counted and a copy-on-write one is free.
  virtual Result<tree::Tree> TreeFromDb() = 0;

  /// Checks a whole transaction's updates, in order, and returns the
  /// write that stores them in one modelled round trip. Each op's paths
  /// are relative to this database's root (the mount label stripped), and
  /// a copy carries its materialised subtree. `ops` must be a replay of
  /// updates already validated against the editor's universe, and must
  /// outlive the write. Nothing is written or charged before the write
  /// runs, so an op the store refuses fails the whole transaction here.
  virtual Result<NativeWrite> Prepare(const std::vector<NativeOp>& ops) = 0;

  /// Durability barrier, called by the editor once per committed
  /// transaction after the transaction's native writes. Wrappers over a
  /// durable store override this to group-commit (RelationalTargetDb
  /// forwards to Database::Sync); the default is the in-memory no-op, so
  /// existing wrappers stay correct unmodified.
  virtual Status Sync() { return Status::OK(); }

  /// Accumulated simulated interaction cost.
  virtual relstore::CostModel& cost() = 0;
};

/// A native tree/XML target database — the stand-in for MiMI-on-Timber.
/// Content mirrors the editor's universe, which staging already checked
/// under the same tree semantics, so Prepare checks nothing more; its
/// write re-applies the updates locally and charges one round trip per
/// batch plus per-node costs for pastes.
class TreeTargetDb : public TargetDb {
 public:
  TreeTargetDb(std::string name, tree::Tree initial,
               relstore::CostParams cost_params = DefaultTargetCost())
      : name_(std::move(name)),
        content_(std::move(initial)),
        cost_(cost_params) {}

  /// Target-database interaction dominates per-op time in the paper
  /// (hundreds of ms against Timber via SOAP); scaled down ~1000x like
  /// the provenance-store costs so that ratios are preserved.
  static relstore::CostParams DefaultTargetCost() {
    relstore::CostParams p;
    p.roundtrip_us = 400.0;
    p.per_row_us = 10.0;
    return p;
  }

  const std::string& name() const override { return name_; }
  /// O(1): a copy-on-write clone sharing every node with the live content
  /// (tree::Tree structural sharing), so snapshotting never copies data.
  Result<tree::Tree> TreeFromDb() override { return content_.Clone(); }
  /// A write that applies every update, charging one round trip for the
  /// whole batch (rows = total nodes moved) instead of one per op.
  Result<NativeWrite> Prepare(const std::vector<NativeOp>& ops) override;
  relstore::CostModel& cost() override { return cost_; }

  const tree::Tree& content() const { return content_; }

 private:
  /// One update's mechanics, with no cost charged.
  Status ApplyOne(const update::Update& u, const tree::Tree* copied_subtree,
                  size_t* rows);

  std::string name_;
  tree::Tree content_;
  relstore::CostModel cost_;
  /// Serializes cost charges across concurrent writes. The engine's
  /// exclusive latch already runs them one at a time; the lock keeps the
  /// (not thread-safe) CostModel safe without relying on that.
  Mutex cost_mu_;
};

}  // namespace cpdb::wrap
