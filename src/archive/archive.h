#pragma once

#include <map>
#include <memory>
#include <vector>

#include "provenance/inference.h"
#include "tree/tree.h"
#include "update/update.h"
#include "util/result.h"

namespace cpdb::archive {

/// Checkpointed version archive of the curated database.
///
/// The paper (Section 5) argues that archiving and provenance are
/// complementary: the archive preserves *what* each version contained,
/// provenance preserves *how* it changed. This archive stores the update
/// script of each transaction plus periodic full snapshots, reconstructing
/// any version by replaying scripts forward from the nearest checkpoint —
/// the delta-based design of Buneman et al.'s "Archiving scientific data"
/// that the paper builds on.
///
/// Version numbering matches provenance tids: version t is the state
/// *after* transaction t; `base_version` (= first tid - 1) is the initial
/// state.
class VersionArchive {
 public:
  struct Options {
    /// A full snapshot is stored every this many versions (plus the base).
    size_t checkpoint_every = 64;
  };

  /// Starts the archive with the initial database state.
  VersionArchive(int64_t base_version, tree::Tree initial, Options options);
  VersionArchive(int64_t base_version, tree::Tree initial)
      : VersionArchive(base_version, std::move(initial), Options{}) {}

  /// Records a run of consecutive versions: transaction `first_tid + i`
  /// applied `scripts[i]`. The run must start right after the last
  /// recorded version and hold at least one script. `post` is the
  /// universe after the run's last transaction; it is snapshotted as that
  /// version's checkpoint once `checkpoint_every` versions have passed
  /// since the previous checkpoint. A T/HT commit records a run of one;
  /// an N/H script, committed one tid per op, records its ops as one run.
  Status Record(int64_t first_tid, std::vector<update::Script> scripts,
                const tree::Tree& post);

  /// Reconstructs the universe as of (the end of) version `tid`.
  Result<tree::Tree> GetVersion(int64_t tid) const;

  /// The update script of one transaction.
  Result<const update::Script*> GetScript(int64_t tid) const;

  int64_t base_version() const { return base_version_; }
  int64_t last_version() const { return last_version_; }

  /// Number of full snapshots currently held.
  size_t CheckpointCount() const { return checkpoints_.size(); }

  /// A VersionFn (see provenance/inference.h) backed by this archive with
  /// a one-version memo, suited to the sequential access pattern of trace
  /// walks. The returned callable keeps state in the archive adapter and
  /// must not outlive it.
  provenance::VersionFn MakeVersionFn() const;

 private:
  Options options_;
  int64_t base_version_;
  int64_t last_version_;
  std::map<int64_t, tree::Tree> checkpoints_;
  std::map<int64_t, update::Script> scripts_;

  // Two-slot memo: expansion and trace walks need the pre- and post-state
  // of one transaction alive simultaneously.
  struct Memo {
    int64_t version[2] = {INT64_MIN, INT64_MIN};
    tree::Tree tree[2];
    int next_slot = 0;
  };
  mutable std::shared_ptr<Memo> memo_ = std::make_shared<Memo>();
};

}  // namespace cpdb::archive
