#include "relstore/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace cpdb::relstore {
namespace {

Row K(const std::string& s) { return Row{Datum(s)}; }
Row K(int64_t i) { return Row{Datum(i)}; }

/// Every entry in (key, rid) order, walked with a cursor.
std::vector<std::pair<Row, Rid>> Entries(const BTree& bt) {
  std::vector<std::pair<Row, Rid>> out;
  for (BTree::Cursor cur = bt.SeekFirst(); cur.Valid(); cur.Advance()) {
    out.emplace_back(cur.key(), cur.rid());
  }
  return out;
}

/// (int key, rid slot) of every entry, in order.
std::vector<std::pair<int64_t, uint16_t>> IntEntries(const BTree& bt) {
  std::vector<std::pair<int64_t, uint16_t>> out;
  for (const auto& [key, rid] : Entries(bt)) {
    out.emplace_back(key[0].AsInt(), rid.slot);
  }
  return out;
}

/// Rids of the entries whose key equals `key`, in rid order.
std::vector<Rid> Lookup(const BTree& bt, const Row& key) {
  std::vector<Rid> out;
  for (BTree::Cursor cur = bt.Seek(key);
       cur.Valid() && !RowLess(key, cur.key()); cur.Advance()) {
    out.push_back(cur.rid());
  }
  return out;
}

TEST(BTreeTest, EmptyTree) {
  BTree bt;
  EXPECT_TRUE(bt.empty());
  EXPECT_EQ(bt.Height(), 1u);
  EXPECT_TRUE(Entries(bt).empty());
}

TEST(BTreeTest, InsertAndLookup) {
  BTree bt;
  bt.Insert(K("b"), Rid{0, 1});
  bt.Insert(K("a"), Rid{0, 2});
  bt.Insert(K("c"), Rid{0, 3});
  EXPECT_EQ(Lookup(bt, K("a")), (std::vector<Rid>{Rid{0, 2}}));
}

TEST(BTreeTest, DuplicateKeysAllSurface) {
  BTree bt;
  for (uint16_t i = 0; i < 10; ++i) bt.Insert(K("dup"), Rid{0, i});
  EXPECT_EQ(Lookup(bt, K("dup")).size(), 10u);
  // Exact duplicate (key, rid) pairs are idempotent.
  bt.Insert(K("dup"), Rid{0, 3});
  EXPECT_EQ(bt.size(), 10u);
}

TEST(BTreeTest, OrderedScan) {
  BTree bt;
  for (int i = 999; i >= 0; --i) {
    bt.Insert(K("k" + std::to_string(1000 + i)), Rid{0, 0});
  }
  std::vector<std::string> keys;
  for (const auto& [key, rid] : Entries(bt)) keys.push_back(key[0].AsString());
  ASSERT_EQ(keys.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_GT(bt.Height(), 1u);  // must actually have split
}

TEST(BTreeTest, ScanFromStartsAtLowerBound) {
  BTree bt;
  for (int i = 0; i < 100; ++i) {
    bt.Insert(K(int64_t{i * 2}), Rid{0, 0});  // even keys
  }
  std::vector<int64_t> seen;
  for (BTree::Cursor cur = bt.Seek(K(int64_t{51}));
       cur.Valid() && seen.size() < 3; cur.Advance()) {
    seen.push_back(cur.key()[0].AsInt());
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{52, 54, 56}));
}

TEST(BTreeTest, EraseRemovesSpecificEntry) {
  BTree bt;
  bt.Insert(K("a"), Rid{0, 1});
  bt.Insert(K("a"), Rid{0, 2});
  EXPECT_TRUE(bt.Erase(K("a"), Rid{0, 1}));
  EXPECT_FALSE(bt.Erase(K("a"), Rid{0, 1}));  // already gone
  EXPECT_EQ(Lookup(bt, K("a")), (std::vector<Rid>{Rid{0, 2}}));
}

// Property sweep: random interleaved inserts/erases stay consistent with
// a reference std::multimap across tree sizes.
class BTreeRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeRandomTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  BTree bt;
  std::set<std::pair<std::string, uint16_t>> model;

  for (int step = 0; step < 4000; ++step) {
    std::string key = "k" + std::to_string(rng.NextBelow(500));
    uint16_t rid_slot = static_cast<uint16_t>(rng.NextBelow(4));
    if (rng.NextBool(0.6)) {
      bt.Insert(K(key), Rid{0, rid_slot});
      model.emplace(key, rid_slot);
    } else {
      bool erased = bt.Erase(K(key), Rid{0, rid_slot});
      bool model_erased = model.erase({key, rid_slot}) > 0;
      ASSERT_EQ(erased, model_erased) << "step " << step << " key " << key;
    }
  }
  ASSERT_EQ(bt.size(), model.size());
  bt.CheckInvariants();

  // Full ordered scan equals the model's ordering.
  std::vector<std::pair<std::string, uint16_t>> scanned;
  for (const auto& [key, rid] : Entries(bt)) {
    scanned.emplace_back(key[0].AsString(), rid.slot);
  }
  std::vector<std::pair<std::string, uint16_t>> expected(model.begin(),
                                                         model.end());
  ASSERT_EQ(scanned, expected);

  // Point lookups agree on a sample of keys.
  for (int i = 0; i < 50; ++i) {
    std::string key = "k" + std::to_string(rng.NextBelow(500));
    std::set<uint16_t> got;
    for (const Rid& rid : Lookup(bt, K(key))) got.insert(rid.slot);
    std::set<uint16_t> want;
    for (uint16_t s = 0; s < 4; ++s) {
      if (model.count({key, s}) > 0) want.insert(s);
    }
    ASSERT_EQ(got, want) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Regression: the pre-rebalance erase path left dangling leaf-chain
// pointers and unbalanced internal nodes on exactly this workload — a
// monotonic fill followed by a full drain hung indefinitely at 20k keys
// (and segfaulted a standalone probe at 4k). Each drain order stresses a
// different rebalance direction: forward drains merge rightward, reverse
// drains merge leftward, and the shuffled drain mixes borrows and merges.
TEST(BTreeTest, LargeMonotonicInsertThenDrain) {
  BTree bt;
  for (int i = 0; i < 20000; ++i) {
    bt.Insert(K(int64_t{i}), Rid{0, 0});
  }
  EXPECT_EQ(bt.size(), 20000u);
  bt.CheckInvariants();
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(bt.Erase(K(int64_t{i}), Rid{0, 0})) << i;
    if (i % 4096 == 0) bt.CheckInvariants();
  }
  EXPECT_TRUE(bt.empty());
  bt.CheckInvariants();
}

TEST(BTreeTest, LargeReverseOrderDrain) {
  BTree bt;
  for (int i = 0; i < 20000; ++i) {
    bt.Insert(K(int64_t{i}), Rid{0, 0});
  }
  bt.CheckInvariants();
  for (int i = 19999; i >= 0; --i) {
    ASSERT_TRUE(bt.Erase(K(int64_t{i}), Rid{0, 0})) << i;
    if (i % 4096 == 0) bt.CheckInvariants();
  }
  EXPECT_TRUE(bt.empty());
  bt.CheckInvariants();
}

TEST(BTreeTest, LargeRandomOrderDrain) {
  BTree bt;
  std::vector<int64_t> keys(20000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  for (int64_t k : keys) bt.Insert(K(k), Rid{0, 0});
  bt.CheckInvariants();
  Rng rng(7);
  rng.Shuffle(&keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(bt.Erase(K(keys[i]), Rid{0, 0})) << keys[i];
    if (i % 4096 == 0) bt.CheckInvariants();
  }
  EXPECT_TRUE(bt.empty());
  bt.CheckInvariants();
}

TEST(BTreeTest, PartialDrainKeepsRemainderScannable) {
  BTree bt;
  for (int i = 0; i < 10000; ++i) bt.Insert(K(int64_t{i}), Rid{0, 0});
  for (int i = 0; i < 10000; i += 2) {
    ASSERT_TRUE(bt.Erase(K(int64_t{i}), Rid{0, 0}));
  }
  bt.CheckInvariants();
  int64_t expect = 1;
  for (const auto& entry : IntEntries(bt)) {
    EXPECT_EQ(entry.first, expect);
    expect += 2;
  }
  EXPECT_EQ(expect, 10001);
}

TEST(BTreeTest, BulkLoadMatchesIncremental) {
  // Unsorted input with exact (key, rid) duplicates: a bulk upsert into
  // the empty tree must sort, drop duplicates, and produce the same
  // contents as Insert would.
  std::vector<std::pair<Row, Rid>> items;
  for (int i = 9999; i >= 0; --i) {
    items.emplace_back(K(int64_t{i}), Rid{0, static_cast<uint16_t>(i % 3)});
  }
  items.emplace_back(K(int64_t{1234}), Rid{0, 1});  // duplicate of i=1234
  BTree incremental;
  for (const auto& [key, rid] : items) incremental.Insert(key, rid);
  BTree bt;
  EXPECT_EQ(bt.BulkUpsert(items), 10000u);
  EXPECT_EQ(bt.size(), 10000u);
  bt.CheckInvariants();
  EXPECT_GT(bt.Height(), 1u);
  EXPECT_EQ(Entries(bt), Entries(incremental));
  int64_t expect = 0;
  for (const auto& [key, slot] : IntEntries(bt)) {
    EXPECT_EQ(key, expect);
    EXPECT_EQ(slot, static_cast<uint16_t>(expect % 3));
    ++expect;
  }
  EXPECT_EQ(expect, 10000);
}

TEST(BTreeTest, BulkUpsertMergesIntoLiveTree) {
  // Seed a live tree, then upsert runs of every interesting size: empty,
  // small (per-key insert path), and large relative to the tree (the
  // leaf-chain merge-rebuild path). A multimap oracle checks contents.
  BTree bt;
  std::multimap<int64_t, uint16_t> oracle;
  for (int64_t i = 0; i < 3000; i += 3) {
    bt.Insert(K(i), Rid{0, 0});
    oracle.emplace(i, 0);
  }
  EXPECT_EQ(bt.BulkUpsert({}), 0u);
  bt.CheckInvariants();

  // Small run: a handful of new keys plus one exact duplicate.
  std::vector<std::pair<Row, Rid>> small;
  small.emplace_back(K(int64_t{1}), Rid{0, 0});
  small.emplace_back(K(int64_t{4}), Rid{0, 0});
  small.emplace_back(K(int64_t{0}), Rid{0, 0});  // already present
  EXPECT_EQ(bt.BulkUpsert(small), 2u);
  oracle.emplace(1, 0);
  oracle.emplace(4, 0);
  bt.CheckInvariants();

  // Large run (same order of magnitude as the tree): merge-rebuild path.
  std::vector<std::pair<Row, Rid>> large;
  for (int64_t i = 0; i < 3000; i += 3) {
    large.emplace_back(K(i + 2), Rid{0, 7});  // new keys
    large.emplace_back(K(i), Rid{0, 0});      // duplicates, all dropped
  }
  EXPECT_EQ(bt.BulkUpsert(large), 1000u);
  for (int64_t i = 0; i < 3000; i += 3) oracle.emplace(i + 2, 7);
  bt.CheckInvariants();

  EXPECT_EQ(bt.size(), oracle.size());
  EXPECT_EQ(IntEntries(bt),
            (std::vector<std::pair<int64_t, uint16_t>>(oracle.begin(),
                                                       oracle.end())));

  // The rebuilt tree still supports ordinary mutation.
  EXPECT_TRUE(bt.Erase(K(int64_t{4}), Rid{0, 0}));
  bt.Insert(K(int64_t{4}), Rid{0, 9});
  bt.CheckInvariants();
}

TEST(BTreeTest, BulkUpsertIntoEmptyTreeMatchesBulkLoad) {
  // Into an empty tree the run is bulk-loaded: leaves are packed full,
  // giving the minimum height. 65 full leaves fit under one root, where
  // per-key inserts leave half-full leaves and need another level.
  constexpr int kEntries = 64 * 65;
  std::vector<std::pair<Row, Rid>> items;
  for (int i = kEntries - 1; i >= 0; --i) {
    items.emplace_back(K(int64_t{i}), Rid{0, 0});
  }
  BTree upserted, inserted;
  for (const auto& [key, rid] : items) inserted.Insert(key, rid);
  EXPECT_EQ(upserted.BulkUpsert(items), static_cast<size_t>(kEntries));
  upserted.CheckInvariants();
  EXPECT_EQ(upserted.size(), inserted.size());
  EXPECT_EQ(upserted.Height(), 2u);
  EXPECT_GT(inserted.Height(), upserted.Height());
}

TEST(BTreeTest, BulkLoadEmptyAndTiny) {
  BTree empty;
  EXPECT_EQ(empty.BulkUpsert({}), 0u);
  EXPECT_TRUE(empty.empty());
  empty.CheckInvariants();

  BTree tiny;
  tiny.BulkUpsert({{K(int64_t{2}), Rid{0, 0}}, {K(int64_t{1}), Rid{0, 0}}});
  EXPECT_EQ(tiny.size(), 2u);
  EXPECT_EQ(tiny.Height(), 1u);
  tiny.CheckInvariants();
}

TEST(BTreeTest, BulkLoadThenMutate) {
  std::vector<std::pair<Row, Rid>> items;
  for (int i = 0; i < 5000; ++i) {
    items.emplace_back(K(int64_t{i * 2}), Rid{0, 0});  // even keys
  }
  BTree bt;
  bt.BulkUpsert(std::move(items));
  bt.CheckInvariants();
  // Inserting into fully packed leaves forces splits; erasing forces
  // borrows/merges against the packed layout.
  for (int i = 0; i < 5000; ++i) bt.Insert(K(int64_t{i * 2 + 1}), Rid{0, 0});
  bt.CheckInvariants();
  EXPECT_EQ(bt.size(), 10000u);
  for (int i = 0; i < 10000; i += 3) {
    ASSERT_TRUE(bt.Erase(K(int64_t{i}), Rid{0, 0}));
  }
  bt.CheckInvariants();
}

// Satellite property test: ≥100k interleaved Insert/Erase/Seek-scan/
// lookup calls checked against a std::multimap oracle. The multimap
// orders duplicates by insertion, the tree by rid, so per-key slot sets
// are compared as sorted vectors.
TEST(BTreeTest, MultimapOracleHundredThousandOps) {
  Rng rng(20060612);  // fixed seed: SIGMOD 2006 paper date
  BTree bt;
  std::multimap<int64_t, uint16_t> oracle;
  constexpr int kOps = 120000;
  constexpr int64_t kKeySpace = 3000;
  constexpr uint16_t kSlots = 6;

  auto oracle_slots = [&](int64_t key) {
    std::vector<uint16_t> slots;
    auto [lo, hi] = oracle.equal_range(key);
    for (auto it = lo; it != hi; ++it) slots.push_back(it->second);
    std::sort(slots.begin(), slots.end());
    return slots;
  };

  for (int step = 0; step < kOps; ++step) {
    int64_t key = static_cast<int64_t>(rng.NextBelow(kKeySpace));
    uint16_t slot = static_cast<uint16_t>(rng.NextBelow(kSlots));
    double dice = rng.NextDouble();
    if (dice < 0.50) {
      bt.Insert(K(key), Rid{0, slot});
      std::vector<uint16_t> present = oracle_slots(key);
      if (std::find(present.begin(), present.end(), slot) == present.end()) {
        oracle.emplace(key, slot);
      }
    } else if (dice < 0.90) {
      bool erased = bt.Erase(K(key), Rid{0, slot});
      bool oracle_erased = false;
      auto [lo, hi] = oracle.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == slot) {
          oracle.erase(it);
          oracle_erased = true;
          break;
        }
      }
      ASSERT_EQ(erased, oracle_erased) << "step " << step << " key " << key;
    } else if (dice < 0.95) {
      std::vector<uint16_t> got;
      for (const Rid& rid : Lookup(bt, K(key))) got.push_back(rid.slot);
      ASSERT_EQ(got, oracle_slots(key)) << "step " << step << " key " << key;
    } else {
      // Bounded ordered scan from a random lower bound.
      std::vector<std::pair<int64_t, uint16_t>> got;
      for (BTree::Cursor cur = bt.Seek(K(key));
           cur.Valid() && got.size() < 64; cur.Advance()) {
        got.emplace_back(cur.key()[0].AsInt(), cur.rid().slot);
      }
      std::vector<std::pair<int64_t, uint16_t>> want;
      for (auto it = oracle.lower_bound(key);
           it != oracle.end() && want.size() < 64;) {
        // Consume one key's slots in rid order, as the tree emits them.
        int64_t k = it->first;
        std::vector<uint16_t> slots;
        for (; it != oracle.end() && it->first == k; ++it) {
          slots.push_back(it->second);
        }
        std::sort(slots.begin(), slots.end());
        for (uint16_t s : slots) {
          if (want.size() < 64) want.emplace_back(k, s);
        }
      }
      ASSERT_EQ(got, want) << "step " << step << " lo " << key;
    }
    if (step % 10000 == 0) {
      bt.CheckInvariants();
      ASSERT_EQ(bt.size(), oracle.size()) << "step " << step;
    }
  }
  bt.CheckInvariants();
  ASSERT_EQ(bt.size(), oracle.size());

  // Final full-scan agreement.
  std::vector<std::pair<int64_t, uint16_t>> scanned = IntEntries(bt);
  std::vector<std::pair<int64_t, uint16_t>> expected;
  for (auto it = oracle.begin(); it != oracle.end();) {
    int64_t k = it->first;
    std::vector<uint16_t> slots;
    for (; it != oracle.end() && it->first == k; ++it) {
      slots.push_back(it->second);
    }
    std::sort(slots.begin(), slots.end());
    for (uint16_t s : slots) expected.emplace_back(k, s);
  }
  ASSERT_EQ(scanned, expected);
}

// Keys shaped like the provenance table's two indexes: pk_tid_loc is
// (int tid, string loc), idx_loc_tid is (string loc, int tid). The oracle
// orders entries as the tree did before its three-way comparison: the key
// lexicographically by Datum::operator<, then the rid.
struct OracleLess {
  bool operator()(const std::pair<Row, Rid>& a,
                  const std::pair<Row, Rid>& b) const {
    const Row& ka = a.first;
    const Row& kb = b.first;
    if (std::lexicographical_compare(ka.begin(), ka.end(), kb.begin(),
                                     kb.end())) {
      return true;
    }
    if (std::lexicographical_compare(kb.begin(), kb.end(), ka.begin(),
                                     ka.end())) {
      return false;
    }
    return a.second < b.second;
  }
};
using CompositeOracle = std::set<std::pair<Row, Rid>, OracleLess>;

/// The oracle's entries from the first one >= (lo, 0:0) while `same`
/// holds for their key, in order.
std::vector<std::pair<Row, Rid>> OracleRun(
    const CompositeOracle& oracle, const Row& lo,
    const std::function<bool(const Row&)>& same) {
  std::vector<std::pair<Row, Rid>> out;
  for (auto it = oracle.lower_bound({lo, Rid{0, 0}});
       it != oracle.end() && same(it->first); ++it) {
    out.push_back(*it);
  }
  return out;
}

/// The tree's entries from Seek(lo) while `same` holds for their key.
std::vector<std::pair<Row, Rid>> SeekRun(
    const BTree& bt, const Row& lo,
    const std::function<bool(const Row&)>& same) {
  std::vector<std::pair<Row, Rid>> out;
  for (BTree::Cursor cur = bt.Seek(lo); cur.Valid() && same(cur.key());
       cur.Advance()) {
    out.emplace_back(cur.key(), cur.rid());
  }
  return out;
}

TEST(BTreeTest, CompositeKeyOracle) {
  for (const bool loc_first : {false, true}) {
    SCOPED_TRACE(loc_first ? "idx_loc_tid" : "pk_tid_loc");
    Rng rng(loc_first ? 4 : 3);
    BTree bt;
    CompositeOracle oracle;

    // 120 tids x 40 locations, some of them prefixes of others, and rids
    // over eight pages: collisions give duplicate keys under other rids.
    auto random_entry = [&]() -> std::pair<Row, Rid> {
      const Datum tid(static_cast<int64_t>(rng.NextBelow(120)));
      std::string loc = "T/c" + std::to_string(rng.NextBelow(20));
      if (rng.NextBool(0.5)) loc += "/f";
      const Datum loc_datum(loc);
      const Rid rid{static_cast<uint32_t>(rng.NextBelow(8)),
                    static_cast<uint16_t>(rng.NextBelow(6))};
      return {loc_first ? Row{loc_datum, tid} : Row{tid, loc_datum}, rid};
    };
    // Half the time an entry already stored, so erases hit.
    auto pick_entry = [&]() -> std::pair<Row, Rid> {
      if (oracle.empty() || rng.NextBool(0.5)) return random_entry();
      auto it = oracle.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.NextIndex(oracle.size())));
      return *it;
    };
    auto bulk = [&](size_t n) {
      std::vector<std::pair<Row, Rid>> run;
      size_t fresh = 0;
      CompositeOracle staged;
      for (size_t i = 0; i < n; ++i) {
        run.push_back(pick_entry());
        if (oracle.count(run.back()) == 0 && staged.insert(run.back()).second) {
          ++fresh;
        }
      }
      EXPECT_EQ(bt.BulkUpsert(run), fresh);
      oracle.insert(run.begin(), run.end());
    };
    auto mixed = [&](int ops, double insert_share) {
      for (int i = 0; i < ops; ++i) {
        auto [key, rid] = pick_entry();
        if (rng.NextBool(insert_share)) {
          oracle.emplace(key, rid);
          bt.Insert(std::move(key), rid);
        } else {
          ASSERT_EQ(bt.Erase(key, rid), oracle.erase({key, rid}) > 0)
              << RowToString(key) << " " << rid.ToString();
        }
      }
    };
    auto verify = [&](const char* phase) {
      SCOPED_TRACE(phase);
      bt.CheckInvariants();
      ASSERT_EQ(bt.size(), oracle.size());
      ASSERT_EQ(Entries(bt), (std::vector<std::pair<Row, Rid>>(
                                 oracle.begin(), oracle.end())));
      for (int i = 0; i < 200; ++i) {
        const Row key = pick_entry().first;
        // A full key: its run of rids.
        auto same_key = [&key](const Row& k) {
          return CompareRows(k, key) == 0;
        };
        ASSERT_EQ(SeekRun(bt, key, same_key), OracleRun(oracle, key, same_key))
            << RowToString(key);
        // A one-column prefix: every entry that starts with it.
        const Row prefix{key[0]};
        auto same_first = [&prefix](const Row& k) {
          return k[0] == prefix[0];
        };
        ASSERT_EQ(SeekRun(bt, prefix, same_first),
                  OracleRun(oracle, prefix, same_first))
            << RowToString(prefix);
        // Where Seek lands, whatever follows.
        BTree::Cursor cur = bt.Seek(key);
        auto want = oracle.lower_bound({key, Rid{0, 0}});
        ASSERT_EQ(cur.Valid(), want != oracle.end()) << RowToString(key);
        if (cur.Valid()) {
          ASSERT_EQ(std::make_pair(cur.key(), cur.rid()), *want);
        }
      }
    };

    bulk(600);  // into the empty tree: packed leaves
    verify("bulk load");
    mixed(5000, 0.65);
    verify("inserts and erases");
    bulk(40);  // small against the tree: per-key descents
    verify("small run");
    bulk(4000);  // large against the tree: merge and rebuild
    verify("large run");
    mixed(9000, 0.25);  // mostly erases: borrows and merges
    verify("drain");
  }
}

// ----- Cursors ---------------------------------------------------------------

TEST(BTreeCursorTest, EmptyTreeYieldsInvalidCursors) {
  BTree bt;
  EXPECT_FALSE(bt.SeekFirst().Valid());
  EXPECT_FALSE(bt.Seek(K("a")).Valid());
}

TEST(BTreeCursorTest, FullTraversalMatchesSortedOracle) {
  BTree bt;
  std::set<std::pair<int64_t, uint16_t>> oracle;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const int64_t key = static_cast<int64_t>(rng.NextIndex(2000));
    bt.Insert(K(key), Rid{0, static_cast<uint16_t>(i)});
    oracle.emplace(key, static_cast<uint16_t>(i));
  }
  std::vector<std::pair<int64_t, uint16_t>> walked;
  for (BTree::Cursor cur = bt.SeekFirst(); cur.Valid(); cur.Advance()) {
    walked.emplace_back(cur.key()[0].AsInt(), cur.rid().slot);
  }
  EXPECT_EQ(walked, (std::vector<std::pair<int64_t, uint16_t>>(
                        oracle.begin(), oracle.end())));
  EXPECT_EQ(walked.size(), bt.size());
}

TEST(BTreeCursorTest, SeekLandsOnFirstEntryAtOrAboveKey) {
  BTree bt;
  for (int64_t i = 0; i < 1000; i += 2) {  // even keys only
    bt.Insert(K(i), Rid{0, 0});
  }
  // Present key.
  BTree::Cursor cur = bt.Seek(K(int64_t{40}));
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.key()[0].AsInt(), 40);
  // Absent key lands on the next larger one, possibly in a later leaf.
  cur = bt.Seek(K(int64_t{41}));
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.key()[0].AsInt(), 42);
  // Past the end.
  EXPECT_FALSE(bt.Seek(K(int64_t{999})).Valid());
}

TEST(BTreeCursorTest, AdvanceCrossesLeafBoundaries) {
  BTree bt;
  const int64_t n = 3000;  // several leaves at fanout 64
  for (int64_t i = 0; i < n; ++i) bt.Insert(K(i), Rid{0, 0});
  ASSERT_GT(bt.Height(), 1u);
  int64_t expect = 0;
  for (BTree::Cursor cur = bt.SeekFirst(); cur.Valid(); cur.Advance()) {
    ASSERT_EQ(cur.key()[0].AsInt(), expect);
    ++expect;
  }
  EXPECT_EQ(expect, n);
}


TEST(BTreeTest, SeekLastFindsMaximumEntry) {
  BTree bt;
  EXPECT_FALSE(bt.SeekLast().Valid());  // empty tree
  for (int i = 0; i < 2000; ++i) {
    bt.Insert({Datum(int64_t{i})}, {0, static_cast<uint16_t>(i % 100)});
  }
  BTree::Cursor last = bt.SeekLast();
  ASSERT_TRUE(last.Valid());
  EXPECT_EQ(last.key()[0].AsInt(), 1999);
  last.Advance();
  EXPECT_FALSE(last.Valid());  // nothing past the maximum
  // Stays correct after deletions rebalance the rightmost edge.
  for (int i = 1999; i > 1990; --i) {
    EXPECT_TRUE(bt.Erase({Datum(int64_t{i})}, {0, static_cast<uint16_t>(i % 100)}));
  }
  EXPECT_EQ(bt.SeekLast().key()[0].AsInt(), 1990);
  bt.CheckInvariants();
}

}  // namespace
}  // namespace cpdb::relstore
