// TSan stress for SessionPool's reuse, refresh and build paths: threads
// acquire, commit (advancing the committed watermark so every pooled
// session goes stale), read under a shared grant, and release — racing
// the pool's freelist, the serialized build-and-snapshot path with its
// cached snapshot, and the engine's watermark all at once. Under the
// `tsan` preset (label: concurrency) this is the data-race probe for the
// annotated pool internals; in a plain build it still checks the pool's
// conservation law: every Acquire is counted as exactly one reuse or one
// build.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace cpdb {
namespace {

using service::Engine;
using service::SessionPool;
using tree::Path;
using update::Update;

TEST(SessionPoolStressTest, ReuseVsRebuildUnderChurn) {
  relstore::Database prov_db("provdb");
  provenance::ProvBackend backend(&prov_db);
  wrap::TreeTargetDb target("T", testutil::Figure4TargetT());
  Engine engine(&backend, &target);
  service::SessionOptions opts;
  opts.strategy = provenance::Strategy::kHierarchicalTransactional;
  SessionPool pool(&engine, opts);

  constexpr int kThreads = 8;
  constexpr int kRounds = 30;
  // gtest assertions are not thread-safe; workers count failures and the
  // main thread asserts once after the join.
  std::atomic<size_t> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        auto session = pool.Acquire();
        if (!session.ok()) {
          ++failures;
          continue;
        }
        if ((t + r) % 3 == 0) {
          // Writer round: one committed insert. The commit advances the
          // watermark, so every session parked in the pool is now stale
          // and the next Acquire on any thread refreshes it from a new
          // snapshot.
          std::string name =
              "t" + std::to_string(t) + "_r" + std::to_string(r);
          if (!(*session)->Apply(Update::Insert(Path::MustParse("T"), name))
                   .ok() ||
              !(*session)->Commit().ok()) {
            ++failures;
          }
        } else {
          // Reader round: a batch of queries under one shared grant,
          // drained before the grant drops (the session contract).
          auto g = (*session)->ReadLock();
          auto rows = testutil::DrainAll(
              (*session)->backend()->ScanUnder(Path::MustParse("T")));
          if (!rows.ok()) ++failures;
        }
        pool.Release(std::move(*session));
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(failures.load(), 0u);
  // Conservation: every Acquire was exactly one reuse or one build.
  auto count = [&engine](const char* name) {
    return engine.metrics().GetCounter(name, "")->Value();
  };
  const uint64_t built = count("cpdb_sessions_built_total");
  EXPECT_EQ(built + count("cpdb_sessions_reused_total"),
            static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_GE(built, 1u);
  // The committed inserts all landed in the shared state.
  auto final_session = pool.Acquire();
  ASSERT_TRUE(final_session.ok());
  size_t committed_children = 0;
  {
    auto g = (*final_session)->ReadLock();
    const tree::Tree* t_root =
        (*final_session)->editor()->universe().Find(Path::MustParse("T"));
    ASSERT_NE(t_root, nullptr);
    for (const auto& child : t_root->children()) {
      if (child.first.rfind("t", 0) == 0) ++committed_children;
    }
  }
  size_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRounds; ++r) {
      if ((t + r) % 3 == 0) ++expected;
    }
  }
  EXPECT_EQ(committed_children, expected);
  pool.Release(std::move(*final_session));
}

}  // namespace
}  // namespace cpdb
