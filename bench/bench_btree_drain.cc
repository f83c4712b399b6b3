// Insert-then-drain probe for the relstore B+tree: N monotonic keys go
// in, invariants are checked, all N are erased again, invariants are
// re-checked. This is the workload that corrupted the pre-rebalance tree
// (dangling leaf-chain pointers at n=4000, an effectively unbounded hang
// at 20k); it doubles as the release-build acceptance gate (1M keys in
// well under 5s) and, under the asan preset, as the memory-safety probe.
//
// Flags: --n=<keys> (default 1000000), --mode=forward|reverse|random,
//        --bulk (build with one BulkUpsert into the empty tree instead
//        of per-key Insert),
//        --seed=<seed> (random mode shuffle),
//        --json=<path> (machine-readable report, harness schema).

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "harness.h"
#include "relstore/btree.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/sim_clock.h"

int main(int argc, char** argv) {
  using namespace cpdb;
  using relstore::BTree;
  using relstore::Datum;
  using relstore::Rid;
  using relstore::Row;

  Flags flags(argc, argv);
  const size_t n = static_cast<size_t>(flags.GetInt("n", 1000000));
  const std::string mode = flags.GetString("mode", "forward");
  const bool bulk = flags.GetBool("bulk", false);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path = flags.GetString("json", "");

  std::vector<int64_t> erase_order(n);
  std::iota(erase_order.begin(), erase_order.end(), 0);
  if (mode == "reverse") {
    std::reverse(erase_order.begin(), erase_order.end());
  } else if (mode == "random") {
    Rng rng(seed);
    rng.Shuffle(&erase_order);
  } else if (mode != "forward") {
    std::fprintf(stderr, "unknown --mode=%s\n", mode.c_str());
    return 1;
  }

  BTree bt;
  Stopwatch insert_sw;
  if (bulk) {
    std::vector<std::pair<Row, Rid>> items;
    items.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      items.emplace_back(Row{Datum(static_cast<int64_t>(i))}, Rid{0, 0});
    }
    bt.BulkUpsert(std::move(items));
  } else {
    for (size_t i = 0; i < n; ++i) {
      bt.Insert({Datum(static_cast<int64_t>(i))}, Rid{0, 0});
    }
  }
  double insert_ms = insert_sw.ElapsedMillis();
  if (bt.size() != n) {
    std::fprintf(stderr, "size after load: %zu != %zu\n", bt.size(), n);
    return 1;
  }
  bt.CheckInvariants();

  Stopwatch drain_sw;
  for (size_t i = 0; i < n; ++i) {
    if (!bt.Erase({Datum(erase_order[i])}, Rid{0, 0})) {
      std::fprintf(stderr, "erase miss at step %zu (key %lld)\n", i,
                   static_cast<long long>(erase_order[i]));
      return 1;
    }
  }
  double drain_ms = drain_sw.ElapsedMillis();
  if (!bt.empty()) {
    std::fprintf(stderr, "tree not empty after drain: %zu\n", bt.size());
    return 1;
  }
  bt.CheckInvariants();

  std::printf("btree drain probe: n=%zu mode=%s %s\n", n, mode.c_str(),
              bulk ? "bulk-load" : "insert");
  std::printf("  load  %10.1f ms  (%.0f keys/s)\n", insert_ms,
              insert_ms > 0 ? 1000.0 * n / insert_ms : 0.0);
  std::printf("  drain %10.1f ms  (%.0f keys/s)\n", drain_ms,
              drain_ms > 0 ? 1000.0 * n / drain_ms : 0.0);
  std::printf("  invariants OK before and after drain\n");

  bench::JsonReport report("btree_drain");
  report.config()
      .Set("n", n)
      .Set("mode", mode)
      .Set("bulk", bulk)
      .Set("seed", static_cast<int64_t>(seed));
  report.AddRow()
      .Set("load_ms", insert_ms)
      .Set("drain_ms", drain_ms)
      .Set("load_keys_per_s", insert_ms > 0 ? 1000.0 * n / insert_ms : 0.0)
      .Set("drain_keys_per_s", drain_ms > 0 ? 1000.0 * n / drain_ms : 0.0);
  if (!report.WriteTo(json_path)) return 1;
  return 0;
}
