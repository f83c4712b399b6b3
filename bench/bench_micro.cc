// Micro-benchmarks (google-benchmark) for the substrate layers: tree
// operations, update application, B+tree and table throughput, datalog
// evaluation, and provenance tracking throughput per strategy.

#include <benchmark/benchmark.h>

#include "cpdb/cpdb.h"
#include "datalog/parser.h"

namespace {

using namespace cpdb;

void BM_TreeFind(benchmark::State& state) {
  tree::Tree t = workload::GenMimiLike(static_cast<size_t>(state.range(0)),
                                       1);
  tree::Path p = tree::Path::MustParse("prot1/interactions/i1/partner");
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Find(p));
  }
}
BENCHMARK(BM_TreeFind)->Arg(100)->Arg(1000);

void BM_TreeClone(benchmark::State& state) {
  tree::Tree t = workload::GenMimiLike(static_cast<size_t>(state.range(0)),
                                       1);
  for (auto _ : state) {
    tree::Tree c = t.Clone();
    benchmark::DoNotOptimize(&c);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.NodeCount()));
}
BENCHMARK(BM_TreeClone)->Arg(100)->Arg(1000);

void BM_ApplyCopy(benchmark::State& state) {
  tree::Tree universe;
  (void)universe.AddChild("T", workload::GenMimiLike(100, 1));
  (void)universe.AddChild("S1", workload::GenOrganelleLike(100, 2));
  size_t i = 0;
  for (auto _ : state) {
    update::Update u = update::Update::Copy(
        tree::Path::MustParse("S1/o" + std::to_string(1 + i % 100)),
        tree::Path::MustParse("T/c" + std::to_string(i)));
    ++i;
    update::ApplyEffect effect;
    benchmark::DoNotOptimize(update::Apply(&universe, u, &effect));
  }
}
BENCHMARK(BM_ApplyCopy);

void BM_BTreeInsert(benchmark::State& state) {
  size_t i = 0;
  relstore::BTree bt;
  for (auto _ : state) {
    bt.Insert({relstore::Datum(static_cast<int64_t>(i++))},
              relstore::Rid{0, 0});
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BTreeInsert);

// Bulk load: one BulkUpsert into an empty tree packs it into full leaves.
void BM_BTreeBulkLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::pair<relstore::Row, relstore::Rid>> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    items.emplace_back(
        relstore::Row{relstore::Datum(static_cast<int64_t>(i))},
        relstore::Rid{static_cast<uint32_t>(i / 64),
                      static_cast<uint16_t>(i % 64)});
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto batch = items;  // BulkUpsert consumes its argument
    auto bt = std::make_unique<relstore::BTree>();
    state.ResumeTiming();
    bt->BulkUpsert(std::move(batch));
    benchmark::DoNotOptimize(bt->size());
    state.PauseTiming();
    bt.reset();  // teardown untimed
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BTreeBulkLoad)->Arg(10000)->Arg(100000);

// Read descent: a Seek into 14000 idx_loc_tid-shaped (loc, tid) keys with
// a one-column loc probe, as a provenance Loc lookup makes, then a walk of
// the location's four entries along the leaf chain.
void BM_BTreeSeek(benchmark::State& state) {
  constexpr int64_t kKeys = 14000;
  constexpr int64_t kLocs = 3500;
  std::vector<std::pair<relstore::Row, relstore::Rid>> items;
  items.reserve(kKeys);
  for (int64_t i = 0; i < kKeys; ++i) {
    items.emplace_back(
        relstore::Row{relstore::Datum("T/c" + std::to_string(i % kLocs)),
                      relstore::Datum(i)},
        relstore::Rid{static_cast<uint32_t>(i / 64),
                      static_cast<uint16_t>(i % 64)});
  }
  relstore::BTree bt;
  bt.BulkUpsert(std::move(items));
  std::vector<relstore::Row> probes;
  probes.reserve(kLocs);
  for (int64_t j = 0; j < kLocs; ++j) {
    // 1543 is coprime to kLocs: every location once, in scattered order.
    probes.push_back(
        {relstore::Datum("T/c" + std::to_string(j * 1543 % kLocs))});
  }
  size_t i = 0;
  for (auto _ : state) {
    relstore::BTree::Cursor cur = bt.Seek(probes[i++ % probes.size()]);
    for (int step = 0; step < 4 && cur.Valid(); ++step, cur.Advance()) {
      benchmark::DoNotOptimize(cur.rid());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BTreeSeek);

void BM_TableBulkLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto db = std::make_unique<relstore::Database>("bulkdb");
    state.ResumeTiming();
    auto filled = workload::FillOrganelleRelational(db.get(), n, /*seed=*/1);
    if (!filled.ok()) {
      state.SkipWithError(filled.status().ToString().c_str());
      break;
    }
    state.PauseTiming();
    db.reset();  // teardown of n rows + indexes stays untimed
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TableBulkLoad)->Arg(3000)->Arg(14000);

void BM_TableInsertIndexed(benchmark::State& state) {
  relstore::Schema schema({{"Tid", relstore::ColumnType::kInt64, false},
                           {"Op", relstore::ColumnType::kString, false},
                           {"Loc", relstore::ColumnType::kString, false},
                           {"Src", relstore::ColumnType::kString, true}});
  relstore::Table table("Prov", schema);
  // ProvBackend's two indexes.
  (void)table.CreateIndex("pk_tid_loc", {0, 2}, /*unique=*/true);
  (void)table.CreateIndex("idx_loc_tid", {2, 0});
  int64_t i = 0;
  for (auto _ : state) {
    (void)table.Insert({relstore::Datum(i), relstore::Datum("C"),
                        relstore::Datum("T/n" + std::to_string(i)),
                        relstore::Datum("S/x")});
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TableInsertIndexed);

void BM_DatalogTransitiveClosure(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    datalog::Evaluator eval;
    for (int i = 0; i < n; ++i) {
      eval.AddFact("Edge", {"v" + std::to_string(i),
                            "v" + std::to_string(i + 1)});
    }
    auto rules = datalog::ParseProgram(
        "Path(X, Y) :- Edge(X, Y)."
        "Path(X, Z) :- Path(X, Y), Edge(Y, Z).");
    for (auto& r : rules.value()) (void)eval.AddRule(std::move(r));
    (void)eval.Evaluate();
    benchmark::DoNotOptimize(eval.Get("Path").size());
  }
}
BENCHMARK(BM_DatalogTransitiveClosure)->Arg(20)->Arg(60);

void TrackingThroughput(benchmark::State& state,
                        provenance::Strategy strategy) {
  for (auto _ : state) {
    state.PauseTiming();
    relstore::Database prov_db("provdb");
    provenance::ProvBackend backend(&prov_db);
    wrap::TreeTargetDb target("T", workload::GenMimiLike(200, 1));
    wrap::TreeSourceDb source("S1", workload::GenOrganelleLike(400, 2));
    EditorOptions opts;
    opts.strategy = strategy;
    auto editor = Editor::Create(&target, &backend, opts);
    (void)(*editor)->MountSource(&source);
    workload::GenOptions gen_opts;
    gen_opts.pattern = workload::Pattern::kMix;
    workload::UpdateGenerator gen(&(*editor)->universe(), gen_opts);
    state.ResumeTiming();

    for (int i = 0; i < 500; ++i) {
      auto u = gen.Next();
      if (!u.has_value()) break;
      if (!(*editor)->ApplyUpdate(*u).ok()) continue;
      update::ApplyEffect effect;
      if (u->kind == update::OpKind::kInsert) {
        effect.inserted.push_back(u->AffectedPath());
      } else if (u->kind == update::OpKind::kCopy) {
        const tree::Tree* pasted = (*editor)->universe().Find(u->target);
        if (pasted != nullptr) {
          pasted->Visit([&](const tree::Path& rel, const tree::Tree&) {
            effect.copied.emplace_back(u->target.Concat(rel),
                                       u->source.Concat(rel));
          });
        }
      }
      gen.OnApplied(*u, effect);
      if (i % 5 == 4) (void)(*editor)->Commit();
    }
    (void)(*editor)->Commit();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 500);
}

void BM_TrackNaive(benchmark::State& state) {
  TrackingThroughput(state, provenance::Strategy::kNaive);
}
void BM_TrackHT(benchmark::State& state) {
  TrackingThroughput(state,
                     provenance::Strategy::kHierarchicalTransactional);
}
BENCHMARK(BM_TrackNaive)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrackHT)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
