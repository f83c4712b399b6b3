// Cross-checks the optimized provenance machinery against the datalog
// specification of the paper's views (query/spec.h): the datalog text IS
// the ground truth.

#include <gtest/gtest.h>

#include "test_util.h"

namespace cpdb {
namespace {

using provenance::Strategy;
using tree::Path;

struct SpecFixture {
  std::unique_ptr<testutil::Session> session;
  datalog::Evaluator eval;
};

std::unique_ptr<SpecFixture> BuildFigure3Spec(Strategy strategy) {
  auto fx = std::make_unique<SpecFixture>();
  fx->session = testutil::MakeFigureSession(strategy);
  EXPECT_NE(fx->session, nullptr);
  Status st =
      fx->session->editor->ApplyScriptText(testutil::Figure3ScriptText());
  EXPECT_TRUE(st.ok()) << st;
  auto records =
      testutil::DrainAll(fx->session->editor->store()->backend()->ScanAll());
  EXPECT_TRUE(records.ok());
  auto* store = fx->session->editor->store();
  auto versions = fx->session->editor->archive()->MakeVersionFn();
  auto eval = query::BuildSpec(records.value(), store->FirstTid(),
                               store->LastCommittedTid(), versions);
  EXPECT_TRUE(eval.ok()) << eval.status();
  fx->eval = std::move(eval).value();
  EXPECT_TRUE(fx->eval.Evaluate().ok());
  return fx;
}

std::set<int64_t> TidSet(const std::set<datalog::Tuple>& rel,
                         const std::string& loc) {
  std::set<int64_t> out;
  for (const auto& t : rel) {
    if (t.size() == 2 && t[0] == loc) out.insert(std::stoll(t[1]));
  }
  return out;
}

TEST(SpecTest, DatalogProvExpansionMatchesNaiveStore) {
  // Expanding the hierarchical store's records through the datalog rules
  // yields the naive store's table.
  auto hier = BuildFigure3Spec(Strategy::kHierarchical);
  auto naive_session = testutil::MakeFigureSession(Strategy::kNaive);
  ASSERT_TRUE(naive_session->editor
                  ->ApplyScriptText(testutil::Figure3ScriptText())
                  .ok());
  auto naive =
      testutil::DrainAll(naive_session->editor->store()->backend()->ScanAll());
  ASSERT_TRUE(naive.ok());

  const auto& prov = hier->eval.Get("Prov");
  ASSERT_EQ(prov.size(), naive->size());
  for (const auto& r : *naive) {
    datalog::Tuple t = {std::to_string(r.tid),
                        std::string(1, provenance::ProvOpChar(r.op)),
                        r.loc.ToString(),
                        r.op == provenance::ProvOp::kCopy
                            ? r.src.ToString()
                            : "⊥"};
    EXPECT_TRUE(prov.count(t) > 0) << r.ToString();
  }
}

TEST(SpecTest, SrcQueryMatchesEngine) {
  for (Strategy strat : {Strategy::kNaive, Strategy::kHierarchical}) {
    auto fx = BuildFigure3Spec(strat);
    query::QueryEngine* q = fx->session->editor->query();
    const tree::Tree* target = fx->session->editor->TargetView();
    target->Visit([&](const Path& rel, const tree::Tree&) {
      if (rel.IsRoot()) return;
      Path p = Path({std::string("T")}).Concat(rel);
      auto engine_src = q->GetSrc(p);
      ASSERT_TRUE(engine_src.ok());
      std::set<int64_t> spec_src =
          TidSet(fx->eval.Get("SrcQ"), p.ToString());
      if (engine_src->has_value()) {
        EXPECT_EQ(spec_src, std::set<int64_t>{**engine_src})
            << p.ToString();
      } else {
        EXPECT_TRUE(spec_src.empty()) << p.ToString();
      }
    });
  }
}

TEST(SpecTest, HistQueryMatchesEngine) {
  for (Strategy strat : {Strategy::kNaive, Strategy::kHierarchical}) {
    auto fx = BuildFigure3Spec(strat);
    query::QueryEngine* q = fx->session->editor->query();
    const tree::Tree* target = fx->session->editor->TargetView();
    target->Visit([&](const Path& rel, const tree::Tree&) {
      if (rel.IsRoot()) return;
      Path p = Path({std::string("T")}).Concat(rel);
      auto engine_hist = q->GetHist(p);
      ASSERT_TRUE(engine_hist.ok());
      std::set<int64_t> engine_set(engine_hist->begin(),
                                   engine_hist->end());
      std::set<int64_t> spec_set =
          TidSet(fx->eval.Get("HistQ"), p.ToString());
      EXPECT_EQ(engine_set, spec_set) << p.ToString();
    });
  }
}

TEST(SpecTest, TraceIsReflexiveAndTransitive) {
  auto fx = BuildFigure3Spec(Strategy::kNaive);
  const auto& trace = fx->eval.Get("Trace");
  // Reflexivity at tnow for a surviving node.
  EXPECT_TRUE(fx->eval.Holds("Trace", {"T/c3", "130", "T/c3", "130"}));
  // The copy chain steps to the source at the prior version.
  EXPECT_TRUE(fx->eval.Holds("Trace", {"T/c3", "130", "S1/a3", "126"}));
  EXPECT_FALSE(trace.empty());
}

TEST(SpecTest, ModQuerySpecIsSubsetOfEngineAnswer) {
  // The spec's ModQ follows Trace (only data surviving to tnow), while
  // the engine's record-based GetMod also reports transactions whose
  // effects were later overwritten — a documented superset.
  auto fx = BuildFigure3Spec(Strategy::kNaive);
  query::QueryEngine* q = fx->session->editor->query();
  for (const char* loc : {"T/c2", "T/c3", "T/c4"}) {
    auto engine_mod = q->GetMod(Path::MustParse(loc));
    ASSERT_TRUE(engine_mod.ok());
    std::set<int64_t> engine_set(engine_mod->begin(), engine_mod->end());
    std::set<int64_t> spec_set = TidSet(fx->eval.Get("ModQ"), loc);
    for (int64_t u : spec_set) {
      EXPECT_TRUE(engine_set.count(u) > 0)
          << loc << " missing spec tid " << u;
    }
  }
}

}  // namespace
}  // namespace cpdb
