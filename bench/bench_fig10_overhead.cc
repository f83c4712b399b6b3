// Figure 10: provenance-tracking overhead per operation type, as a
// percentage of the time to perform each basic (target database)
// operation, on the 14,000-mix workload.
//
// Expected shape (paper Section 4.2): all naive overheads below ~30%;
// hierarchical copies much cheaper but inserts costlier than naive
// (existence probe); transactional near zero per op; HT at most ~6%.
//
// The denominator is the *per-op* dataset-update time — one native round
// trip carrying the run's average rows per op — reconstructed from the
// cost parameters rather than taken from the measured average, because
// since the batched write path T/HT's measured target time is amortized
// over one native write per commit (fig9) and would inflate their
// percentages against the paper's per-op baseline.

#include <cstdio>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace cpdb;
  using namespace cpdb::bench;
  Flags flags(argc, argv);
  RunConfig base;
  base.steps = static_cast<size_t>(flags.GetInt("steps", 14000));
  base.txn_len = static_cast<size_t>(flags.GetInt("txn-len", 5));
  base.pattern = workload::Pattern::kMix;
  base.target_entries = 3000;
  base.source_entries = 6000;

  JsonReport report("fig10_overhead");
  report.config()
      .Set("steps", base.steps)
      .Set("txn_len", base.txn_len)
      .Set("pattern", "mix");

  PrintHeader("Figure 10", "provenance overhead per op type (%)");
  std::printf("steps=%zu txn_len=%zu (overhead = prov time / dataset time)\n\n",
              base.steps, base.txn_len);

  std::printf("%-8s %10s %10s %10s\n", "method", "add", "delete", "copy");
  for (auto strat : kAllStrategies) {
    RunConfig cfg = base;
    cfg.strategy = strat;
    RunStats st = RunWorkload(cfg);
    // Per-op dataset-update baseline (see header comment).
    relstore::CostParams tp = wrap::TreeTargetDb::DefaultTargetCost();
    double rows_per_op =
        st.applied == 0 ? 1.0
                        : static_cast<double>(st.target_write_rows) /
                              static_cast<double>(st.applied);
    double base_us = tp.roundtrip_us + tp.per_row_us * rows_per_op;
    if (base_us <= 0) base_us = 1;
    std::printf("%-8s %9.1f%% %9.1f%% %9.1f%%\n",
                provenance::StrategyShortName(strat),
                100.0 * st.add_prov.Avg() / base_us,
                100.0 * st.del_prov.Avg() / base_us,
                100.0 * st.copy_prov.Avg() / base_us);
    report.AddRow()
        .Set("method", provenance::StrategyShortName(strat))
        .Set("ops", st.applied)
        .Set("add_overhead_pct", 100.0 * st.add_prov.Avg() / base_us)
        .Set("del_overhead_pct", 100.0 * st.del_prov.Avg() / base_us)
        .Set("copy_overhead_pct", 100.0 * st.copy_prov.Avg() / base_us)
        .Set("prov_wall_us", st.prov_us)
        .Set("round_trips", st.prov_round_trips)
        .Set("rows_moved", st.prov_rows_moved)
        .Set("write_round_trips", st.prov_write_trips)
        .Set("write_rows", st.prov_write_rows)
        .Set("target_write_round_trips", st.target_write_trips)
        .Set("target_write_rows", st.target_write_rows)
        .Set("prov_bytes", st.prov_bytes)
        .Set("real_ms", st.real_ms);
  }
  std::printf(
      "\nShape check vs paper: N <= ~30%% everywhere; H add > N add but\n"
      "H copy < N copy; T ~0%%; HT <= ~6%%.\n");
  report.WriteTo(flags.GetString("json", ""));
  return 0;
}
