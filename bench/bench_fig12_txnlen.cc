// Figure 12: effect of transaction length on provenance processing time —
// the 3500-real update with the hierarchical-transactional method at
// transaction lengths 7, 100, 500, 1000.
//
// Expected shape (paper Section 4.2): per-op times are ~flat in
// transaction length; commit time grows ~linearly with it; the amortized
// time per operation (commit cost spread over the transaction's ops)
// stays about constant.

#include <cstdio>

#include "harness.h"

int main(int argc, char** argv) {
  using namespace cpdb;
  using namespace cpdb::bench;
  Flags flags(argc, argv);
  RunConfig base;
  base.steps = static_cast<size_t>(flags.GetInt("steps", 3500));
  base.pattern = workload::Pattern::kReal;
  base.strategy = provenance::Strategy::kHierarchicalTransactional;
  base.target_entries = 1500;
  base.source_entries = 3000;

  JsonReport report("fig12_txnlen");
  report.config().Set("steps", base.steps).Set("pattern", "real").Set(
      "method", "HT");

  PrintHeader("Figure 12",
              "transaction length vs processing time (HT, 3500-real, us)");
  std::printf("steps=%zu\n\n", base.steps);

  std::printf("%-10s %10s %10s %10s %12s %12s | %9s %12s\n", "txn-len",
              "add", "delete", "copy", "commit", "amortized", "write-RTs",
              "write-RTs(old)");
  for (size_t txn_len : {size_t{7}, size_t{100}, size_t{500}, size_t{1000}}) {
    RunConfig cfg = base;
    cfg.txn_len = txn_len;
    RunStats st = RunWorkload(cfg);
    double amortized =
        st.applied == 0
            ? 0
            : (st.add_prov.total_us + st.del_prov.total_us +
               st.copy_prov.total_us + st.commit_prov.total_us) /
                  static_cast<double>(st.applied);
    // What the pre-refactor write path would have paid for this run: the
    // provenance side already group-committed (one WriteRecords per
    // non-empty commit — unchanged), but every committed op used to reach
    // the target as its own per-op write round trip, where the batched
    // path issues one target native write per commit. Mirrors fig13's
    // measured-vs-legacy read comparison, on the write side.
    size_t write_rts = st.prov_write_trips + st.target_write_trips;
    size_t write_rts_legacy = st.prov_write_trips + st.applied;
    std::printf("%-10zu %10.2f %10.2f %10.2f %12.1f %12.2f | %9zu %12zu\n",
                txn_len, st.add_prov.Avg(), st.del_prov.Avg(),
                st.copy_prov.Avg(), st.commit_prov.Avg(), amortized,
                write_rts, write_rts_legacy);
    report.AddRow()
        .Set("txn_len", txn_len)
        .Set("ops", st.applied)
        .Set("add_us", st.add_prov.Avg())
        .Set("del_us", st.del_prov.Avg())
        .Set("copy_us", st.copy_prov.Avg())
        .Set("commit_us", st.commit_prov.Avg())
        .Set("amortized_us", amortized)
        .Set("prov_wall_us", st.prov_us)
        .Set("round_trips", st.prov_round_trips)
        .Set("rows_moved", st.prov_rows_moved)
        .Set("write_round_trips", st.prov_write_trips)
        .Set("write_rows", st.prov_write_rows)
        .Set("target_write_round_trips", st.target_write_trips)
        .Set("target_write_rows", st.target_write_rows)
        .Set("write_round_trips_total", write_rts)
        .Set("write_round_trips_legacy", write_rts_legacy)
        .Set("prov_bytes", st.prov_bytes)
        .Set("real_ms", st.real_ms);
  }
  std::printf(
      "\nShape check vs paper: per-op times flat; commit grows ~linearly\n"
      "with transaction length; amortized per-op time ~constant.\n"
      "write-RTs is the measured write round-trip count on the batched\n"
      "path (provenance + target); write-RTs(old) is what the\n"
      "pre-refactor per-op native push would have issued for the same\n"
      "run (lower is better; the gap is the write batching win).\n");
  report.WriteTo(flags.GetString("json", ""));
  return 0;
}
