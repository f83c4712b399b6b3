#!/usr/bin/env bash
# Records the pinned service benchmarks at the repo root: N repeats of
# each fixed scenario, aggregated by MEDIAN so one noisy repeat cannot
# move the checked-in trajectory.
#
#   * BENCH_service.json    — cpdb_serve + cpdb_bench_client QD sweep
#                             (network path, per queue depth)
#   * BENCH_concurrent.json — bench_concurrent thread sweep 1..16
#                             (in-process closed loop, per thread count;
#                             the scaling claim for the MVCC snapshot +
#                             group-commit service layer lives here)
#
#   tools/bench/record.sh [repeats]          (default 3)
#
# Environment:
#   BUILD_DIR   where the bench binaries live (default: build)
#   PORT        server port (default: 7181, off the 7170 default so a
#               stray dev server cannot be mistaken for ours)
#   OUT         QD-sweep output (default: BENCH_service.json)
#   CONC_OUT    thread-sweep output (default: BENCH_concurrent.json)
#
# The scenarios are deliberately fixed — QD sweep: strategy HT, durable
# WAL, 2 connections, zipf(0.99) over 1000 keys, txn-len 4, QD 1..32;
# thread sweep: strategy HT, durable WAL, threads 1,2,4,8,16, txn-len 8,
# 100 txns/thread, every cohort applied in enqueue order on its leader's
# thread — because the point of the checked-in files is comparability
# ACROSS PRs, not tunability. Change a scenario and you reset its
# trajectory. The thread sweep's trajectory did reset once: rows recorded
# before the apply pool was deleted ran that pool (two extra appliers),
# so compare later rows with them only as a different scenario.

set -euo pipefail

cd "$(dirname "$0")/../.."
REPEATS="${1:-3}"
BUILD_DIR="${BUILD_DIR:-build}"
PORT="${PORT:-7181}"
OUT="${OUT:-BENCH_service.json}"
CONC_OUT="${CONC_OUT:-BENCH_concurrent.json}"

SERVE="$BUILD_DIR/cpdb_serve"
CLIENT="$BUILD_DIR/cpdb_bench_client"
CONC="$BUILD_DIR/bench_concurrent"
for bin in "$SERVE" "$CLIENT" "$CONC"; do
  if [ ! -x "$bin" ]; then
    echo "record.sh: $bin not built (cmake --build $BUILD_DIR -j)" >&2
    exit 2
  fi
done

# Provenance of the measurement itself: the harness stamps these three
# into every JSON report (bench/harness.h).
CPDB_GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
CPDB_RUN_ID="${CPDB_RUN_ID:-record-$(date -u +%Y%m%dT%H%M%SZ)-$$}"
export CPDB_GIT_SHA CPDB_RUN_ID

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "record.sh: $REPEATS repeat(s), sha=$CPDB_GIT_SHA run_id=$CPDB_RUN_ID"

for i in $(seq 1 "$REPEATS"); do
  DB="$WORK/db-$i"
  "$SERVE" --dir="$DB" --port="$PORT" --strategy=HT --wipe=true \
    >"$WORK/serve-$i.log" 2>&1 &
  SERVER_PID=$!
  "$CLIENT" --port="$PORT" --mode=ping --timeout-sec=10 >/dev/null

  "$CLIENT" --port="$PORT" --mode=load \
    --connections=2 --qd=1,2,4,8,16,32 --txns=300 --txn-len=4 \
    --dist=zipf --theta=0.99 --keys=1000 --seed=42 \
    --json="$WORK/repeat-$i.json" >"$WORK/load-$i.log"

  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID" || {
    echo "record.sh: server exited non-zero on repeat $i" >&2
    tail -5 "$WORK/serve-$i.log" >&2
    exit 2
  }
  SERVER_PID=""
  echo "record.sh: QD-sweep repeat $i/$REPEATS done"
done

# Thread sweep: in-process closed loop, one WAL dir per repeat so every
# repeat recovers from a cold store. txn-len 8 is the contended shape
# (8 staged ops per commit); like cpdb_serve, bench_concurrent applies
# each cohort serially on its leader's thread.
for i in $(seq 1 "$REPEATS"); do
  "$CONC" --threads=1,2,4,8,16 --txn-lens=8 --txns=100 \
    --durable="$WORK/conc-wal-$i" \
    --json="$WORK/conc-$i.json" >"$WORK/conc-$i.log"
  echo "record.sh: thread-sweep repeat $i/$REPEATS done"
done

# Median-merge across repeats, keyed by the sweep variable(s): every
# numeric row field takes the per-key median; count fields (txns_sent
# etc.) are identical across repeats by construction, so the median is
# exact, not a compromise.
cat >"$WORK/merge.py" <<'EOF'
import json
import statistics
import sys

out_path, key_spec, *paths = sys.argv[1:]
key_fields = key_spec.split(",")
docs = [json.load(open(p)) for p in paths]

by_key = {}
for doc in docs:
    for row in doc["rows"]:
        by_key.setdefault(tuple(row[k] for k in key_fields), []).append(row)

rows = []
for key in sorted(by_key):
    group = by_key[key]
    merged = {}
    for field in group[0]:
        vals = [r[field] for r in group]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in vals):
            med = statistics.median(vals)
            merged[field] = int(med) if all(
                isinstance(v, int) for v in vals) else med
        else:
            merged[field] = vals[0]
    rows.append(merged)

first = docs[0]
result = {
    "bench": first["bench"],
    "git_sha": first.get("git_sha", "unknown"),
    "utc_timestamp": first.get("utc_timestamp", ""),
    "run_id": first.get("run_id", "local"),
    "config": dict(first["config"], repeats=len(docs)),
    "rows": rows,
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=1)
    f.write("\n")
print(f"record.sh: wrote {out_path} "
      f"({len(rows)} rows, median of {len(docs)} repeats)")
EOF

python3 "$WORK/merge.py" "$OUT" qd "$WORK"/repeat-*.json
python3 "$WORK/merge.py" "$CONC_OUT" threads,txn_len "$WORK"/conc-*.json
