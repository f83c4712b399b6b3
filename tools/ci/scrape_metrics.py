#!/usr/bin/env python3
"""Validate a cpdb metrics exposition, as the METRICS verb returns it.

    ./build/cpdb_bench_client --port=7170 --mode=metrics > scrape.txt
    python3 tools/ci/scrape_metrics.py "file://$PWD/scrape.txt" \
        [--out=copy.txt] [--prev=earlier.txt] [--require=cpdb_commits_total]...

The URL is opened with urllib and must answer Content-Type text/plain,
which a file URL does for a .txt name.

Checks, in order:

1. The response parses as Prometheus text exposition format: every
   non-comment line is `name{labels} value`, every # line is a HELP or
   TYPE comment, every TYPE is counter/gauge/histogram, and every
   histogram's `le` buckets are cumulative (non-decreasing toward +Inf)
   with _count equal to the +Inf bucket.
2. Every --require'd series name is present with at least one sample.
3. With --prev, every series whose TYPE is counter (and every histogram
   _bucket/_count/_sum) must be monotonically non-decreasing versus the
   earlier scrape — a counter that moves backwards means the registry
   dropped or reset state mid-run.

Exit 0 on success; nonzero with a message on any violation. Used by the
CI socket smokes (scrape under load, scrape after, diff) and handy for
manual poking at a live server.
"""

import argparse
import re
import sys
import urllib.request

SAMPLE_RE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(-?(?:\d+(?:\.\d+)?"
    r"(?:[eE][+-]?\d+)?|Inf|NaN))$")
COMMENT_RE = re.compile(
    r"^# (HELP|TYPE) ([A-Za-z_:][A-Za-z0-9_:]*)(?: (.*))?$")
LE_RE = re.compile(r'le="([^"]*)"')


def fail(msg):
    print(f"scrape_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def parse(text):
    """Return (samples: {series_key: float}, types: {name: type}).

    series_key is the full `name{labels}` string so distinct label sets
    (per-verb, per-stage) are tracked independently.
    """
    samples = {}
    types = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            m = COMMENT_RE.match(line)
            if not m:
                fail(f"line {lineno}: malformed comment: {line!r}")
            if m.group(1) == "TYPE":
                if m.group(3) not in ("counter", "gauge", "histogram"):
                    fail(f"line {lineno}: unknown TYPE {m.group(3)!r}")
                types[m.group(2)] = m.group(3)
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"line {lineno}: malformed sample: {line!r}")
        key = m.group(1) + (m.group(2) or "")
        if key in samples:
            fail(f"line {lineno}: duplicate series {key!r}")
        samples[key] = float(m.group(3).replace("Inf", "inf"))
    return samples, types


def check_histograms(samples, types):
    hist_names = [n for n, t in types.items() if t == "histogram"]
    for name in hist_names:
        # Group buckets by the label set minus `le`.
        groups = {}
        for key, value in samples.items():
            m = re.match(re.escape(name) + r"_bucket(\{[^}]*\})$", key)
            if not m:
                continue
            labels = m.group(1)
            le = LE_RE.search(labels)
            if not le:
                fail(f"{key}: histogram bucket without le label")
            rest = LE_RE.sub("", labels).replace(",,", ",")
            rest = rest.replace("{,", "{").replace(",}", "}")
            groups.setdefault(rest, []).append(
                (float(le.group(1).replace("+Inf", "inf")), value))
        for rest, buckets in groups.items():
            buckets.sort()
            values = [v for _, v in buckets]
            if values != sorted(values):
                fail(f"{name}{rest}: buckets not cumulative: {values}")
            if buckets[-1][0] != float("inf"):
                fail(f"{name}{rest}: no +Inf bucket")
            # _count must equal the +Inf bucket for the same label set.
            count_key = name + "_count" + ("" if rest == "{}" else rest)
            if count_key not in samples and rest == "{}":
                count_key = name + "_count"
            if count_key in samples and samples[count_key] != buckets[-1][1]:
                fail(f"{count_key} = {samples[count_key]} but +Inf bucket "
                     f"= {buckets[-1][1]}")


def monotonic_keys(samples, types):
    """Series keys that must never decrease between scrapes."""
    keys = set()
    for key in samples:
        name = key.split("{", 1)[0]
        if types.get(name) == "counter":
            keys.add(key)
        for base, t in types.items():
            if t == "histogram" and name in (
                    base + "_bucket", base + "_count", base + "_sum"):
                keys.add(key)
    return keys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("url")
    ap.add_argument("--out", help="write the raw scrape here")
    ap.add_argument("--prev", help="earlier scrape to diff against")
    ap.add_argument("--require", action="append", default=[],
                    help="series name that must be present (repeatable)")
    ap.add_argument("--timeout", type=float, default=10.0)
    args = ap.parse_args()

    with urllib.request.urlopen(args.url, timeout=args.timeout) as resp:
        ctype = resp.headers.get("Content-Type", "")
        if not ctype.startswith("text/plain"):
            fail(f"unexpected Content-Type {ctype!r}")
        text = resp.read().decode("utf-8")
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)

    samples, types = parse(text)
    check_histograms(samples, types)

    for name in args.require:
        if not any(k == name or k.startswith(name + "{")
                   for k in samples):
            fail(f"required series {name!r} absent "
                 f"({len(samples)} series scraped)")

    if args.prev:
        with open(args.prev) as f:
            prev_samples, prev_types = parse(f.read())
        regressions = []
        for key in monotonic_keys(prev_samples, prev_types):
            if key in samples and samples[key] < prev_samples[key]:
                regressions.append(
                    f"{key}: {prev_samples[key]} -> {samples[key]}")
        if regressions:
            fail("counters moved backwards:\n  " + "\n  ".join(regressions))

    print(f"scrape_metrics: OK ({len(samples)} series, "
          f"{len(types)} metric names"
          + (", monotonic vs prev" if args.prev else "") + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
