#!/usr/bin/env python3
"""Compares two per-run records of the MedVault service benchmark.

    python3 perfbench/compare.py BASE.json NEW.json

The records are the <workload>-seed<n>-trace<t>.json files a run writes
under <build dir>/results. Records measured on different hosts (any
fingerprint field differs) are reported as "not comparable" (exit 2).
Otherwise each end-to-end metric declared in BENCHMARK.json is printed
with its change, as a share of the base value, against its bound; the
exit status is 1 if any metric got worse by more than its bound. The
undeclared metrics (latencies) follow, printed without a verdict.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        base = json.load(f)
    with open(argv[1]) as f:
        new = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    differs = sorted(k for k in set(base["fingerprint"]) | set(new["fingerprint"])
                     if base["fingerprint"].get(k) != new["fingerprint"].get(k))
    if differs:
        print("not comparable: fingerprints differ in " + ", ".join(
            f"{k} ({base['fingerprint'].get(k)!r} vs {new['fingerprint'].get(k)!r})"
            for k in differs))
        return 2
    if base["workload"] != new["workload"]:
        print(f"not comparable: workloads {base['workload']} and {new['workload']}")
        return 2

    worse = 0
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in base["metrics"] or name not in new["metrics"]:
            print(f"{name:24s} missing")
            continue
        b = base["metrics"][name]["value"]
        n = new["metrics"][name]["value"]
        change = (n - b) / b if b else 0.0
        regress = change if m["better"] == "lower" else -change
        verdict = "worse than bound" if regress > m["bound"] else "ok"
        worse += verdict != "ok"
        print(f"{name:24s} {b:14.6g} -> {n:14.6g} {m['unit']:6s} "
              f"{change:+8.2%} (bound {m['bound']:.0%}) {verdict}")
    declared = {m["name"] for m in spec["end_to_end"]}
    for name in sorted(set(base["metrics"]) & set(new["metrics"]) - declared):
        b = base["metrics"][name]["value"]
        n = new["metrics"][name]["value"]
        change = f"{(n - b) / b:+8.2%}" if b else "     n/a"
        print(f"{name:24s} {b:14.6g} -> {n:14.6g} "
              f"{base['metrics'][name]['unit']:6s} {change} (not declared)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
