#!/usr/bin/env python3
"""Compares two Google Benchmark JSON outputs; fails on regression.

Used by CI's observability job to assert that the default build (tracing
compiled in, but off: every instrumentation point is a null-tracer branch)
does not regress the operator microbenchmarks against a
-DHTQO_DISABLE_TRACING=ON build, where the instrumentation does not exist.

Matching benchmarks are compared by the "_median" aggregate when present
(run both sides with --benchmark_repetitions; the median shrugs off a
single repetition inflated by scheduler noise or CPU steal, which skews
the mean), falling back to "_mean", then to the raw real_time. The
verdict is the geometric mean ratio across all common benchmarks —
single-benchmark jitter does not fail the gate, a systematic slowdown
does.

  tools/compare_bench.py baseline.json candidate.json --max-regress 0.05

A second, single-file mode gates *within* one result file: --pair
BASE:CAND matches rows "BASE/<arg>" against "CAND/<arg>" and requires the
geomean speedup (base time / candidate time) to reach --min-speedup. CI
uses this on bench_plan_cache output, where the cold and warm planning
paths are rows of the same run — machine-speed differences cancel out:

  tools/compare_bench.py plan_cache.json --pair PlanCold:PlanWarm \\
      --min-speedup 5

--pair is repeatable; all matched pairs feed one combined geomean. CI's
vectorized gate uses this to require the batch engine's speedup across
scan/filter, hash join, semijoin and distinct in a single verdict:

  tools/compare_bench.py BENCH_vectorized.json \\
      --pair ScanFilterRow:ScanFilterVec --pair HashJoinRow:HashJoinVec \\
      --pair SemiJoinRow:SemiJoinVec --pair DistinctRow:DistinctVec \\
      --min-speedup 3

--filter PREFIX restricts the two-file comparison to benchmarks whose
name starts with PREFIX (e.g. only the PlanNoCache rows when checking the
cache-off path against the committed seed numbers).

Every row prints in its own "time_unit" (ns, us, ms or s, as the bench
registered it); ratios are taken after converting both sides to one unit,
so rows recorded in different units still compare correctly.
"""

import argparse
import json
import math
import sys

# Google Benchmark's time_unit values, in nanoseconds.
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class Time:
    """One row's real_time in the unit the bench recorded it in."""

    def __init__(self, value, unit):
        self.value = value
        self.unit = unit

    @property
    def ns(self):
        return self.value * UNIT_NS[self.unit]

    def __str__(self):
        # Whole nanoseconds; coarser units keep two decimals.
        digits = 0 if self.unit == "ns" else 2
        return f"{self.value:.{digits}f} {self.unit}"


def load_times(path):
    with open(path) as f:
        doc = json.load(f)
    raw, means, medians = {}, {}, {}
    for b in doc.get("benchmarks", []):
        name = b["name"]
        t = Time(b["real_time"], b.get("time_unit", "ns"))
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[name.removesuffix("_median")] = t
            elif b.get("aggregate_name") == "mean":
                means[name.removesuffix("_mean")] = t
        else:
            # First repetition wins; good enough when aggregates exist.
            raw.setdefault(name, t)
    return medians or means or raw


def run_pair(times, pair_specs, min_speedup):
    """Within-file gate: rows BASE/<arg> vs CAND/<arg> of one result set.

    Accepts several BASE:CAND specs (repeated --pair flags); the verdict is
    one geomean over every matched pair, so a multi-operator gate (e.g. the
    row-vs-vectorized sweep) passes or fails as a whole.
    """
    pairs = []
    for pair in pair_specs:
        base_prefix, _, cand_prefix = pair.partition(":")
        if not base_prefix or not cand_prefix:
            print(f"error: --pair wants BASE:CAND, got {pair!r}")
            return 1
        matched = 0
        for name, base_time in sorted(times.items()):
            if name != base_prefix and not name.startswith(base_prefix + "/"):
                continue
            counterpart = cand_prefix + name[len(base_prefix):]
            if counterpart in times:
                pairs.append((name, counterpart, base_time,
                              times[counterpart]))
                matched += 1
        if matched == 0:
            print(f"error: no {base_prefix}/{cand_prefix} row pairs found")
            return 1

    log_sum = 0.0
    for base_name, cand_name, base_time, cand_time in pairs:
        speedup = (base_time.ns / cand_time.ns if cand_time.ns > 0
                   else float("inf"))
        log_sum += math.log(speedup)
        print(f"{base_name} -> {cand_name}: {base_time} -> {cand_time} "
              f"(x{speedup:.2f} faster)")
    geomean = math.exp(log_sum / len(pairs))
    print(f"\ngeomean speedup over {len(pairs)} pairs: {geomean:.2f}x "
          f"(required {min_speedup:.2f}x)")
    if geomean < min_speedup:
        print("FAIL: speedup below the required floor")
        return 1
    print("ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="benchmark JSON (or the only file "
                        "in --pair mode)")
    parser.add_argument("candidate", nargs="?", default=None,
                        help="candidate benchmark JSON (two-file mode)")
    parser.add_argument("--max-regress", type=float, default=0.05,
                        help="allowed geomean slowdown (0.05 = 5%%)")
    parser.add_argument("--pair", action="append", default=None,
                        metavar="BASE:CAND",
                        help="single-file mode: compare BASE/<arg> rows "
                        "against CAND/<arg> rows of `baseline`; repeatable, "
                        "the gate is the geomean over all matched pairs")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="required geomean speedup in --pair mode")
    parser.add_argument("--filter", default=None, metavar="PREFIX",
                        help="two-file mode: only compare benchmarks whose "
                        "name starts with PREFIX")
    args = parser.parse_args()

    if args.pair:
        if args.candidate is not None:
            print("error: --pair takes a single result file")
            return 1
        return run_pair(load_times(args.baseline), args.pair,
                        args.min_speedup)
    if args.candidate is None:
        print("error: two-file mode needs a candidate JSON")
        return 1

    base = load_times(args.baseline)
    cand = load_times(args.candidate)
    common = sorted(set(base) & set(cand))
    if args.filter:
        common = [n for n in common if n.startswith(args.filter)]
    if not common:
        print("error: no common benchmarks between the two files")
        return 1

    log_sum = 0.0
    for name in common:
        ratio = cand[name].ns / base[name].ns if base[name].ns > 0 else 1.0
        log_sum += math.log(ratio)
        flag = "  <-- slower" if ratio > 1 + args.max_regress else ""
        print(f"{name}: {base[name]} -> {cand[name]} "
              f"(x{ratio:.3f}){flag}")
    geomean = math.exp(log_sum / len(common))
    print(f"\ngeomean ratio over {len(common)} benchmarks: {geomean:.4f} "
          f"(limit {1 + args.max_regress:.2f})")
    if geomean > 1 + args.max_regress:
        print("FAIL: candidate regresses past the allowed margin")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
