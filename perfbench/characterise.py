"""Characterisation pass over the ROADMAP grid; reported, never gated.

    python3 perfbench/characterise.py

For each (p, m, n) it reports the median and IQR of the algebra product,
encaps and decaps (us), and of field.table_build_s: the first read of
`mul_table` on a fresh `FieldParams`. Each row of the ROADMAP baseline
table whose value lies outside the measured IQR is flagged. (3,7,9) has
q=2187 > TABLE_LIMIT, so it covers the untabulated fallback that no gated
workload runs. The last line of stdout is the whole result as JSON.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

import bench

GRID = [(3, 1, 3), (5, 1, 5), (3, 2, 9), (3, 1, 30), (101, 1, 101),
        (3, 6, 9), (3, 7, 9)]

# ROADMAP "Recent", baseline measured at the re-anchor: single runs, us per op.
BASELINE_US = {
    (3, 1, 3): {"product_us": 14, "encaps_us": 230, "decaps_us": 250},
    (3, 2, 9): {"product_us": 55, "encaps_us": 560, "decaps_us": 700},
    (3, 1, 30): {"product_us": 300, "encaps_us": 1630, "decaps_us": 2130},
    (101, 1, 101): {"product_us": 3290, "encaps_us": 8630, "decaps_us": 13210},
    (3, 7, 9): {"product_us": 10436, "encaps_us": 24770, "decaps_us": 27770},
}
BASELINE_TABLE_BUILD_S = {(3, 6, 9): 4.8}
MIN_SAMPLES = 5
# time per measured operation and grid point
SECONDS = 1.0
# fresh field-table builds per grid point
BUILDS = 3


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


def timed_samples(fn, seconds: float, scale: float) -> list[float]:
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < MIN_SAMPLES or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        fn()
        out.append((time.perf_counter_ns() - t0) / scale)
    return out


def characterise(lib: bench.Lib, p: int, m: int, n: int) -> dict:
    build = []
    for _ in range(BUILDS):
        field = lib.field.FieldParams(p, m)
        t0 = time.perf_counter()
        field.mul_table  # noqa: B018 - the first read builds the tables
        build.append(time.perf_counter() - t0)
        del field
    rng = random.Random(f"characterise:{p}:{m}:{n}")
    pp = lib.kex.setup_public_params(p, m, n, rng)
    kp = lib.kem.kem_keygen(pp, rng)
    a = lib.algebra.sample_subspace("full", pp.algebra, rng)
    b = lib.algebra.sample_subspace("full", pp.algebra, rng)
    cts = []
    encaps = timed_samples(
        lambda: cts.append(lib.kem.kem_encaps(kp.pk, pp, rng)), SECONDS, 1e3)
    decaps = []
    for ct, key in cts:
        t0 = time.perf_counter_ns()
        got = lib.kem.kem_decaps(kp, ct, pp)
        decaps.append((time.perf_counter_ns() - t0) / 1e3)
        if got != key:
            raise RuntimeError(f"decaps disagrees with encaps at {(p, m, n)}")
    row = {
        "params": [p, m, n], "q": p ** m,
        "product_us": summary(timed_samples(
            lambda: lib.algebra.alg_product(a, b), SECONDS, 1e3)),
        "encaps_us": summary(encaps),
        "decaps_us": summary(decaps),
    }
    row["field.table_build_s"] = summary(build)
    baseline = dict(BASELINE_US.get((p, m, n), {}))
    if (p, m, n) in BASELINE_TABLE_BUILD_S:
        baseline["field.table_build_s"] = BASELINE_TABLE_BUILD_S[(p, m, n)]
    row["baseline"] = baseline
    row["outside_iqr"] = sorted(k for k, v in baseline.items()
                                if not row[k]["q1"] <= v <= row[k]["q3"])
    return row


def main() -> int:
    try:
        lib = bench.Lib()
    except bench.LibraryMissing as exc:
        print(f"characterise: {exc}", file=sys.stderr)
        return 2
    rows = []
    for p, m, n in GRID:
        row = characterise(lib, p, m, n)
        rows.append(row)
        cells = "  ".join(
            f"{k} {row[k]['median']:.4g} [{row[k]['q1']:.4g}, {row[k]['q3']:.4g}]"
            for k in ("product_us", "encaps_us", "decaps_us", "field.table_build_s"))
        flag = (f"  OUTSIDE IQR vs ROADMAP baseline: {', '.join(row['outside_iqr'])}"
                if row["outside_iqr"] else "")
        print(f"({p},{m},{n}) q={row['q']}: {cells}{flag}")
    print(json.dumps({"environment": bench.environment(seed=None), "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
