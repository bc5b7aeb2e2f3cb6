"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every named metric is present and validly named, that tracing
restores the original bindings, that product counts repeat exactly, that
outputs hash the same traced and untraced, and that an injected wrong key
makes a run fail. Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import bench
import metrics
import run
from tracer import Tracer
from workloads import WORKLOADS, Workload

TINY = Workload("tiny", 3, 1, 3, why="self-test", setups=2, pool=10,
                shares={"setup": 0.05, "keygen": 0.1, "kem": 0.35, "kex": 0.2,
                        "attack": 0.2, "cli": 0.1},
                mitm_t=1)
SECONDS = 0.5
PRODUCT_COUNTS = ["algebra.products_per_encaps", "algebra.products_per_decaps",
                  "algebra.products_per_kex"]


class SelfTest:
    def __init__(self):
        self.failures = 0

    def check(self, ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        self.failures += not ok

    def names_and_units(self, runs: dict) -> None:
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        layer = {m["name"]: m for m in spec["per_layer"]}
        self.check(set(e2e) == set(metrics.END_TO_END),
                   "BENCHMARK.json end_to_end names match the benchmark's")
        self.check(set(layer) == set(metrics.PER_LAYER),
                   "BENCHMARK.json per_layer names match the benchmark's")
        self.check(all(e2e[n]["unit"] == u and e2e[n]["better"] == b
                       for n, (u, b) in metrics.END_TO_END.items() if n in e2e)
                   and all(layer[n]["unit"] == u and layer[n]["better"] == b
                           for n, (u, b) in metrics.PER_LAYER.items() if n in layer),
                   "BENCHMARK.json units and directions match the benchmark's")
        self.check({w["name"]: w["why"] for w in spec["workloads"]}
                   == {w.name: w.why for w in WORKLOADS.values()},
                   "BENCHMARK.json workloads match workloads.py")
        for trace, expected in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            got = runs[trace]["result"]["metrics"]
            self.check(list(got) == list(expected),
                       f"--trace {trace} prints exactly its named metrics")
            self.check(all(metrics.NAME_RE.match(n) and metrics.UNIT_RE.match(m["unit"])
                           and isinstance(m["value"], (int, float))
                           for n, m in got.items()),
                       f"--trace {trace} metric names, units and values are valid")
        self.check(all(e2e_value["value"] > 0
                       for e2e_value in runs[0]["result"]["metrics"].values()),
                   "every end-to-end metric is non-zero")

    @staticmethod
    def bindings(lib: bench.Lib) -> dict:
        """Objects the tracer rebinds, read from their owners' namespaces."""
        owners = {
            "algebra.alg_product": (lib.algebra, "alg_product"),
            "kem.rep_serialize": (lib.kem, "rep_serialize"),
            "pke.derive_public": (lib.pke, "derive_public"),
            "FieldParams.mul_table": (lib.field.FieldParams, "mul_table"),
            "FieldElement.__mul__": (lib.field.FieldElement, "__mul__"),
            "Cocycle.alpha": (lib.cocycle.Cocycle, "alpha"),
        }
        return {k: vars(owner)[attr] for k, (owner, attr) in owners.items()}

    def rebinding(self, lib: bench.Lib, before: dict) -> None:
        tracer = Tracer()
        tracer.install()
        try:
            during = self.bindings(lib)
        finally:
            tracer.restore()
        self.check(all(during[k] is not before[k] for k in before),
                   "tracing rebinds functions, importing modules' copies "
                   "(kem.rep_serialize, pke.derive_public) and methods")

    def wrong_key_fails(self) -> None:
        lib = bench.Lib()
        original = lib.kem.kem_decaps

        def wrong_decaps(*args):
            key = original(*args)
            return bytes([key[0] ^ 1]) + key[1:]

        lib.kem.kem_decaps = wrong_decaps
        try:
            out = run.run_workload(TINY, 1, SECONDS, False)["result"]
            with contextlib.redirect_stdout(io.StringIO()):
                code = run.main(["--workload", "kem-small", "--seed", "1",
                                 "--seconds", str(SECONDS)])
        finally:
            lib.kem.kem_decaps = original
        self.check(not out["correct"] and out["failed"] > 0,
                   f"an injected wrong key fails the run ({out['failed']} "
                   f"of {out['attempted']} checks failed)")
        self.check(code == 1, f"the command exits 1 on a failed check (got {code})")

    def main(self) -> int:
        lib = bench.Lib()
        before = self.bindings(lib)
        runs = {trace: run.run_workload(TINY, 1, SECONDS, bool(trace))
                for trace in (0, 1)}
        again = run.run_workload(TINY, 2, SECONDS, True)
        self.check(self.bindings(lib) == before
                   and lib.algebra.alg_product is before["algebra.alg_product"],
                   "traced runs restore the original bindings "
                   "(twisted_dihedral.algebra.alg_product is the original)")
        self.rebinding(lib, before)
        for trace, out in runs.items():
            self.check(out["result"]["correct"],
                       f"--trace {trace} run passes its output checks "
                       f"{out['report']['failures']}")
        self.names_and_units(runs)
        sha = [out["report"]["output_sha256"] for out in runs.values()]
        self.check(sha[0] == sha[1], "output_sha256 is the same traced and untraced")
        self.check(run.run_workload(TINY, 1, SECONDS, False)["report"]["output_sha256"]
                   == sha[0], "output_sha256 repeats for one seed")
        counts = [[r["result"]["metrics"][n]["value"] for n in PRODUCT_COUNTS]
                  for r in (runs[1], again)]
        self.check(counts[0] == counts[1] and all(c == int(c) and c > 0 for c in counts[0]),
                   f"product counts per encaps/decaps/kex repeat exactly {counts[0]}")
        self.wrong_key_fails()
        print(f"{self.failures} check(s) failed")
        return 1 if self.failures else 0


if __name__ == "__main__":
    sys.exit(SelfTest().main())
