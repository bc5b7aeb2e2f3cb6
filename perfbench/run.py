"""Benchmark command: run one workload and print its metrics.

    python3 perfbench/run.py --workload kem-small --seed 1 --seconds 20 --trace 0

With --trace 0 one untraced pass gives the end-to-end metrics. With
--trace 1 an untraced pass and a traced pass run the same seeded inputs;
the traced pass gives the per-layer metrics, and the two must produce the
same output hash. Human-readable lines and a JSON report (environment,
sample counts, output_sha256, report-only metrics) come first; the last
line of stdout is the result object. The exit code is 0 only when every
output check passed; it is 2 when the checkout holds no library source.
"""

from __future__ import annotations

import argparse
import json
import sys

import bench
import metrics
from tracer import Tracer
from workloads import WORKLOADS, Workload

# Share of --seconds given to the untraced pass of a traced run.
UNTRACED_SHARE = 0.4


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run a workload and return the result object plus a report."""
    lib = bench.Lib()
    with bench.work_dir() as workdir:
        if not trace:
            main_pass = bench.Pass(lib, spec, seed, seconds, workdir,
                                   setups=spec.setups).run()
            values, report_only = metrics.end_to_end(main_pass)
            units = {name: unit for name, (unit, _) in metrics.END_TO_END.items()}
            passes = [main_pass]
        else:
            untraced = bench.Pass(lib, spec, seed, seconds * UNTRACED_SHARE, workdir,
                                  setups=1).run()
            tracer = Tracer()
            tracer.install()
            try:
                main_pass = bench.Pass(lib, spec, seed, seconds * (1 - UNTRACED_SHARE),
                                       workdir, setups=1, tracer=tracer).run()
            finally:
                tracer.restore()
            cli_import = bench.cli_import_seconds()
            values = metrics.per_layer(tracer, main_pass, untraced, cli_import)
            report_only = {}
            units = {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}
            passes = [untraced, main_pass]
    digests = {p.output_sha256() for p in passes}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    if len(digests) > 1:
        failed += 1
        failures.append("traced and untraced passes gave different outputs")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in units},
    }
    report = {
        "workload": spec.name,
        "params": {"p": spec.p, "m": spec.m, "n": spec.n},
        "pool": spec.pool,
        "trace": int(trace),
        "output_sha256": main_pass.output_sha256(),
        "environment": bench.environment(seed),
        "samples": {name: values[name][1] for name in units},
        "ops": main_pass.counts,
        "roundtrip_tail_percentile": bench.tail(main_pass.samples["roundtrip"])[0],
        "tampered_but_valid": main_pass.tamper_valid,
        "report_only": {name: {"value": v, "unit": metrics.REPORT_ONLY[name],
                               "samples": n}
                        for name, (v, n) in report_only.items()},
        "failures": failures,
    }
    return {"result": result, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    except bench.LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, report = out["result"], out["report"]
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']} "
              f"(n={report['samples'][name]})")
    for name, metric in report["report_only"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']} "
              f"(n={metric['samples']}, not gated)")
    print(f"output_sha256 = {report['output_sha256']}")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
