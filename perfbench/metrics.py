"""Every metric the benchmark reports: its unit, and how it is computed.

End-to-end metrics come from an untraced pass: set-up time is a median,
and each op latency is a mean over the workload's pool of seeded inputs of
each input's fastest time (see END_TO_END). Per-layer metrics come from
the traced run; their timings are mean inclusive times per call, and the
layer -> end-to-end table in README.md says which end-to-end metric each
should move, and on which workload.
"""

from __future__ import annotations

import re
import statistics

import bench

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# name -> (unit, better). An op's *_best_us is the mean, over the pool's
# inputs, of each input's fastest time in the run. On a shared machine an
# op runs up to 2x slower while a neighbour is busy, in spells of seconds
# to minutes, so a run's median measures how long the machine was
# contended; the best of many tries of one input does not. The mean over
# the inputs still weighs every path an op takes (a resampled key, an
# extra SHAKE block, an implicit rejection) by how often the inputs take it.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "keygen_best_us": ("us", "lower"),
    "encaps_best_us": ("us", "lower"),
    "decaps_best_us": ("us", "lower"),
    "kex_best_us": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Reported with the end-to-end metrics but not gated: every gated metric
# must be measured, and non-zero, on every workload, with a run-to-run
# spread within a bound of at most 0.25. The medians, the throughput and
# the tail follow the machine's contention. A run holds only 5-7 CLI
# pairs, each starting two interpreters. fail_ratio is 0 at a correct
# commit and any failure fails the run; the attack figures exist on
# attack-small only.
REPORT_ONLY = {
    "keygen_us": "us",
    "encaps_us": "us",
    "decaps_us": "us",
    "kex_us": "us",
    "roundtrips_per_s": "1/s",
    "roundtrip_tail_us": "us",
    "cli_roundtrip_s": "s",
    "fail_ratio": "ratio",
    "exhaustive_solve_ms": "ms",
    "exhaustive_cands_per_s": "1/s",
    "mitm_solve_ms": "ms",
    "mitm_cands_per_s": "1/s",
}

# name -> (unit, better). Op kinds: setup, keygen, encaps, decaps, kex, exhaustive,
# mitm, cli_encaps, cli_decaps (the CLI run in-process so it can be traced).
PER_LAYER = {
    "field.table_build_s": ("s", "lower"),
    "field.table_entries": ("count", "lower"),
    "field.calls_per_roundtrip": ("count", "lower"),
    "field.self_us_per_roundtrip": ("us", "lower"),
    "group.table_build_s": ("s", "lower"),
    "cocycle.alpha_build_s": ("s", "lower"),
    "kex.setup_public_params_s": ("s", "lower"),
    "algebra.products_per_encaps": ("count", "lower"),
    "algebra.products_per_decaps": ("count", "lower"),
    "algebra.products_per_kex": ("count", "lower"),
    "algebra.product_us": ("us", "lower"),
    "algebra.product_share": ("ratio", "lower"),
    "algebra.adjunct_us": ("us", "lower"),
    "algebra.serialize_us": ("us", "lower"),
    "algebra.serialize_calls_per_roundtrip": ("count", "lower"),
    "algebra.serialize_bytes_per_roundtrip": ("bytes", "lower"),
    "algebra.sample_us": ("us", "lower"),
    "algebra.deserialize_us": ("us", "lower"),
    "formats.read_param_file_s": ("s", "lower"),
    "formats.read_element_file_us": ("us", "lower"),
    "formats.write_element_file_us": ("us", "lower"),
    "pke.enc_us": ("us", "lower"),
    "pke.dec_us": ("us", "lower"),
    "pke.gen_resample_ratio": ("ratio", "lower"),
    "kem.hash_g1_us": ("us", "lower"),
    "kem.hash_g1_blocks_per_call": ("count", "lower"),
    "kem.hash_g2_us": ("us", "lower"),
    "kem.self_us_per_roundtrip": ("us", "lower"),
    "kem.rejections": ("count", "higher"),
    "kex.derive_public_us": ("us", "lower"),
    "kex.derive_shared_us": ("us", "lower"),
    "attacks.exhaustive.candidates": ("count", "lower"),
    "attacks.mitm.candidates": ("count", "lower"),
    "attacks.products_per_candidate": ("count", "lower"),
    "attacks.index_h_us": ("us", "lower"),
    "attacks.mitm.table_entries": ("count", "lower"),
    "attacks.mitm.table_build_s": ("s", "lower"),
    "attacks.mitm.bucket_probes": ("count", "lower"),
    "attacks.mitm.match_ratio": ("ratio", "lower"),
    "attacks.exhaustive.solve_ms": ("ms", "lower"),
    "attacks.exhaustive.cands_per_s": ("1/s", "higher"),
    "attacks.mitm.solve_ms": ("ms", "lower"),
    "attacks.mitm.cands_per_s": ("1/s", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.encaps_s": ("s", "lower"),
    "cli.decaps_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

ROUNDTRIP = ("encaps", "decaps")
PROTOCOL = ("encaps", "decaps", "kex")
CLI = ("cli_encaps", "cli_decaps")
ATTACK = ("exhaustive", "mitm")


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(p: "bench.Pass") -> tuple[dict, dict]:
    """Gated metrics as {name: (value, samples)}, and the report-only ones."""
    s = p.samples

    def stat(fn, key, scale=1.0):
        return fn(s[key]) / scale, len(s[key])

    def best_us(key):
        return statistics.fmean(p.best[key]) / 1e3, len(s[key])

    rt = s["roundtrip"]
    gated = {
        "setup_s": stat(statistics.median, "setup"),
        "keygen_best_us": best_us("keygen"),
        "encaps_best_us": best_us("encaps"),
        "decaps_best_us": best_us("decaps"),
        "kex_best_us": best_us("kex"),
        "peak_rss_mb": (bench.peak_rss_mb(), 1),
    }
    report = {
        "keygen_us": stat(statistics.median, "keygen", 1e3),
        "encaps_us": stat(statistics.median, "encaps", 1e3),
        "decaps_us": stat(statistics.median, "decaps", 1e3),
        "kex_us": stat(statistics.median, "kex", 1e3),
        "roundtrips_per_s": (len(rt) / (sum(rt) / 1e9), len(rt)),
        "roundtrip_tail_us": (bench.tail(rt)[1] / 1e3, len(rt)),
        "cli_roundtrip_s": stat(statistics.median, "cli_roundtrip"),
        "fail_ratio": (p.failed / max(p.attempted, 1), p.attempted),
    }
    if p.spec.mitm_t is not None:
        for solver in ATTACK:
            times, cands = s[f"{solver}_solve"], s[f"{solver}_cands"]
            report[f"{solver}_solve_ms"] = (statistics.median(times) / 1e6, len(times))
            report[f"{solver}_cands_per_s"] = (sum(cands) / (sum(times) / 1e9), len(times))
    return gated, report


class _Trace:
    """Read-only view of a tracer's aggregates by span name and op kind."""

    def __init__(self, tracer):
        self.t = tracer

    def _st(self, kinds):
        return [self.t.stats[k] for k in kinds if k in self.t.stats]

    def ops(self, kinds) -> int:
        return sum(st.ops for st in self._st(kinds))

    def op_ns(self, kinds) -> float:
        return sum(st.op_ns for st in self._st(kinds))

    def total(self, kinds, attr, names) -> float:
        idx = [self.t.index[n] for n in names]
        return float(sum(getattr(st, attr)[idx].sum() for st in self._st(kinds)))

    def edge(self, kinds, parent, child) -> float:
        p, c = self.t.index[parent], self.t.index[child]
        return float(sum(st.edges[p, c] for st in self._st(kinds)))

    def counter(self, kinds, name) -> float:
        return float(sum(st.counters.get(name, 0) for st in self._st(kinds)))

    def mean_us(self, kinds, name, outer=False) -> float:
        """Mean inclusive time per call, in microseconds."""
        names = [name] if isinstance(name, str) else name
        calls = self.total(kinds, "outer_count" if outer else "count", names)
        incl = self.total(kinds, "outer_incl" if outer else "incl", names)
        return incl / calls / 1e3 if calls else 0.0

    def per(self, kinds, value, per_kinds=None) -> float:
        ops = self.ops(per_kinds or kinds)
        return value / ops if ops else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, traced: "bench.Pass", untraced: "bench.Pass",
              cli_import: list[float]) -> dict:
    """Per-layer metrics as {name: (value, samples)}."""
    tr = _Trace(tracer)
    field_names = [n for n in tracer.names if n.startswith("field.")]
    kem_names = [n for n in tracer.names if n.startswith("kem.")]
    serialize = ["algebra.rep_serialize", "algebra.serialize_field_elements"]
    sample = ["algebra.sample_subspace", "algebra.sample_gamma",
              "algebra.sample_secret_pair"]
    product = ["algebra.alg_product"]
    sampled = ("keygen",) + PROTOCOL
    setups, rts = tr.ops(["setup"]), tr.ops(["decaps"])
    kex_ops, mitm_ops, cli_ops = tr.ops(["kex"]), tr.ops(["mitm"]), tr.ops(CLI)
    probes = tr.edge(["mitm"], "attacks.mitm_online", "algebra.index_h")
    t_samples, u_samples = traced.samples, untraced.samples
    attack_cands = sum(t_samples.get("exhaustive_cands", [])
                       + t_samples.get("mitm_cands", []))
    _, report = end_to_end(untraced)

    def per_roundtrip(attr, names, scale=1.0):
        return tr.per(ROUNDTRIP, tr.total(ROUNDTRIP, attr, names) / scale, ["decaps"])

    def per_setup_s(name):
        return tr.per(["setup"], tr.total(["setup"], "incl", [name]) / 1e9)

    def products_per(kind):
        return tr.per([kind], tr.total([kind], "count", product))

    def median_of(samples, key):
        return _median_or_zero(samples.get(key, [])), len(samples.get(key, []))

    values = {
        "field.table_build_s": (per_setup_s("field.table_build"), setups),
        "field.table_entries": (
            tr.per(["setup"], tr.counter(["setup"], "field.table_entries")), setups),
        "field.calls_per_roundtrip": (per_roundtrip("count", field_names), rts),
        "field.self_us_per_roundtrip": (per_roundtrip("self_ns", field_names, 1e3), rts),
        "group.table_build_s": (per_setup_s("group.DihedralGroup.__init__"), setups),
        "cocycle.alpha_build_s": (per_setup_s("cocycle.Cocycle.alpha"), setups),
        "kex.setup_public_params_s": (per_setup_s("kex.setup_public_params"), setups),
        "algebra.products_per_encaps": (products_per("encaps"), tr.ops(["encaps"])),
        "algebra.products_per_decaps": (products_per("decaps"), rts),
        "algebra.products_per_kex": (products_per("kex"), kex_ops),
        "algebra.product_us": (tr.mean_us(PROTOCOL, product), tr.ops(PROTOCOL)),
        "algebra.product_share": (
            _ratio(tr.total(PROTOCOL, "incl", product), tr.op_ns(PROTOCOL)),
            tr.ops(PROTOCOL)),
        "algebra.adjunct_us": (tr.mean_us(PROTOCOL, "algebra.adjunct"), tr.ops(PROTOCOL)),
        "algebra.serialize_us": (tr.mean_us(ROUNDTRIP, serialize, outer=True), rts),
        "algebra.serialize_calls_per_roundtrip": (per_roundtrip("outer_count", serialize), rts),
        "algebra.serialize_bytes_per_roundtrip": (per_roundtrip("outer_bytes", serialize), rts),
        "algebra.sample_us": (tr.mean_us(sampled, sample, outer=True), tr.ops(sampled)),
        "algebra.deserialize_us": (tr.mean_us(CLI, "algebra.rep_deserialize"), cli_ops),
        "formats.read_param_file_s": (
            tr.mean_us(CLI, "formats.read_param_file") / 1e6, cli_ops),
        "formats.read_element_file_us": (tr.mean_us(CLI, "formats.read_element_file"), cli_ops),
        "formats.write_element_file_us": (
            tr.mean_us(CLI, "formats.write_element_file"), cli_ops),
        "pke.enc_us": (tr.mean_us(ROUNDTRIP, "pke.pke_enc"), rts),
        "pke.dec_us": (tr.mean_us(ROUNDTRIP, "pke.pke_dec"), rts),
        "pke.gen_resample_ratio": (
            _ratio(tr.edge(["keygen"], "pke.pke_gen", "kex.derive_public"),
                   tr.total(["keygen"], "count", ["pke.pke_gen"])),
            tr.ops(["keygen"])),
        "kem.hash_g1_us": (tr.mean_us(ROUNDTRIP, "kem.hash_g1"), rts),
        "kem.hash_g1_blocks_per_call": (
            _ratio(tr.edge(ROUNDTRIP, "kem.hash_g1", "algebra.AlgebraParams.element"),
                   tr.total(ROUNDTRIP, "count", ["kem.hash_g1"])),
            rts),
        "kem.hash_g2_us": (tr.mean_us(ROUNDTRIP, "kem.hash_g2"), rts),
        "kem.self_us_per_roundtrip": (per_roundtrip("self_ns", kem_names, 1e3), rts),
        "kem.rejections": (float(traced.rejections), rts),
        "kex.derive_public_us": (tr.mean_us(["kex"], "kex.derive_public"), kex_ops),
        "kex.derive_shared_us": (tr.mean_us(["kex"], "kex.derive_shared"), kex_ops),
        "attacks.exhaustive.candidates": median_of(t_samples, "exhaustive_cands"),
        "attacks.mitm.candidates": median_of(t_samples, "mitm_cands"),
        "attacks.products_per_candidate": (
            _ratio(tr.total(ATTACK, "count", product), attack_cands), tr.ops(ATTACK)),
        "attacks.index_h_us": (tr.mean_us(["mitm"], "algebra.index_h"), mitm_ops),
        "attacks.mitm.table_entries": (
            float(traced.table.entries) if traced.table else 0.0, setups),
        "attacks.mitm.table_build_s": (per_setup_s("attacks.mitm_offline"), setups),
        "attacks.mitm.bucket_probes": (tr.per(["mitm"], probes), mitm_ops),
        "attacks.mitm.match_ratio": (
            _ratio(tr.edge(["mitm"], "attacks.mitm_online",
                           "algebra.AlgebraElement.__eq__"), probes),
            mitm_ops),
        "cli.import_s": (statistics.median(cli_import), len(cli_import)),
        "cli.encaps_s": median_of(u_samples, "cli_encaps"),
        "cli.decaps_s": median_of(u_samples, "cli_decaps"),
        "trace.overhead_ratio": (
            _ratio(statistics.median(t_samples["roundtrip"]),
                   statistics.median(u_samples["roundtrip"])),
            len(t_samples["roundtrip"])),
    }
    for solver in ATTACK:
        for metric in ("solve_ms", "cands_per_s"):
            values[f"attacks.{solver}.{metric}"] = report.get(
                f"{solver}_{metric}", (0.0, 0))
    return values
