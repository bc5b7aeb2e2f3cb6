"""Run one workload: set up, time the closed-loop phases, check every output.

The library is imported from `src/` of the checkout this file sits in and
is reached only through its public functions; `run.py` is the command-line
front end and `selftest.py` drives the same code at tiny sizes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import MIN_OPS, POOLED, TAMPER_EVERY, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
PACKAGE = "twisted_dihedral"
MODULES = ["field", "group", "cocycle", "algebra", "kex", "pke", "kem",
           "attacks", "formats", "cli"]
SUBPROCESS_TIMEOUT_S = 150
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                f"import {PACKAGE}.cli; print(time.perf_counter() - t)")


class LibraryMissing(RuntimeError):
    """The checkout holds no library source to benchmark."""


class Lib:
    """The library's modules, imported from this checkout's src/."""

    def __init__(self):
        init = SRC / PACKAGE / "__init__.py"
        if not init.is_file():
            raise LibraryMissing(f"no library source at {init}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{name}")
            if not Path(mod.__file__).resolve().is_relative_to(SRC.resolve()):
                raise LibraryMissing(f"{mod.__name__} imported from {mod.__file__}")
            setattr(self, name, mod)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class Pass:
    """One pass over a workload's phases with fixed seeded inputs.

    Operation i of a pooled phase runs input i % pool, whose RNG is seeded
    by (seed, workload, phase, input); every other phase draws from its own
    RNG seeded by (seed, workload, phase). So operation i of a phase gets
    the same inputs in every pass and run. The output hash covers the
    first pass over the pool, or the first MIN_OPS[phase] operations, of
    each phase, hashed per phase so that the interleaving order does not
    matter.
    """

    def __init__(self, lib: Lib, spec: Workload, seed: int, seconds: float,
                 workdir: Path, setups: int, tracer=None):
        self.lib, self.spec, self.seed = lib, spec, seed
        self.seconds, self.workdir, self.tracer = seconds, workdir, tracer
        self.setups = setups
        self.samples: dict[str, list[float]] = {}
        # fastest time of each pool input, per timed operation
        self.best: dict[str, list[float]] = {}
        self.hashers: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rejections = 0
        self.tamper_valid = 0
        self.counts: dict[str, int] = {}

    # --- bookkeeping ---

    def _rng(self, phase: str, j: int | None = None) -> random.Random:
        """The phase's stream, or the RNG of its pool input j."""
        key = f"{self.seed}:{self.spec.name}:{phase}"
        return random.Random(key if j is None else f"{key}:{j}")

    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def _sample(self, name: str, value: float, j: int | None = None) -> None:
        """Record a sample; j is the pool input it timed, if any."""
        self.samples.setdefault(name, []).append(value)
        if j is not None:
            best = self.best.setdefault(name, [float("inf")] * self.spec.pool)
            best[j] = min(best[j], value)

    def _record(self, phase: str, *parts: bytes) -> None:
        hasher = self.hashers.setdefault(phase, hashlib.sha256())
        for part in parts:
            hasher.update(len(part).to_bytes(8, "big"))
            hasher.update(part)

    def output_sha256(self) -> str:
        """Hash of the hashed outputs, phase by phase in a fixed order."""
        combined = hashlib.sha256()
        for phase in sorted(self.hashers):
            combined.update(phase.encode() + self.hashers[phase].digest())
        return combined.hexdigest()

    def _rep(self, x) -> bytes:
        return self.lib.algebra.rep_serialize(x)

    def _timed(self, kind: str, fn, *args):
        """Call fn, timing only the call; traced as one operation if tracing."""
        clock = time.perf_counter_ns
        if self.tracer is None:
            t0 = clock()
            out = fn(*args)
            return out, clock() - t0
        with self.tracer.op(kind):
            t0 = clock()
            out = fn(*args)
            elapsed = clock() - t0
        return out, elapsed

    # --- phases ---

    def run(self) -> "Pass":
        """Set up, then interleave the phases until each has had its time.

        Phase p runs until it has used shares[p] * seconds and done its
        minimum number of operations. The next operation always goes to the
        phase furthest below its share, so every phase, further set-ups
        included, samples the whole run and a slow spell of the machine
        lands on all metrics alike. A phase whose single operation outlasts
        its share (a CLI pair that builds q x q tables) lengthens the run
        instead of starving the others.
        """
        steps = {"setup": self._setup_step, "keygen": self._keygen_step,
                 "kem": self._kem_step, "kex": self._kex_step}
        if self.spec.mitm_t is not None:
            steps["attack"] = self._attack_step
        steps["cli"] = self._cli_step
        # every set-up reseeds its own stream, so that all give the same parameters
        self.rngs = {phase: self._rng(phase) for phase in MIN_OPS}
        min_ops = dict(MIN_OPS, setup=self.setups)
        min_ops.update(dict.fromkeys(POOLED, self.spec.pool))
        budget = {p: self.spec.shares[p] * self.seconds for p in steps}
        if self.setups == 1:
            budget["setup"] = 0.0
        spent = dict.fromkeys(steps, 0.0)
        self.counts = dict.fromkeys(steps, 0)

        def step(phase: str) -> None:
            i = self.counts[phase]
            t0 = time.perf_counter()
            steps[phase](i, i < min_ops[phase])
            spent[phase] += time.perf_counter() - t0
            self.counts[phase] = i + 1

        step("setup")  # the parameters every later operation uses
        self.prepare_files()
        step("keygen")  # the keypair the round trips use
        while True:
            open_phases = [p for p in steps
                           if spent[p] < budget[p] or self.counts[p] < min_ops[p]]
            if not open_phases:
                break
            step(min(open_phases,
                     key=lambda p: spent[p] / budget[p] if budget[p] else 0.0))
        return self

    def _setup_once(self):
        lib, spec = self.lib, self.spec
        rng = self._rng("setup")
        pp = lib.kex.setup_public_params(spec.p, spec.m, spec.n, rng)
        kp = lib.kem.kem_keygen(pp, rng)
        ct, key = lib.kem.kem_encaps(kp.pk, pp, rng)
        warm_ok = lib.kem.kem_decaps(kp, ct, pp) == key
        table = (lib.attacks.mitm_offline(pp, spec.mitm_t)
                 if spec.mitm_t is not None else None)
        return pp, table, warm_ok

    def _setup_step(self, i: int, hashed: bool) -> None:
        """A fresh set-up, and so a fresh field; set-up 0 serves the pass."""
        # free the previous transient set-up's field tables first
        gc.collect()
        (pp, table, warm_ok), elapsed = self._timed("setup", self._setup_once)
        self._sample("setup", elapsed / 1e9)
        self._check(warm_ok, "set-up warm-up round trip disagrees")
        params_file = self.workdir / ("params.txt" if i == 0 else "params-again.txt")
        self.lib.formats.write_param_file(params_file, pp)
        text = params_file.read_bytes()
        if i == 0:
            self.pp, self.table, self.params_text = pp, table, text
            self._record("setup", text)
            if table is not None:
                self._record("setup", str(table.entries).encode())
        self._check(text == self.params_text, "set-ups gave different parameters")

    def prepare_files(self) -> None:
        """Keypair files for the CLI, laid out as `keygen` writes them."""
        lib = self.lib
        kp = lib.kem.kem_keygen(self.pp, self._rng("cli-keys"))
        algebra = self.pp.algebra
        lib.formats.write_element_file(self.workdir / "pk.txt", algebra, [kp.pk])
        lib.formats.write_element_file(self.workdir / "sk.txt", algebra,
                                       [kp.sk.a, kp.sk.gamma, kp.s, kp.pk],
                                       secret=True)

    def _keygen_step(self, i: int, hashed: bool) -> None:
        lib, pp, j = self.lib, self.pp, i % self.spec.pool
        kp, dt = self._timed("keygen", lib.kem.kem_keygen, pp, self._rng("keygen", j))
        self._sample("keygen", dt, j)
        self._check(lib.kex.derive_public(kp.sk, pp) == kp.pk,
                    "keygen public key is not a*h*gamma")
        if i == 0:
            self.kp = kp
        if hashed:
            self._record("keygen", *(self._rep(x) for x in (kp.pk, kp.s, kp.sk.a, kp.sk.gamma)))

    def _tamper(self, ct, k: int):
        """Add basis vector k to c2; return the ciphertext and its right key.

        c2 + e_k decrypts to m + e_k, and decapsulation must reject it unless
        re-encrypting m + e_k reproduces it. That happens at small sizes when
        the re-derived c1 equals the original one (about 1 in 140 tampered
        ciphertexts at (3,1,6)); such a ciphertext is a valid encapsulation
        of m + e_k and keys on it instead.
        """
        lib, pp, kp = self.lib, self.pp, self.kp
        delta = pp.algebra.basis(k)
        bad = lib.pke.PkeCiphertext(ct.c1, ct.c2 + delta)
        m = lib.pke.pke_dec(ct, kp.sk, pp) + delta
        r = lib.kem.hash_g1(self._rep(m) + self._rep(kp.pk), pp)
        if self._rep(lib.pke.pke_enc(m, kp.pk, r, pp)) == self._rep(bad):
            self.tamper_valid += 1
            return bad, lib.kem.hash_g2(self._rep(m) + self._rep(bad)), False
        return bad, lib.kem.hash_g2(self._rep(kp.s) + self._rep(bad)), True

    def _kem_step(self, i: int, hashed: bool) -> None:
        lib, pp, kp, j = self.lib, self.pp, self.kp, i % self.spec.pool
        rng = self._rng("kem", j)
        (ct, key), t_enc = self._timed("encaps", lib.kem.kem_encaps, kp.pk, pp, rng)
        tampered = j % TAMPER_EVERY == TAMPER_EVERY - 1
        rejected = False
        if tampered:
            ct, key, rejected = self._tamper(ct, rng.randrange(pp.algebra.dim))
        got, t_dec = self._timed("decaps", lib.kem.kem_decaps, kp, ct, pp)
        self._check(got == key, "wrong decaps key for a tampered ciphertext"
                    if tampered else "encaps and decaps keys differ")
        if rejected and got == key:
            self.rejections += 1
        self._sample("encaps", t_enc, j)
        self._sample("decaps", t_dec, j)
        self._sample("roundtrip", t_enc + t_dec)
        if hashed:
            self._record("kem", self._rep(ct), got)

    def _kex_once(self, sid: bytes, rng: random.Random):
        kex, pp = self.lib.kex, self.pp
        alice = kex.Session("initiator", sid, pp, rng)
        bob = kex.Session("responder", sid, pp, rng)
        return alice.complete(bob.public_key), bob.complete(alice.public_key)

    def _kex_step(self, i: int, hashed: bool) -> None:
        j = i % self.spec.pool
        rng = self._rng("kex", j)
        sid = bytes(rng.randrange(256) for _ in range(8))
        (k_a, k_b), dt = self._timed("kex", self._kex_once, sid, rng)
        self._sample("kex", dt, j)
        self._check(k_a == k_b, "key-exchange sides disagree")
        if hashed:
            self._record("kex", self._rep(k_a))

    def _attack_step(self, i: int, hashed: bool) -> None:
        lib, pp, t, rng = self.lib, self.pp, self.spec.mitm_t, self.rngs["attack"]
        attacks = lib.attacks
        sid = bytes(rng.randrange(256) for _ in range(8))
        victim = lib.kex.Session("initiator", sid, pp, rng)
        peer = lib.kex.Session("responder", sid, pp, rng)
        real_key = victim.complete(peer.public_key)
        inst = attacks.DpdInstance(pp, victim.public_key)
        solved = [
            ("exhaustive",) + self._timed("exhaustive", attacks.exhaustive_dpd, inst),
            ("mitm",) + self._timed("mitm", attacks.mitm_online, self.table, inst, t),
        ]
        for solver, result, dt in solved:
            pair = result.pair
            self._check(pair is not None
                        and attacks.dpd_verify(pair, inst)
                        and attacks.key_recovery_check(pair, peer.public_key,
                                                       real_key, pp),
                        f"{solver} pair fails dpd_verify/key_recovery_check")
            self._sample(f"{solver}_solve", dt)
            self._sample(f"{solver}_cands", result.candidates_tested)
            if hashed and pair is not None:
                self._record("attack", self._rep(pair.a), self._rep(pair.gamma),
                             str(result.candidates_tested).encode())

    # --- CLI ---

    def _cli_argv(self, seed: int):
        w = self.workdir
        encaps = ["encaps", "--params", str(w / "params.txt"), "--pk", str(w / "pk.txt"),
                  "--out-ct", str(w / "ct.txt"), "--out-key", str(w / "key_enc.txt"),
                  "--seed", str(seed)]
        decaps = ["decaps", "--params", str(w / "params.txt"), "--sk", str(w / "sk.txt"),
                  "--ct", str(w / "ct.txt"), "--out-key", str(w / "key_dec.txt")]
        return encaps, decaps

    def _cli_subprocess(self, argv) -> tuple[int, float]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", f"{PACKAGE}.cli"] + argv,
                              cwd=ROOT, env=cli_env(), capture_output=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        return proc.returncode, time.perf_counter() - t0

    def _cli_inprocess(self, argv) -> tuple[int, float]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code, elapsed = self._timed(f"cli_{argv[0]}", self.lib.cli.main, argv)
        return code, elapsed / 1e9

    def _cli_step(self, i: int, hashed: bool) -> None:
        """A CLI encaps+decaps pair: in subprocesses, or through `cli.main`
        in-process when tracing, so that the tracer sees the CLI's calls."""
        invoke = self._cli_subprocess if self.tracer is None else self._cli_inprocess
        w = self.workdir
        for name in ("ct.txt", "key_enc.txt", "key_dec.txt"):
            (w / name).unlink(missing_ok=True)
        encaps, decaps = self._cli_argv(self.rngs["cli"].randrange(2 ** 31))
        rc_enc, t_enc = invoke(encaps)
        rc_dec, t_dec = invoke(decaps)
        ok = rc_enc == 0 and rc_dec == 0
        key_enc = (w / "key_enc.txt").read_bytes() if ok else b""
        self._check(ok and key_enc == (w / "key_dec.txt").read_bytes(),
                    f"CLI key files differ (exit codes {rc_enc}, {rc_dec})")
        self._sample("cli_encaps", t_enc)
        self._sample("cli_decaps", t_dec)
        self._sample("cli_roundtrip", t_enc + t_dec)
        if hashed and ok:
            self._record("cli", (w / "ct.txt").read_bytes(), key_enc)


def cli_import_seconds(repeats: int = 3) -> list[float]:
    """Seconds to import the CLI module in a fresh interpreter."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=cli_env(), capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip()))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


@contextlib.contextmanager
def work_dir():
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count(), "commit": git_commit(),
            "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
