"""Golden outputs: the seeded CLI pipeline writes the same bytes as the
reference run, file by file, pinned by SHA-256.

A refactor that keeps behaviour must keep these digests; a change that
alters outputs on purpose (a new encoding, a new hash layout) must say so
and record new ones.
"""

import contextlib
import hashlib
import io

import pytest

from twisted_dihedral.cli import main

GOLDEN = {
    (3, 1, 3): {
        "params": "20d5060f959430cfedacb0f81ad16cfe1aa1f2277ddbb48a86333ca81e626bfc",
        "pk": "2aac548348006f92dbdc5351a46927155d69e3c0664303a25ad6a5aa402d7e9f",
        "sk": "336595b87cc6a91dece386d78b7d5fe83c109824f6b2342936a65f969b0a5831",
        "ct": "937affa14bc7e9c84894f94e629fadc223e9e90dce615f7964ac8d2ebef984ee",
        "key_enc": "2efc5e7cc8b6d33e170bfa445ef069a70d2df7aeaa9abf32be341a9f7d02c5f6",
        "key_dec": "2efc5e7cc8b6d33e170bfa445ef069a70d2df7aeaa9abf32be341a9f7d02c5f6",
        "kex-demo": "02cdad77e15438b24646b39a99782587ab9da8c98221fe581691d4b1315b6814",
    },
    (3, 2, 9): {
        "params": "efa683acc19364114def8c6a3fc6952de29d12f157baea0341f6ebd938a14cc5",
        "pk": "e1a5d422810d5d03e4372a45766b93376f0635f9fccfce6cca75c1dadeb80a98",
        "sk": "4e03d04ec7555f104bd0e46fc0b4e27554936acdc7708a08a0996ef22b0b55ee",
        "ct": "660b1453fe75608395b9e4817f31af4d28a98ee9a4cfa2a10937e2bd5baac38c",
        "key_enc": "1f481acdcfe8bea321882ec7544fda0d95972e0c767b5d3a2f3659263d060bf6",
        "key_dec": "1f481acdcfe8bea321882ec7544fda0d95972e0c767b5d3a2f3659263d060bf6",
        "kex-demo": "cc3147e063ba13cd2fd0ae7f008ee537ca8c2193a33666d03cd495d66bb5a64a",
    },
    (3, 7, 9): {
        "params": "15bdda2ae36e084a1b35971e50184e889494d26e33178d82bd8562cf83355fd8",
        "pk": "f4cf0b33420654e668998e90f36e4c1abd149816f5670e58ed620f0a9d64775a",
        "sk": "5a96b2b68a318d4bc540249f130f69a65ccbd70c18d69d40b1ccf31916b2da99",
        "ct": "1a170bd3e1bd8e49ed2dfb27eac263cb9d158983719a4e533fe7121231495bb2",
        "key_enc": "8b9dc69a98338b46a46769fa579201ecd8d1b07483afe89f1cf33e697a8c5f4e",
        "key_dec": "8b9dc69a98338b46a46769fa579201ecd8d1b07483afe89f1cf33e697a8c5f4e",
        "kex-demo": "4bc9f4fbf139a329102a480a514c7ea48793383d55d91e172ebba9e83d672fbc",
    },
}


def pipeline_digests(d, p, m, n):
    """Run param-gen, keygen, encaps, decaps and kex-demo with fixed seeds;
    return the SHA-256 of each file written and of kex-demo's stdout."""
    f = {k: d / f"{k}.txt"
         for k in ("params", "pk", "sk", "ct", "key_enc", "key_dec")}
    commands = [
        ["param-gen", "--p", p, "--m", m, "--n", n, "--out", f["params"],
         "--seed", 41],
        ["keygen", "--params", f["params"], "--out-pk", f["pk"],
         "--out-sk", f["sk"], "--seed", 42],
        ["encaps", "--params", f["params"], "--pk", f["pk"],
         "--out-ct", f["ct"], "--out-key", f["key_enc"], "--seed", 43],
        ["decaps", "--params", f["params"], "--sk", f["sk"],
         "--ct", f["ct"], "--out-key", f["key_dec"]],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0, argv[0]
    kex_out = io.StringIO()
    with contextlib.redirect_stdout(kex_out):
        assert main(["kex-demo", "--params", str(f["params"]), "--seed", "44"]) == 0
    data = {k: path.read_bytes() for k, path in f.items()}
    data["kex-demo"] = kex_out.getvalue().encode()
    return {k: hashlib.sha256(v).hexdigest() for k, v in data.items()}


@pytest.mark.parametrize("triple", sorted(GOLDEN))
def test_cli_outputs_match_golden(tmp_path, triple):
    assert pipeline_digests(tmp_path, *triple) == GOLDEN[triple]


# Lines of `attack` output that hold timings, which differ run to run.
TIMING_LINES = ("wall time:", "candidates/s:", "offline table build time:")

ATTACK_GOLDEN = {
    "exhaustive": "096ddc71b0518fc748e5bea72a86c39b1e8352d531145cc159d3dc22fc07564b",
    "mitm": "50d8c399897416cdd95346d0054880fa881e25e4d4c6645a784f7cfd64099942",
}


def attack_digest(d, kind):
    """SHA-256 of `attack` stdout on the seeded (3,1,3) params and pk,
    without the timing lines."""
    params, pk, sk = d / "params.txt", d / "pk.txt", d / "sk.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["param-gen", "--p", "3", "--m", "1", "--n", "3",
                     "--out", str(params), "--seed", "41"]) == 0
        assert main(["keygen", "--params", str(params), "--out-pk", str(pk),
                     "--out-sk", str(sk), "--seed", "42"]) == 0
    argv = ["attack", "--params", str(params), "--pk", str(pk), kind]
    if kind == "mitm":
        argv += ["--t", "1"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    kept = [line for line in out.getvalue().splitlines(keepends=True)
            if not line.startswith(TIMING_LINES)]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(ATTACK_GOLDEN))
def test_attack_output_matches_golden(tmp_path, kind):
    assert attack_digest(tmp_path, kind) == ATTACK_GOLDEN[kind]


COCYCLE_GOLDEN = {
    ((3, 1, 3), None): "3c204c338805faf422780bca4564f29ba20914e353d6ca0dbca5da9d5a7b8ad5",
    ((3, 2, 9), None): "332889ac39443b4aa8053182645a022efb28ad174b5a95edf7db401b29b669fe",
    ((3, 2, 9), "2,0"): "8b7580ed7a3d7b7c0d18e6956b755c49aa752713d87a21cff21856449d0b49bf",
}


def cocycle_check_digest(d, p, m, n, beta_lambda):
    """SHA-256 of `cocycle-check` stdout on the seeded params, and its exit
    code: the protocol cocycle, or the comparison cocycle for these lambda
    digits."""
    params = d / "params.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["param-gen", "--p", str(p), "--m", str(m), "--n", str(n),
                     "--out", str(params), "--seed", "41"]) == 0
    argv = ["cocycle-check", "--params", str(params)]
    if beta_lambda is not None:
        argv += ["--beta-lambda", beta_lambda]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


@pytest.mark.parametrize("triple,beta_lambda", list(COCYCLE_GOLDEN),
                         ids=["3-1-3", "3-2-9", "3-2-9-beta"])
def test_cocycle_check_output_matches_golden(tmp_path, triple, beta_lambda):
    # the protocol cocycle is valid; lambda = (2, 0) = -1 has order 2 in
    # F_9, which does not divide n = 9, so the comparison cocycle is not
    want_code = 0 if beta_lambda is None else 1
    assert cocycle_check_digest(tmp_path, *triple, beta_lambda) == (
        COCYCLE_GOLDEN[triple, beta_lambda], want_code)
