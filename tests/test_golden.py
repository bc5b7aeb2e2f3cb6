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
        "ct": "2fed4636b8cc1b2c6b8324753f2e5725b461afc457b615964f8660a2079866db",
        "key_enc": "b99af7a6a13b72f47d000445be74257c52005c0c37d14e0ca92d1b0d6e3386bd",
        "key_dec": "b99af7a6a13b72f47d000445be74257c52005c0c37d14e0ca92d1b0d6e3386bd",
        "kex-demo": "02cdad77e15438b24646b39a99782587ab9da8c98221fe581691d4b1315b6814",
    },
    (3, 2, 9): {
        "params": "efa683acc19364114def8c6a3fc6952de29d12f157baea0341f6ebd938a14cc5",
        "pk": "764b3be28166140dde394efb745c00bf5630f4918ca6b711fd1d432714228f56",
        "sk": "956a20e821f3b01fd82c58d27ab0ff2d496aa0dde307bf9e66e65c607287ed93",
        "ct": "7eefcdfe1b1f2858a8518ce97fc43d4db9a5d4fd148a3f3a92db06298f72ac2e",
        "key_enc": "176d3a351073c254cb47074d195ad5706e46bac4e4a4a825f1247ce68c8b12d3",
        "key_dec": "176d3a351073c254cb47074d195ad5706e46bac4e4a4a825f1247ce68c8b12d3",
        "kex-demo": "cc3147e063ba13cd2fd0ae7f008ee537ca8c2193a33666d03cd495d66bb5a64a",
    },
    (3, 7, 9): {
        "params": "15bdda2ae36e084a1b35971e50184e889494d26e33178d82bd8562cf83355fd8",
        "pk": "063282da89af2759ba0d0dab99e4bab15874b326dd23e578bf6f49d23fedcd97",
        "sk": "338fdaa4111d6156329ef8780f324b095aaa9b6f7d00b01023acbfc8c0e2d219",
        "ct": "4bbc1864c3783a382ca3979d41abed942f23be1c40b8a2834b5b7fb6c1dfda2f",
        "key_enc": "2d9ec6409af81edbd43b09fa43424dca6462ccdb769c42b4d5b60e14a11f1722",
        "key_dec": "2d9ec6409af81edbd43b09fa43424dca6462ccdb769c42b4d5b60e14a11f1722",
        "kex-demo": "4bc9f4fbf139a329102a480a514c7ea48793383d55d91e172ebba9e83d672fbc",
    },
    (101, 1, 101): {
        "params": "f1b3b25efd22c479c8f8d138fe705afbaf8a7cbdcc86dd0d08dbd849f4ec3d3e",
        "pk": "0b06f64b461f1dc92ed63654a250e7ca0d19e6b15957953176430690f4bfaa81",
        "sk": "f3fa1f3c24f783d35b9ae168f329e30c317618c198630909be05890714a82781",
        "ct": "43a18b19fca436e1ea7a3231a9eb227d41d39a17f189e1c8e8819b5996950ef1",
        "key_enc": "d353d9bb99aab2422e049809013446b13958069bf5129bd33ca010c4c7c46ff7",
        "key_dec": "d353d9bb99aab2422e049809013446b13958069bf5129bd33ca010c4c7c46ff7",
        "kex-demo": "351b9dbdb1873ae95f28a9a1bed02636f069dc4ee773ae51b3f730815ab702f7",
    },
    (5, 3, 5): {
        "params": "b37561de639cd19859bfe57b360a67615a2cf40c09e26ae97f9e592aa5ebd526",
        "pk": "da12e557259f3bcfae8b3889dcf9683abe9cd9832ea30f754fd6daaf45d14c97",
        "sk": "756c653abb2805bff96636e8c9e47004e0875717edf34ac3babf96e634e51aec",
        "ct": "f359012719dc91d85b7e982573c1c68d63e3539607fd41d7f0d78c43acca1362",
        "key_enc": "a6a841c035efdf252fd7b1878e2791f6fdf3f4687a18ef5a125dfa41aef4ec7a",
        "key_dec": "a6a841c035efdf252fd7b1878e2791f6fdf3f4687a18ef5a125dfa41aef4ec7a",
        "kex-demo": "036173d27e76965bcfeb14212d53c516f8f7eb479663160d62c2f758ea9f9ab5",
    },
    (257, 1, 257): {
        "params": "14ee1197321ff36749b9b4d77e788950d5f88466b4113a420de4bfbfd7708039",
        "pk": "e5335358cbd07827edc284a5047f77090745153640a33fcfa6784a73b261fefd",
        "sk": "42a03fb56bc2c716d9a8e36515f9e822397ad681c2443449b5adccbc8315b748",
        "ct": "8cd82a3d10cf8710afb2a456ebab8ba9d0651e4eb05d9138b86b53f9ead860b1",
        "key_enc": "98a51cb347e5fc2f2f07a9bce84c1c212cd28bdba2283ddc283c982c7539e38f",
        "key_dec": "98a51cb347e5fc2f2f07a9bce84c1c212cd28bdba2283ddc283c982c7539e38f",
        "kex-demo": "61a91f585dd1e39bcabae0b65e4a64b461f2481fb9e55eb9ff8d3ffef5209803",
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


@pytest.mark.parametrize("triple", list(GOLDEN))
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
    # F_9, which does not divide n = 9, so the comparison cocycle is not,
    # and the check exits 3: it ran, and its answer is no
    want_code = 0 if beta_lambda is None else 3
    assert cocycle_check_digest(tmp_path, *triple, beta_lambda) == (
        COCYCLE_GOLDEN[triple, beta_lambda], want_code)
