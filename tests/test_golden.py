"""Golden outputs of the README CLI examples and of a small verify run.

Every expected value here was taken from the CLI before the sweep and
verify code paths were consolidated; the outputs must stay byte-identical.
"""

import hashlib
import json
import re

import pytest

from fqzeta import cli, fqpoly
from fqzeta.cli import main

BANNER = "# fqzeta 0.1.0\n"
HEADER_Q3 = "# q=3 p=3 f=1 modulus=x\n"
HEADER_Q9 = "# q=9 p=3 f=2 modulus=x^2+1\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


def _zeta_record(s, classification):
    return {
        "q": 3,
        "p": 3,
        "f": 1,
        "modulus": "x",
        "s": list(s),
        "depth": len(s),
        "value": "0",
        "valuation": "inf",
        "classification": classification,
        "exact": True,
    }


# (argv, text stdout, JSON payload of --format json)
README_EXAMPLES = [
    (
        ("powersum", "--q", "3", "--d", "2", "--s", "-8"),
        BANNER + HEADER_Q3 + "S(2, -8) [formula] = t^6+t^4+t^2  valuation=2\n",
        [
            {
                "q": 3,
                "p": 3,
                "f": 1,
                "modulus": "x",
                "d": 2,
                "s": -8,
                "method": "formula",
                "value": "t^6+t^4+t^2",
                "valuation": 2,
            }
        ],
    ),
    (
        ("mzv", "--q", "3", "--s", "-8,2"),
        BANNER
        + HEADER_Q3
        + "zeta(-8, 2) = 0\n"
        + "valuation=inf  classification=not_applicable  exact=True\n",
        _zeta_record((-8, 2), "not_applicable"),
    ),
    (
        ("mzv", "--q", "3", "--s", "-1,-2"),
        BANNER
        + HEADER_Q3
        + "zeta(-1, -2) = 0\n"
        + "valuation=inf  classification=trivial_zero  exact=True\n",
        _zeta_record((-1, -2), "trivial_zero"),
    ),
    (
        ("compositions", "--q", "9", "--N", "131", "--d", "2", "--what", "matrices"),
        BANNER + HEADER_Q9 + "[[2, 3], [2, 0]]\n[[5, 0], [1, 1]]\n",
        [{"rows": [[2, 3], [2, 0]]}, {"rows": [[5, 0], [1, 1]]}],
    ),
    (
        ("compositions", "--q", "3", "--k", "8", "--d", "1", "--what", "modest"),
        BANNER + HEADER_Q3 + "(0, 8) weight=0\n",
        [{"parts": [0, 8], "weight": 0}],
    ),
]


@pytest.mark.parametrize(
    "argv, text, payload",
    README_EXAMPLES,
    ids=["powersum", "mzv-mixed", "mzv-trivial", "matrices", "modest"],
)
class TestReadmeExamples:
    def test_text(self, capsys, argv, text, payload):
        assert run(capsys, *argv) == text

    def test_json(self, capsys, argv, text, payload):
        out = run(capsys, *argv, "--format", "json")
        assert out == json.dumps(payload, indent=2) + "\n"


@pytest.fixture
def memo(request, monkeypatch):
    """The sweep writers' chunk budget: the default, or 1 bit, which closes
    every chunk after its one row, so that each row's values are read back
    and formatted afresh (a memo of one row)."""
    if request.param is not None:
        monkeypatch.setattr(cli, "_CHUNK_BITS", request.param)


def sweep_runs(jobs):
    """Each sweep digest is taken in one process, in worker processes, and
    in one process with one row per chunk: the budget changes no byte."""
    return pytest.mark.parametrize(
        "jobs, memo",
        [("1", None), (jobs, None), ("1", 1)],
        ids=["1", jobs, "1-memo1"],
        indirect=["memo"],
    )


# sha256 of the stdout of `fqzeta sweep --q 2,3 --depth 2 --smin -20`
SWEEP_SHA256 = {
    "csv": "addd00fafb57da025c189688d06d145ba9c4713878264ac5edb1d455fdc1565d",
    "json": "83d9fe0fb4031906371a2c64018540fb2aa6189a90ba8762ad9f606dceec3d67",
}


@sweep_runs("4")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_readme_sweep_digest(capsys, fmt, jobs, memo):
    out = run(
        capsys,
        "sweep", "--q", "2,3", "--depth", "2", "--smin", "-20",
        "--format", fmt, "--jobs", jobs,
    )
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[fmt]


# sha256 of the stdout of `fqzeta sweep --q 2,3,9 --depth 3 --smin -12`,
# taken before sweeps were evaluated one grid row per engine call
DEPTH3_SWEEP_SHA256 = {
    "csv": "d480f585780034075dff74325f6cc9d58532e0a91ede6b2bf829dacb3345c11f",
    "json": "bb4094fbeb65ebd42a1abc5b39f77bc727bde0eb82b0feec8332d24b2c612a15",
}


@sweep_runs("2")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_depth_three_sweep_digest(capsys, fmt, jobs, memo):
    out = run(
        capsys,
        "sweep", "--q", "2,3,9", "--depth", "3", "--smin", "-12",
        "--format", fmt, "--jobs", jobs,
    )
    assert hashlib.sha256(out.encode()).hexdigest() == DEPTH3_SWEEP_SHA256[fmt]


# sha256 of the stdout of `fqzeta sweep --q 4,9` over two grids, taken
# before the sweep CSV was written one grid row at a time.  At f > 1 the
# value text holds commas (`[1,0]`) and is quoted; at depth 1 the s_tuple
# has none and is not.
F2_SWEEP_SHA256 = {
    ("2", "-30", "csv"): "341eab29a7f0d4a00232cd3652aa8979b35a0d26e756845bccf15c847ee3a2b4",
    ("2", "-30", "json"): "9a8444fb95cd5d98cb829f355ccca2fa7f6f62805822a1ebbab2df84942de2bd",
    ("1", "-40", "csv"): "5eabe5a78096102bb822e9fb03f4cc0ac37dd54f30d408fef16718f5a1516930",
    ("1", "-40", "json"): "30a88a3fd8893086430268d9e0aa96ab9742955640c22da07cc410e290758f71",
}


@sweep_runs("2")
@pytest.mark.parametrize("depth, smin, fmt", sorted(F2_SWEEP_SHA256))
def test_extension_field_sweep_digest(capsys, depth, smin, fmt, jobs, memo):
    out = run(
        capsys,
        "sweep", "--q", "4,9", "--depth", depth, "--smin", smin,
        "--format", fmt, "--jobs", jobs,
    )
    assert hashlib.sha256(out.encode()).hexdigest() == F2_SWEEP_SHA256[depth, smin, fmt]


# sha256 of the stdout of `fqzeta sweep --q Q --depth D --smin S`, taken
# before the sweep writers read text and valuation straight from packed
# values: f = 3 over p = 2 and p = 3, and q = 257, the first field on
# 32-bit limbs
WIDE_SWEEP_SHA256 = {
    ("8", "2", "-40", "csv"): "b619fbf872622bcdeaa21d8664d33ae2ca2227d6054f65460cc3cc788593a187",
    ("8", "2", "-40", "json"): "79f26ae6c1305e155aef7463e51bd366f6e0f6a0d7200eb71fe91755219685f7",
    ("27", "1", "-60", "csv"): "d3f9ab05b114f9f76f43a6c768ec05f96b179af9e798eecdeaaf2e88808ea72d",
    ("27", "1", "-60", "json"): "40cdc5e278ece2f7e9b285dac7fdb37a7e6160ec6f813ff5ce78ca885c4bdcd8",
    ("257", "1", "-600", "csv"): "5ad81e9cddebe6e42c15ba62aa51c79b0db7dad33e611d353089f2f68cae90da",
    ("257", "1", "-600", "json"): "872754f41f868cba71bca8d6d08d2296cb34d9ab9afc2c9fbefb87afe6ee5955",
}


@sweep_runs("2")
@pytest.mark.parametrize("q, depth, smin, fmt", sorted(WIDE_SWEEP_SHA256))
def test_wide_field_sweep_digest(capsys, q, depth, smin, fmt, jobs, memo):
    out = run(
        capsys,
        "sweep", "--q", q, "--depth", depth, "--smin", smin,
        "--format", fmt, "--jobs", jobs,
    )
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_SWEEP_SHA256[q, depth, smin, fmt]


# sha256 of the file `fqzeta sweep --q Q --depth 2 --smin S --out F` writes,
# taken while every row sum was a PackedSum: ``fqpoly._products_fit``
# refuses the plain sum of one q = 11 row or suffix table, so the plain
# q = 11 run takes both routes, and with the helper refusing everything the
# PackedSum route must write the same bytes.  At q = 13, and at q = 257 on
# 32-bit limbs, the helper admits every sum, so the PackedSum route is
# reached only by refusing; at q = 257 the digest is the plain route's, and
# -s_1 reaches 256, 512 and 513, the rows that are not all zero
FALLBACK_SWEEP_SHA256 = {
    ("13", "-200"): "5f9fc59d470e907e170d43433ece79cf981ded81c27ee820aa979042ca249c48",
    ("11", "-300"): "6d72005cc4550016cbf78b73ac25d8f8e5e396c2925f37dec816d14d4dfa9a70",
    ("257", "-513"): "252f9d670bbe2c1b5e3f92afb95570984df52e70862fb036ccb439780f344f5a",
}


@pytest.mark.parametrize("route", ["plain", "packed"])
@pytest.mark.parametrize("q, smin", sorted(FALLBACK_SWEEP_SHA256))
def test_fallback_sweep_digest(capsys, monkeypatch, tmp_path, q, smin, route):
    refused = []

    def refuse(*args):
        refused.append(args)
        return False

    if route == "packed":
        monkeypatch.setattr(fqpoly, "_products_fit", refuse)
    out = tmp_path / "sweep.csv"
    run(capsys, "sweep", "--q", q, "--depth", "2", "--smin", smin, "--out", str(out))
    assert bool(refused) == (route == "packed")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FALLBACK_SWEEP_SHA256[q, smin]


VERIFY_MZV_LINES = [
    "PASS mixed-sign-example: all displayed identities reproduced exactly",
    "PASS trivial-zero-equivalence: 2304 tuples evaluated exactly, 1856 zeros, "
    "all zeros trivial, zero mismatch errors",
    "PASS valuation-additivity: 448 nonzero tuples match the additive valuation",
    "PASS depth-one-parity: 1 <= -s <= 20, vanishing iff q-even",
    "4/4 checks passed",
]


def test_verify_mzv_lines(capsys):
    out = run(capsys, "verify", "--suite", "mzv", "--smin", "-8", "--goss-kmax", "20")
    lines = [re.sub(r" \[\d+ ms\]$", "", line) for line in out.splitlines()]
    assert lines == VERIFY_MZV_LINES
