"""Golden outputs of `fqzeta compositions` for --what list (--k and --N),
greedy and optimal, at q = 2, 3, 4, 8, 9 and 27.

Every expected value here was taken from the CLI before compositions were
built through the trusted constructor and the class-matrix pruning moved
to integer coordinates; the outputs must stay byte-identical.
"""

import hashlib
import json

import pytest

from fqzeta.cli import main

BANNER = "# fqzeta 0.1.0\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


# (argv, text stdout, JSON payload of --format json)
COMPOSITION_EXAMPLES = [
    (
        ("compositions", "--q", "2", "--k", "13", "--d", "3", "--what", "list"),
        BANNER
        + "# q=2 p=2 f=1 modulus=x\n"
        + "(0, 1, 4, 8) weight=6\n"
        + "(0, 1, 8, 4) weight=10\n"
        + "(0, 4, 1, 8) weight=9\n"
        + "(0, 4, 8, 1) weight=16\n"
        + "(0, 8, 1, 4) weight=17\n"
        + "(0, 8, 4, 1) weight=20\n",
        [
            {"parts": [0, 1, 4, 8], "weight": 6},
            {"parts": [0, 1, 8, 4], "weight": 10},
            {"parts": [0, 4, 1, 8], "weight": 9},
            {"parts": [0, 4, 8, 1], "weight": 16},
            {"parts": [0, 8, 1, 4], "weight": 17},
            {"parts": [0, 8, 4, 1], "weight": 20},
        ],
    ),
    (
        ("compositions", "--q", "8", "--k", "63", "--d", "2", "--what", "list"),
        BANNER
        + "# q=8 p=2 f=3 modulus=x^3+x+1\n"
        + "(0, 7, 56) weight=7\n"
        + "(0, 14, 49) weight=14\n"
        + "(0, 21, 42) weight=21\n"
        + "(0, 28, 35) weight=28\n"
        + "(0, 35, 28) weight=35\n"
        + "(0, 42, 21) weight=42\n"
        + "(0, 49, 14) weight=49\n"
        + "(0, 56, 7) weight=56\n",
        [
            {"parts": [0, 7, 56], "weight": 7},
            {"parts": [0, 14, 49], "weight": 14},
            {"parts": [0, 21, 42], "weight": 21},
            {"parts": [0, 28, 35], "weight": 28},
            {"parts": [0, 35, 28], "weight": 35},
            {"parts": [0, 42, 21], "weight": 42},
            {"parts": [0, 49, 14], "weight": 49},
            {"parts": [0, 56, 7], "weight": 56},
        ],
    ),
    (
        ("compositions", "--q", "9", "--N", "131", "--d", "2", "--what", "list"),
        BANNER
        + "# q=9 p=3 f=2 modulus=x^2+1\n"
        + "(32, 99) weight=230\n"
        + "(40, 91) weight=222\n"
        + "(48, 83) weight=214\n"
        + "(104, 27) weight=158\n"
        + "(112, 19) weight=150\n"
        + "(120, 11) weight=142\n"
        + "(128, 3) weight=134\n",
        [
            {"parts": [32, 99], "weight": 230},
            {"parts": [40, 91], "weight": 222},
            {"parts": [48, 83], "weight": 214},
            {"parts": [104, 27], "weight": 158},
            {"parts": [112, 19], "weight": 150},
            {"parts": [120, 11], "weight": 142},
            {"parts": [128, 3], "weight": 134},
        ],
    ),
    (
        ("compositions", "--q", "27", "--N", "80", "--d", "2", "--what", "list"),
        BANNER
        + "# q=27 p=3 f=3 modulus=x^3+2*x+1\n"
        + "(26, 54) weight=134\n"
        + "(52, 28) weight=108\n"
        + "(78, 2) weight=82\n",
        [
            {"parts": [26, 54], "weight": 134},
            {"parts": [52, 28], "weight": 108},
            {"parts": [78, 2], "weight": 82},
        ],
    ),
    (
        ("compositions", "--q", "4", "--k", "45", "--d", "2", "--what", "greedy"),
        BANNER
        + "# q=4 p=2 f=2 modulus=x^2+x+1\n"
        + "(0, 36, 9) weight=36\n",
        [
            {"parts": [0, 36, 9], "weight": 36},
        ],
    ),
    (
        ("compositions", "--q", "9", "--k", "131", "--d", "1", "--what", "greedy"),
        BANNER
        + "# q=9 p=3 f=2 modulus=x^2+1\n"
        + "(99, 32) weight=99\n",
        [
            {"parts": [99, 32], "weight": 99},
        ],
    ),
    (
        ("compositions", "--q", "8", "--k", "147", "--d", "2", "--what", "greedy"),
        BANNER
        + "# q=8 p=2 f=3 modulus=x^3+x+1\n"
        + "(empty set)\n",
        [],
    ),
    (
        ("compositions", "--q", "3", "--N", "40", "--d", "3", "--what", "optimal"),
        BANNER
        + "# q=3 p=3 f=1 modulus=x\n"
        + "(36, 4, 0) weight=44\n",
        [
            {"parts": [36, 4, 0], "weight": 44},
        ],
    ),
    (
        ("compositions", "--q", "8", "--N", "63", "--d", "3", "--what", "optimal"),
        BANNER
        + "# q=8 p=2 f=3 modulus=x^3+x+1\n"
        + "(56, 7, 0) weight=70\n",
        [
            {"parts": [56, 7, 0], "weight": 70},
        ],
    ),
    (
        ("compositions", "--q", "3", "--k", "8", "--d", "5", "--what", "list"),
        BANNER + "# q=3 p=3 f=1 modulus=x\n",
        [],
    ),
]


@pytest.mark.parametrize(
    "argv, text, payload",
    COMPOSITION_EXAMPLES,
    ids=['list-k-q2', 'list-k-q8', 'list-N-q9', 'list-N-q27', 'greedy-q4', 'greedy-q9', 'greedy-empty-q8', 'optimal-q3', 'optimal-q8', 'list-empty-q3'],
)
class TestCompositionsGolden:
    def test_text(self, capsys, argv, text, payload):
        assert run(capsys, *argv) == text

    def test_json(self, capsys, argv, text, payload):
        out = run(capsys, *argv, "--format", "json")
        assert out == json.dumps(payload, indent=2) + "\n"


# sha256 of `fqzeta compositions ARGS --no-banner`, taken before the text
# and JSON outputs were built separately
LISTING_DIGESTS = [
    (
        ("--q", "2", "--N", "255", "--d", "4"),
        "1075a4490743ac5ff822869668872a7ef5fdf02b8c745a38f9af502efdc5e951",
    ),
    (
        ("--q", "9", "--k", "242", "--d", "2", "--format", "json"),
        "0b8eb0f93785f43049592213c512f9ddd4bcc27f46cfd1ef003364edadf5da9f",
    ),
    (
        ("--q", "27", "--N", "728", "--d", "3"),
        "35bbe5b0cb0f2d7196e1bffdaaaab3c61b9da73b21df305bf671b3c194573df2",
    ),
]


@pytest.mark.parametrize("args, digest", LISTING_DIGESTS, ids=["N-q2", "k-q9-json", "N-q27"])
def test_listing_digest(capsys, args, digest):
    out = run(capsys, "compositions", *args, "--no-banner")
    assert hashlib.sha256(out.encode()).hexdigest() == digest

