import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import Future
from pathlib import Path

import pytest

from fqzeta import cli, field_from_q, verify, zeta_negative
from fqzeta.cli import main


def _done(value):
    """A future already holding value: what a stand-in pool's submit returns."""
    future = Future()
    future.set_result(value)
    return future


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


WIDE_PRIME = str(2**61 - 1)


@pytest.mark.parametrize(
    "argv",
    [
        ("powersum", "--q", WIDE_PRIME, "--d", "1", "--s", "-1"),
        ("mzv", "--q", WIDE_PRIME, "--s", "-1"),
        ("compositions", "--q", WIDE_PRIME, "--k", "3", "--d", "1"),
        ("sweep", "--q", f"3,{WIDE_PRIME}", "--smin", "-2"),
        ("verify", "--suite", "digits", "--q", WIDE_PRIME),
    ],
    ids=["powersum", "mzv", "compositions", "sweep", "verify"],
)
def test_wide_prime_q_is_refused_at_once(capsys, argv):
    # 2^61 - 1 is prime and far too wide for a 64-bit limb: every --q path
    # applies the field-size rule before factoring q, so none trial-divides
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        f"fqzeta: error: q = {WIDE_PRIME}^1: (p-1)^2*f + p-1 exceeds a 64-bit limb\n"
    )


class TestPowersumCommand:
    def test_formula_text(self, capsys):
        code, out, _ = run(
            capsys, "powersum", "--q", "3", "--d", "2", "--s", "-8"
        )
        assert code == 0
        assert "S(2, -8) [formula] = t^6+t^4+t^2  valuation=2" in out
        assert "# q=3 p=3 f=1 modulus=x" in out

    def test_zero_case(self, capsys):
        code, out, _ = run(
            capsys, "powersum", "--q", "3", "--d", "3", "--s", "-8"
        )
        assert code == 0
        assert "= 0  valuation=inf" in out

    def test_d0(self, capsys):
        code, out, _ = run(
            capsys, "powersum", "--q", "3", "--d", "0", "--s", "-5"
        )
        assert code == 0
        assert "= 1  valuation=0" in out

    def test_both_agree(self, capsys):
        code, out, _ = run(
            capsys,
            "powersum", "--q", "3", "--d", "1", "--s", "-8",
            "--method", "both",
        )
        assert code == 0
        assert "agreement: AGREE" in out

    def test_readme_both_golden_text(self, capsys):
        code, out, _ = run(
            capsys,
            "powersum", "--q", "3", "--d", "1", "--s", "-8",
            "--method", "both",
        )
        assert code == 0
        assert out == (
            "# fqzeta 0.1.0\n"
            "# q=3 p=3 f=1 modulus=x\n"
            "S(1, -8) [formula] = 2*t^6+2*t^4+2*t^2+2  valuation=0\n"
            "S(1, -8) [bruteforce] = 2*t^6+2*t^4+2*t^2+2  valuation=0\n"
            "agreement: AGREE\n"
        )

    def test_readme_both_golden_json(self, capsys):
        code, out, _ = run(
            capsys,
            "powersum", "--q", "3", "--d", "1", "--s", "-8",
            "--method", "both", "--format", "json",
        )
        assert code == 0
        expected = [
            {
                "q": 3,
                "p": 3,
                "f": 1,
                "modulus": "x",
                "d": 1,
                "s": -8,
                "method": method,
                "value": "2*t^6+2*t^4+2*t^2+2",
                "valuation": 0,
            }
            for method in ("formula", "bruteforce")
        ] + [{"agreement": True}]
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "powersum", "--q", "9", "--d", "1", "--s", "-2",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["q"] == 9 and rec["modulus"] == "x^2+1"

    def test_p_f_flags(self, capsys):
        code, out, _ = run(
            capsys, "powersum", "--p", "3", "--f", "2", "--d", "1", "--s", "-2"
        )
        assert code == 0
        assert "q=9" in out

    def test_resource_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "powersum", "--q", "3", "--d", "4", "--s", "-2",
            "--method", "bruteforce", "--max-terms", "10",
        )
        assert code == 3
        assert "resource" in err

    @pytest.mark.parametrize("method", ["bruteforce", "both"])
    def test_negative_max_terms_is_usage_error(self, capsys, method):
        code, out, err = run(
            capsys,
            "powersum", "--q", "3", "--d", "1", "--s", "-2",
            "--method", method, "--max-terms", "-1",
        )
        assert (code, out) == (1, "")
        assert "--max-terms" in err

    def test_zero_max_terms_is_resource_limit(self, capsys):
        code, out, err = run(
            capsys,
            "powersum", "--q", "3", "--d", "1", "--s", "-2",
            "--method", "bruteforce", "--max-terms", "0",
        )
        assert (code, out) == (3, "")
        assert "resource limit" in err

    def test_formula_guard_exit_code(self, capsys):
        # digits (256, 256) base 257: the recurrence's work bound
        # 257^2 + C(258, 2)^2 ~ 1.1e9 exceeds the guard
        code, _, err = run(
            capsys, "powersum", "--q", "257", "--d", "2", "--s", "-66048"
        )
        assert code == 3
        assert "resource" in err

    def test_usage_exit_code(self, capsys):
        code, _, err = run(capsys, "powersum", "--q", "6", "--d", "1", "--s", "-2")
        assert code == 1

    def test_field_too_wide_for_limbs_exit_code(self, capsys):
        code, _, err = run(
            capsys, "powersum", "--p", "4294967311", "--d", "1", "--s", "-2"
        )
        assert code == 1
        assert "limb" in err

    def test_negative_f_is_named(self, capsys):
        code, out, err = run(
            capsys, "powersum", "--p", "3", "--f", "-1", "--d", "1", "--s", "-2"
        )
        assert (code, out, err) == (1, "", "fqzeta: error: f must be >= 1, got -1\n")

    def test_bad_flag_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["powersum", "--q", "3", "--d", "x", "--s", "-2"])
        assert exc.value.code == 1


class TestMzvCommand:
    def test_mixed_example(self, capsys):
        code, out, _ = run(capsys, "mzv", "--q", "3", "--s", "-8,2")
        assert code == 0
        assert "zeta(-8, 2) = 0" in out
        assert "exact=True" in out

    def test_goss_even(self, capsys):
        code, out, _ = run(capsys, "mzv", "--q", "3", "--s", "-2")
        assert code == 0
        assert "zeta(-2) = 0" in out

    def test_trivial_zero(self, capsys):
        code, out, _ = run(capsys, "mzv", "--q", "3", "--s", "-1,-2")
        assert code == 0
        assert "classification=trivial_zero" in out

    def test_json_record(self, capsys):
        code, out, _ = run(
            capsys, "mzv", "--q", "3", "--s", "-2,-2", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["classification"] == "nonzero"
        assert rec["valuation"] == 0


class TestCompositionsCommand:
    def test_matrices_example(self, capsys):
        code, out, _ = run(
            capsys,
            "compositions", "--q", "9", "--N", "131", "--d", "2",
            "--what", "matrices",
        )
        assert code == 0
        assert "[[5, 0], [1, 1]]" in out
        assert "[[2, 3], [2, 0]]" in out

    def test_modest_example(self, capsys):
        code, out, _ = run(
            capsys,
            "compositions", "--q", "3", "--k", "8", "--d", "1",
            "--what", "modest",
        )
        assert code == 0
        assert "(0, 8)" in out

    def test_empty_listing_exit_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "compositions", "--q", "3", "--k", "8", "--d", "5",
            "--what", "list",
        )
        assert code == 0

    def test_empty_selection(self, capsys):
        code, out, _ = run(
            capsys,
            "compositions", "--q", "3", "--k", "8", "--d", "5",
            "--what", "modest",
        )
        assert code == 0
        assert "(empty set)" in out

    def test_requires_exactly_one_target(self, capsys):
        code, _, err = run(
            capsys, "compositions", "--q", "3", "--d", "1", "--what", "list"
        )
        assert code == 1

    @pytest.mark.parametrize("target", [("--k", "8"), ("--N", "8")])
    def test_negative_max_results_is_usage_error(self, capsys, target):
        code, out, err = run(
            capsys, "compositions", "--q", "3", *target, "--d", "1",
            "--max-results", "-1",
        )
        assert (code, out) == (1, "")
        assert "--max-results" in err

    def test_result_cap_exit_code(self, capsys):
        # the head-free index set of 2^16 - 1 at d = 15 has 16! members in
        # one class-matrix class
        code, out, err = run(
            capsys, "compositions", "--q", "2", "--k", "65535", "--d", "15",
            "--max-results", "10000",
        )
        assert (code, out) == (3, "")
        assert "resource limit" in err

    def test_convention_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            "compositions", "--q", "3", "--k", "8", "--d", "1",
            "--what", "matrices",
        )
        assert code == 1


class TestSweepCommand:
    @pytest.mark.parametrize("q, smin", [(2, -30), (9, -30)], ids=["q2", "q9-zeros"])
    def test_chunks_are_bounded_in_bits(self, monkeypatch, q, smin):
        # each chunk is read back by one canonical_texts call over its
        # distinct values, and closes as soon as its charge, bit lengths
        # plus _VALUE_BITS per value, reaches _CHUNK_BITS; at q = 9 every
        # value is 0, so only the per-value charge bounds those chunks
        field = field_from_q(q)
        rows = list(cli.mzv.sweep_rows(field, [range(smin, 0)] * 3))
        calls = []
        texts = cli.canonical_texts

        def counted(field, values):
            calls.append(values)
            return texts(field, values)

        def charge(rows):
            values = [n for _, _, row in rows for n in row]
            return sum(map(int.bit_length, values)) + cli._VALUE_BITS * len(values)

        monkeypatch.setattr(cli, "canonical_texts", counted)
        chunks = list(cli._chunk_texts(field, iter(rows)))
        assert [row for chunk, _ in chunks for row in chunk] == rows
        assert 1 < len(chunks) < len(rows)
        assert len(calls) == len(chunks)
        for (chunk, read), values in zip(chunks, calls):
            assert values == list(dict.fromkeys(n for _, _, row in chunk for n in row))
            assert list(read) == values
            assert charge(chunk[:-1]) < cli._CHUNK_BITS
            assert charge(chunk) >= cli._CHUNK_BITS or chunk is chunks[-1][0]
        monkeypatch.setattr(cli, "_CHUNK_BITS", 1)
        assert [chunk for chunk, _ in cli._chunk_texts(field, rows)] == [[row] for row in rows]

    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--q", "3", "--depth", "2", "--smin", "-3", "--no-banner",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "q,p,f,s_tuple,depth,value,valuation,classification,exact"
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 9

    def test_jobs_deterministic(self, capsys, tmp_path):
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        code1, _, _ = run(
            capsys,
            "sweep", "--q", "2,3", "--depth", "2", "--smin", "-4",
            "--out", str(f1), "--jobs", "1",
        )
        code2, _, _ = run(
            capsys,
            "sweep", "--q", "2,3", "--depth", "2", "--smin", "-4",
            "--out", str(f2), "--jobs", "2",
        )
        assert code1 == code2 == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_mismatch_writes_nothing(self, capsys, monkeypatch, tmp_path):
        # the output file is opened only after the last row
        from fqzeta import mzv

        monkeypatch.setattr(mzv, "_trivial_criterion", lambda head, q: True)
        out = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys,
            "sweep", "--q", "3", "--depth", "2", "--smin", "-4", "--out", str(out),
        )
        assert code == 2
        assert "trivial-zero criterion holds" in err
        assert not out.exists()

    # the last row of the last q: s = (-1, x) at q = 3
    LAST_ROW_ARGV = ("sweep", "--q", "2,3", "--depth", "2", "--smin", "-4")

    @pytest.mark.parametrize("target", ["stdout", "new", "existing"])
    def test_mismatch_in_last_row_writes_nothing(
        self, capsys, monkeypatch, tmp_path, target
    ):
        # every row but the last is made, and spooled, before the mismatch
        from fqzeta import mzv

        criterion = mzv._trivial_criterion

        def flipped(head, q):
            return criterion(head, q) != (head == (-1,) and q.q == 3)

        monkeypatch.setattr(mzv, "_trivial_criterion", flipped)
        spool_dir = tmp_path / "spool"
        spool_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
        out = tmp_path / "sweep.csv"
        if target == "existing":
            out.write_bytes(b"earlier output\n")
            out.chmod(0o640)
        argv = self.LAST_ROW_ARGV + (() if target == "stdout" else ("--out", str(out)))
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert "zeta(-1, -4) = 0 but no structural index forces it" in err
        assert list(spool_dir.iterdir()) == []
        if target == "existing":
            assert out.read_bytes() == b"earlier output\n"
            assert out.stat().st_mode & 0o777 == 0o640
            assert sorted(tmp_path.iterdir()) == sorted([spool_dir, out])
        else:
            assert list(tmp_path.iterdir()) == [spool_dir]

    def test_new_out_file_mode(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        with open(tmp_path / "reference", "w"):
            pass
        code, _, _ = run(capsys, *self.LAST_ROW_ARGV, "--out", str(out))
        assert code == 0
        assert out.stat().st_mode == (tmp_path / "reference").stat().st_mode

    def test_text_only_stdout(self, capsys, tmp_path):
        # a stdout with no byte buffer gets the text, \r\n kept
        out = tmp_path / "sweep.csv"
        assert main([*self.LAST_ROW_ARGV, "--out", str(out)]) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(self.LAST_ROW_ARGV)) == 0
        assert buf.getvalue().encode() == out.read_bytes()
        assert capsys.readouterr().out == ""

    def test_process_stdout_bytes(self, tmp_path):
        # a process's own text stdout, a pipe here, gets the bytes --out
        # writes, \r\n kept
        out = tmp_path / "sweep.csv"
        assert main([*self.LAST_ROW_ARGV, "--out", str(out)]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fqzeta", *self.LAST_ROW_ARGV],
            env=env, capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out.read_bytes()

    def test_jobs_chunks_written_while_pool_open(self, capsys, monkeypatch, tmp_path):
        # a stand-in pool runs each task in this process when its result is
        # read; the output is complete before the pool is left, so chunks
        # are consumed as the workers would make them, not collected first,
        # and at most 2 * workers tasks are submitted and not yet read
        seen, waiting = [], []

        class Task:
            def __init__(self, fn, task):
                self.fn, self.task = fn, task

            def result(self):
                waiting.remove(self)
                return self.fn(self.task)

        class Pool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                seen.append(out.read_bytes() if out.exists() else None)
                return False

            def submit(self, fn, task):
                waiting.append(Task(fn, task))
                assert len(waiting) <= 4
                return waiting[-1]

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        one, out = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main([*self.LAST_ROW_ARGV, "--out", str(one)]) == 0
        assert main([*self.LAST_ROW_ARGV, "--out", str(out), "--jobs", "2"]) == 0
        assert seen == [one.read_bytes()]
        assert out.read_bytes() == one.read_bytes()

    def test_peak_memory_bounded(self, tmp_path):
        # 216,000 tuples and 61 MB of CSV; the whole output held in memory
        # peaked near 194 MB.  The child reads its own high-water mark
        # (VmHWM): ru_maxrss after exec also counts the parent's peak.
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status")
        child = (
            "import sys\n"
            "from fqzeta.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    hwm = next(l for l in fh if l.startswith('VmHWM:')).split()[1]\n"
            "print(code, int(hwm) / 1024)\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--q", "2", "--depth", "3", "--smin", "-60", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        code, peak_mb = proc.stdout.split()
        assert code == "0"
        assert out.stat().st_size > 50_000_000
        assert float(peak_mb) < 100, peak_mb

    def test_json_records(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--q", "3", "--depth", "2", "--smin", "-2",
            "--format", "json",
        )
        assert code == 0
        recs = json.loads(out)
        assert len(recs) == 4
        assert [tuple(r["s"]) for r in recs] == sorted(
            tuple(r["s"]) for r in recs
        )


    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_records_match_single_evaluations(self, capsys, depth):
        code, out, _ = run(
            capsys,
            "sweep", "--q", "2,3,9", "--depth", str(depth), "--smin", "-8",
            "--format", "json",
        )
        assert code == 0
        recs = json.loads(out)
        assert len(recs) == 3 * 8**depth
        fields = {q: field_from_q(q) for q in (2, 3, 9)}
        for rec in recs:
            assert rec == zeta_negative(rec["s"], fields[rec["q"]]).to_json_dict()

    def test_depth_one_jobs(self, capsys):
        # each --jobs task is then a single one-entry range
        argv = ("sweep", "--q", "2,9", "--depth", "1", "--smin", "-20")
        _, one, _ = run(capsys, *argv)
        _, two, _ = run(capsys, *argv, "--jobs", "2")
        assert one == two
        assert "nonzero" in one and "not_applicable" in one

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code, out, err = run(
            capsys, "sweep", "--q", "3", "--smin", "-2", "--jobs", jobs
        )
        assert (code, out) == (1, "")
        assert "--jobs" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_depth_below_one_is_usage_error(self, capsys, monkeypatch, jobs):
        # refused before any sweep runs; --jobs 2 would otherwise sweep
        # depth 1 from one-entry first ranges
        def refused(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", refused)
        monkeypatch.setattr(cli.mzv, "sweep_rows", refused)
        code, out, err = run(
            capsys, "sweep", "--q", "3", "--smin", "-2", "--depth", "0", "--jobs", jobs
        )
        assert (code, out) == (1, "")
        assert err == "fqzeta: error: index tuple must have depth >= 1\n"

    @pytest.mark.parametrize("jobs, cpus, workers", [(64, 8, 6), (64, 4, 4), (3, 8, 3)])
    def test_jobs_capped(self, capsys, monkeypatch, jobs, cpus, workers):
        # a stand-in pool records its size and maps in this process, so no
        # worker process is ever started
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                return _done(fn(task))

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = ("sweep", "--q", "2,3", "--depth", "2", "--smin", "-3")
        code, pooled, _ = run(capsys, *argv, "--jobs", str(jobs))
        assert code == 0
        # six tasks: one per (q, s_1)
        assert sizes == [workers]
        assert pooled == run(capsys, *argv)[1]


class TestSweepReference:
    """The CSV body of `fqzeta sweep` against csv.writer rows built from
    the per-tuple polynomials of ``sweep_rows`` read by ``canonical_polys``."""

    QS = (2, 3, 4, 8, 9)
    SMIN = -6

    def reference_body(self, sweep_tuples, depth):
        buf = io.StringIO()
        writer = csv.writer(buf)
        for q in self.QS:
            field = field_from_q(q)
            pp = field.pp
            for s, value, cls in sweep_tuples(field, [range(self.SMIN, 0)] * depth):
                writer.writerow((
                    pp.q, pp.p, pp.f, ",".join(map(str, s)), len(s),
                    value.text(), value.t_valuation, cls, True,
                ))
        return buf.getvalue()

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_csv_body_matches_results(
        self, capsys, monkeypatch, sweep_tuples, depth, jobs
    ):
        # a stand-in pool maps in this process, so no worker process starts
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                return _done(fn(task))

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        code, out, err = run(
            capsys,
            "sweep", "--q", ",".join(map(str, self.QS)), "--depth", str(depth),
            "--smin", str(self.SMIN), "--no-banner", "--jobs", str(jobs),
        )
        assert code == 0, err
        assert sizes == ([] if jobs == 1 else [jobs])
        header = "q,p,f,s_tuple,depth,value,valuation,classification,exact\r\n"
        body = out.split(header, 1)[1]
        assert body == self.reference_body(sweep_tuples, depth)
        assert body.count("\r\n") == len(self.QS) * (-self.SMIN) ** depth


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "mzv",
            "--smin", "-5", "--goss-kmax", "10", "--depths", "2",
        )
        assert code == 0
        assert "PASS depth-one-parity" in out
        assert "checks passed" in out

    @pytest.mark.parametrize("suite", ["mzv", "all"])
    def test_depth_below_two_is_usage_error(self, capsys, monkeypatch, suite):
        # depth 1 belongs to depth-one-parity; no suite may start
        def refused(**kwargs):
            raise AssertionError("a suite ran")

        for name in ("run_digit_suite", "run_mzv_suite"):
            monkeypatch.setattr(verify, name, refused)
        code, out, err = run(capsys, "verify", "--suite", suite, "--depths", "1,2")
        assert (code, out) == (1, "")
        assert err == (
            "fqzeta: error: mzv depths must be >= 2 "
            "(depth-one-parity covers depth 1)\n"
        )

    @pytest.mark.parametrize("suite", ["mzv", "all"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--smin", "-3", "--goss-kmax", "-5"), "mzv goss_kmax must be >= 1"),
            (("--smin", "3"), "mzv smin must be <= -1"),
        ],
        ids=["goss-kmax", "smin"],
    )
    def test_empty_or_positive_range_is_usage_error(
        self, capsys, monkeypatch, suite, flags, message
    ):
        # a parity range that checks nothing, or entries above -1: no suite
        # may start
        def refused(**kwargs):
            raise AssertionError("a suite ran")

        for name in ("run_digit_suite", "run_mzv_suite"):
            monkeypatch.setattr(verify, name, refused)
        code, out, err = run(capsys, "verify", "--suite", suite, *flags)
        assert (code, out) == (1, "")
        assert err == f"fqzeta: error: {message}\n"

    @pytest.mark.parametrize(
        "argv, repeated, single, count",
        [
            (
                ("--suite", "mzv", "--smin", "-4", "--goss-kmax", "4"),
                ("--q", "3,3", "--depths", "2,2"),
                ("--q", "3", "--depths", "2"),
                "16 tuples evaluated exactly, 8 zeros",
            ),
            (
                ("--suite", "powersum", "--dmax", "1", "--kmax", "10"),
                ("--q", "3,3"),
                ("--q", "3"),
                "20 (q, d, s) cells compared",
            ),
        ],
        ids=["mzv", "powersum"],
    )
    def test_repeated_fields_and_depths_count_once(
        self, capsys, argv, repeated, single, count
    ):
        code, twice, _ = run(capsys, "verify", *argv, *repeated)
        _, once, _ = run(capsys, "verify", *argv, *single)
        assert code == 0
        assert re.sub(r" \[\d+ ms\]", "", twice) == re.sub(r" \[\d+ ms\]", "", once)
        assert count in twice

    GUARDED = [
        "unique-minimum-weight",
        "monotone-class-lemma",
        "class-partition",
        "selection-route-agreement",
        "reversal-bijection",
    ]

    def test_guard_trip_is_not_a_failure(self, capsys):
        # at q = 31 five compose checks reach a digit sum above
        # DIGIT_SUM_LIMIT: each is a guard trip (exit 3), none a disagreement
        code, out, err = run(capsys, "verify", "--suite", "compose", "--q", "31")
        lines = out.splitlines()
        assert (code, err) == (3, "")
        assert [line.split(":")[0] for line in lines if not line.startswith("PASS")] == [
            *(f"GUARD {name}" for name in self.GUARDED),
            "5/10 checks passed, 5 stopped by a resource guard",
        ]
        assert "above the limit 24" in lines[0]

    def test_disagreement_outranks_a_guard_trip(self, capsys, monkeypatch):
        def disagree():
            raise verify.CheckFailure("forced")

        monkeypatch.setattr(
            verify, "run_example_suite", lambda: [verify._run("forced", disagree)]
        )
        code, out, _ = run(capsys, "verify", "--suite", "compose", "--q", "31")
        assert code == 2
        assert "FAIL forced: forced" in out
        assert out.count("GUARD ") == 5
        assert out.endswith("4/10 checks passed, 5 stopped by a resource guard\n")

    def test_digits_suite(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "digits",
            "--nmax", "40", "--mmax", "2", "--instances", "100",
        )
        assert code == 0
        assert "PASS even-class-lattice" in out
