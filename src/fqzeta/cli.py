"""Command-line interface.

Subcommands: powersum, mzv, compositions, sweep, verify.  Exit codes
follow a fixed contract: 0 success, 1 invalid usage, 2 mathematical
disagreement or verification failure, 3 resource guard.

All output is deterministic: identical invocations produce byte-identical
output, and parallel sweeps produce output identical to --jobs 1.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from operator import add
from typing import Iterable, Iterator, Optional, Sequence

from . import __version__, compose, mzv, powersum, verify
from .errors import (
    EmptySetError,
    FqzetaError,
    PreconditionError,
    ResourceLimitError,
    VanishingMismatchError,
)
from .fqpoly import FieldSpec, _field_prime_power, canonical_texts, field_from_q, make_field

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # mathematical disagreement, so usage errors are remapped to 1
    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_field(args) -> FieldSpec:
    if args.q is not None:
        if args.p is not None or args.f is not None:
            raise PreconditionError("give either --q or --p/--f, not both")
        return field_from_q(args.q)
    if args.p is None:
        raise PreconditionError("one of --q or --p (with optional --f) is required")
    return make_field(args.p, args.f if args.f is not None else 1)


def _add_field_flags(sp) -> None:
    sp.add_argument("--q", type=int, default=None, help="prime power q = p^f")
    sp.add_argument("--p", type=int, default=None, help="characteristic p")
    sp.add_argument("--f", type=int, default=None, help="extension degree f")


def _add_output_flags(sp, choices=("text", "json"), default="text") -> None:
    sp.add_argument("--format", choices=choices, default=default)
    sp.add_argument("--out", default=None, help="write output to a file")
    sp.add_argument(
        "--no-banner", action="store_true", help="suppress the version banner"
    )


def _emit(parts: Iterable[str], out: Optional[str]) -> None:
    """Write the strings of parts, in order, to the file out or to stdout.

    The one output route of every command.  Each part goes to an unnamed
    temporary file in the temporary directory (``TMPDIR``) as it is
    produced, so the process's memory does not grow with the output.  The
    spool needs that much free space there, and where ``TMPDIR`` is a
    memory file system (tmpfs) its pages are RAM: point ``TMPDIR`` at disk
    for large sweeps.  The destination is opened only after the last part,
    and then gets the spool's contents: nothing reaches it before the last
    row, so an error raised while the parts are made (a sweep's mismatch,
    a resource guard) leaves stdout empty and out untouched.
    """
    # newline="" keeps the CSV's \r\n through the spool
    with io.TextIOWrapper(tempfile.TemporaryFile(), encoding="utf-8", newline="") as spool:
        spool.writelines(parts)
        spool.seek(0)
        if out is None:
            shutil.copyfileobj(spool, sys.stdout)
        else:
            with open(out, "wb") as fh:
                shutil.copyfileobj(spool.buffer, fh)


# records per json encode call: one call per record costs about a third
# more time than one call for the whole list; a batch of this size does not
_JSON_BATCH = 256


def _json_list(records: Iterable) -> Iterator[str]:
    """``json.dumps(list(records), indent=2) + "\n"``, made _JSON_BATCH
    records at a time."""
    encode = json.JSONEncoder(indent=2).encode
    it = iter(records)
    sep = "[\n"
    for batch in iter(lambda: list(itertools.islice(it, _JSON_BATCH)), []):
        # strip the batch's own "[\n" and "\n]"; its records are already
        # indented one level, as they are in the whole list
        yield sep + encode(batch)[2:-2]
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _header_lines(fields: Sequence[FieldSpec], banner: bool) -> list[str]:
    lines = [f"# fqzeta {__version__}"] if banner else []
    for field in fields:
        pp = field.pp
        lines.append(f"# q={pp.q} p={pp.p} f={pp.f} modulus={field.modulus_text()}")
    return lines


# ---------------------------------------------------------------------------
# powersum
# ---------------------------------------------------------------------------


def _cmd_powersum(args) -> int:
    field = _resolve_field(args)
    if args.max_terms < 0:
        raise PreconditionError("--max-terms must be non-negative")
    results = []
    methods = ("formula", "bruteforce") if args.method == "both" else (args.method,)
    for method in methods:
        if method == "formula":
            if args.s >= 0:
                raise PreconditionError("the formula route requires s < 0")
            results.append(powersum.power_sum_formula(args.d, args.s, field))
        else:
            results.append(
                powersum.power_sum_bruteforce(
                    args.d, args.s, field, max_terms=args.max_terms
                )
            )
    agree = len(results) < 2 or results[0].value == results[1].value

    if args.format == "json":
        payload = [r.to_json_dict() for r in results]
        if len(results) == 2:
            payload.append({"agreement": agree})
        _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    else:
        lines = _header_lines([field], not args.no_banner)
        for r in results:
            lines.append(
                f"S({r.d}, {r.s}) [{r.method}] = {r.value.text()}"
                f"  valuation={r.valuation}"
            )
        if len(results) == 2:
            lines.append(f"agreement: {'AGREE' if agree else 'DISAGREE'}")
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK if agree else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# mzv
# ---------------------------------------------------------------------------


def _parse_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise PreconditionError(f"cannot parse index tuple {text!r}") from exc


def _cmd_mzv(args) -> int:
    field = _resolve_field(args)
    s = _parse_tuple(args.s)
    if all(x < 0 for x in s):
        res = mzv.zeta_negative(s, field)
    else:
        res = mzv.zeta_mixed(s, field, d_max=args.dmax)
    if args.format == "json":
        _emit([json.dumps(res.to_json_dict(), indent=2) + "\n"], args.out)
    else:
        lines = _header_lines([field], not args.no_banner)
        stext = ", ".join(str(x) for x in res.index.s)
        lines.append(f"zeta({stext}) = {res.value.text()}")
        lines.append(
            f"valuation={res.valuation}"
            f"  classification={res.classification}  exact={res.exact}"
        )
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


def _cmd_compositions(args) -> int:
    field = _resolve_field(args)
    pp = field.pp
    if (args.k is None) == (args.N is None):
        raise PreconditionError("give exactly one of --k (head-free) or --N (tail-free)")
    if args.max_results < 0:
        raise PreconditionError("--max-results must be non-negative")
    what, empty = args.what, False
    try:
        if args.k is not None:
            k, d = args.k, args.d
            if what == "list":
                comps = compose.enumerate_head_free(k, d, pp, max_results=args.max_results)
            elif what == "modest":
                comps = [compose.modest(k, d, pp, compose.HEAD)]
            elif what == "greedy":
                comps = [compose.greedy(k, d, pp)]
            else:
                raise PreconditionError(
                    f"--what {what} needs --N (tail-free convention)"
                )
        else:
            n, d = args.N, args.d
            if what == "list":
                comps = compose.enumerate_tail_free(n, d, pp, max_results=args.max_results)
            elif what == "modest":
                comps = [compose.modest(n, d, pp, compose.TAIL)]
            elif what == "optimal":
                comps = compose.optimal_set(n, d, pp)
            elif what == "matrices":
                comps = compose.valid_class_matrices(n, d, pp)
            else:
                raise PreconditionError(
                    f"--what {what} needs --k (head-free convention)"
                )
    except EmptySetError:
        comps, empty = (), True

    # each record or line is made as it is written
    if what == "matrices":
        records = ({"rows": [list(r) for r in m.rows()]} for m in comps)
        lines = (f"{rec['rows']}\n" for rec in records)
    else:
        records = ({"parts": list(c.parts), "weight": c.weight} for c in comps)
        lines = (f"{c.parts} weight={c.weight}\n" for c in comps)
    if args.format == "json":
        _emit(_json_list(records), args.out)
    else:
        head = [line + "\n" for line in _header_lines([field], not args.no_banner)]
        _emit(itertools.chain(head, ["(empty set)\n"] if empty else lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_CSV_HEADER = "q,p,f,s_tuple,depth,value,valuation,classification,exact\r\n"

# a sweep writer reads back and formats its rows a chunk at a time: a chunk
# closes once its values' bit lengths, with _VALUE_BITS more per value,
# reach _CHUNK_BITS, so that chunks of long values and of zeros are both
# bounded; a chunk holds at least one row
_CHUNK_BITS = 1 << 19
_VALUE_BITS = 256


def _chunk_texts(field: FieldSpec, rows) -> Iterator[tuple[list, dict]]:
    """The rows of one sweep in chunks of at least one row, each with a
    dict that maps each distinct value of the chunk to its (text,
    valuation), read as one ``canonical_texts`` batch.  The dict is made
    afresh per chunk, so it holds one chunk's values however long the
    sweep."""
    def read(chunk: list) -> tuple[list, dict]:
        new = list(dict.fromkeys(itertools.chain.from_iterable(row[2] for row in chunk)))
        return chunk, dict(zip(new, canonical_texts(field, new)))

    chunk, bits = [], 0
    for row in rows:
        chunk.append(row)
        bits += sum(map(int.bit_length, row[2])) + _VALUE_BITS * len(row[2])
        if bits >= _CHUNK_BITS:
            yield read(chunk)
            chunk, bits = [], 0
    if chunk:
        yield read(chunk)


def _sweep_csv(field: FieldSpec, rows) -> Iterator[str]:
    """The CSV lines of one sweep, one string per chunk of grid rows (see
    ``_chunk_texts``).

    Within a sweep the depth is fixed, so the classification is a function
    of the value, and the tail `depth,value,valuation,classification,exact`
    is formatted once per distinct value of a chunk.  The tail and s_tuple
    hold no quote or line break, so each field is quoted, as by the csv
    module, exactly when it has a comma: s_tuple at depth >= 2, the value
    at f > 1 when it has a coordinate vector.
    """
    pp = field.pp
    qpf = f"{pp.q},{pp.p},{pp.f},"
    ends: list[str] = []  # x and the s_tuple's end, the same for every row
    for chunk, texts in _chunk_texts(field, rows):
        depth = len(chunk[0][0]) + 1
        tail = {}
        for n, (text, val) in texts.items():
            if "," in text:
                text = f'"{text}"'
            tail[n] = f"{depth},{text},{val},{mzv.classification(depth, n)},True\r\n"
        out = []
        for head, tails, values in chunk:
            lead = qpf + '"' + ",".join(map(str, head)) + "," if head else qpf
            if not ends:
                ends = [f'{x}",' if head else f"{x}," for x in tails]
            # the row's lines lead + end + tail, joined without a loop per line
            out += [lead, lead.join(map(add, ends, map(tail.__getitem__, values)))]
        yield "".join(out)


def _sweep_records(field: FieldSpec, rows) -> Iterator[dict]:
    """The JSON records of one sweep; text and valuation are read once per
    distinct value of a chunk of rows (see ``_chunk_texts``)."""
    for chunk, texts in _chunk_texts(field, rows):
        for head, tails, values in chunk:
            depth = len(head) + 1
            for x, n in zip(tails, values):
                cls = mzv.classification(depth, n)
                yield mzv.zeta_record(field, head + (x,), *texts[n], cls, True)


def _sweep_task(task: tuple) -> list:
    """The output of one sweep, run in a worker process."""
    writer, q, ranges = task
    field = field_from_q(q)
    return list(writer(field, mzv.sweep_rows(field, ranges)))


def _in_order(pool, fn, tasks: Sequence, window: int) -> Iterator:
    """fn(task) for each task, run on the pool and yielded in task order,
    with at most ``window`` tasks submitted and not yet yielded, so that
    finished results do not pile up ahead of the one being written."""
    pending: deque = deque()
    for task in tasks:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, task))
    while pending:
        yield pending.popleft().result()


def _cmd_sweep(args) -> int:
    qs = [int(x) for x in args.q.split(",")] if args.q else None
    if not qs:
        raise PreconditionError("--q is required (comma-separated prime powers)")
    for q in qs:
        _field_prime_power(q)
    if args.smin > args.smax or args.smax > -1:
        raise PreconditionError("need --smin <= --smax <= -1")
    if args.jobs < 1:
        raise PreconditionError("--jobs must be at least 1")
    if args.depth < 1:
        raise PreconditionError("index tuple must have depth >= 1")
    fields = {q: field_from_q(q) for q in sorted(qs)}
    box = [range(args.smin, args.smax + 1)] * args.depth
    # each sweep has its own engine, and its writer reads back and formats
    # its rows a bounded chunk at a time
    writer = _sweep_records if args.format == "json" else _sweep_csv

    def emit(chunks: Iterable) -> None:
        # each chunk is written as it arrives; exhausting chunks runs the sweeps
        items = itertools.chain.from_iterable(chunks)
        if args.format == "json":
            _emit(_json_list(items), args.out)
        else:
            header = _header_lines(list(fields.values()), not args.no_banner)
            head = [line + "\n" for line in header] + [_CSV_HEADER]
            _emit(itertools.chain(head, items), args.out)

    if args.jobs == 1:
        # one sweep per q, formatted as it is evaluated
        emit(writer(field, mzv.sweep_rows(field, box)) for field in fields.values())
    else:
        # one sweep per (q, s_1), evaluated and formatted in a worker, and
        # written in task order
        tasks = [(writer, q, [(s1,), *box[1:]]) for q in fields for s1 in box[0]]
        workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            emit(_in_order(pool, _sweep_task, tasks, 2 * workers))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    overrides = dict(
        qs=tuple(int(x) for x in args.q.split(",")) if args.q else None,
        nmax=args.nmax,
        mmax=args.mmax,
        kmax=args.kmax,
        dmax=args.dmax,
        smin=args.smin,
        goss_kmax=args.goss_kmax,
        instances=args.instances,
        enum_nmax=args.enum_nmax,
        depths=tuple(int(x) for x in args.depths.split(",")) if args.depths else None,
    )
    results = verify.run_suites(args.suite, **overrides)
    failed = [r for r in results if not r.passed]
    guarded = sum(r.guarded for r in failed)
    summary = f"{len(results) - len(failed)}/{len(results)} checks passed"
    if guarded:
        summary += f", {guarded} stopped by a resource guard"
    _emit(itertools.chain((r.line() + "\n" for r in results), [summary + "\n"]), None)
    # a disagreement outranks a guard trip
    return EXIT_MISMATCH if len(failed) > guarded else EXIT_RESOURCE if guarded else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fqzeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("powersum", help="evaluate one power sum")
    _add_field_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument(
        "--method", choices=("formula", "bruteforce", "both"), default="formula"
    )
    sp.add_argument("--max-terms", type=int, default=powersum.BRUTE_FORCE_LIMIT)
    sp.set_defaults(func=_cmd_powersum)

    sp = sub.add_parser("mzv", help="evaluate one multizeta value")
    _add_field_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--s", required=True, help="comma-separated integers, e.g. -8,2")
    sp.add_argument("--dmax", type=int, default=None, help="degree cap for s_1 > 0")
    sp.set_defaults(func=_cmd_mzv)

    sp = sub.add_parser("compositions", help="enumerate or select compositions")
    _add_field_flags(sp)
    _add_output_flags(sp)
    sp.add_argument("--k", type=int, default=None, help="head-free target")
    sp.add_argument("--N", type=int, default=None, help="tail-free target")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument(
        "--what",
        choices=("list", "modest", "greedy", "optimal", "matrices"),
        default="list",
    )
    sp.add_argument("--max-results", type=int, default=compose.ENUMERATION_LIMIT)
    sp.set_defaults(func=_cmd_compositions)

    sp = sub.add_parser("sweep", help="all-negative multizeta sweep")
    _add_output_flags(sp, choices=("csv", "json"), default="csv")
    sp.add_argument("--q", required=True, help="comma-separated prime powers")
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--smin", type=int, required=True)
    sp.add_argument("--smax", type=int, default=-1)
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("verify", help="run the named verification suites")
    sp.add_argument("--suite", choices=verify.SUITE_NAMES, default="all")
    sp.add_argument("--q", default=None, help="override q list, comma-separated")
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument("--mmax", type=int, default=None)
    sp.add_argument("--kmax", type=int, default=None)
    sp.add_argument("--dmax", type=int, default=None)
    sp.add_argument("--smin", type=int, default=None)
    sp.add_argument("--goss-kmax", type=int, default=None)
    sp.add_argument("--instances", type=int, default=None)
    sp.add_argument("--enum-nmax", type=int, default=None)
    sp.add_argument("--depths", default=None, help="e.g. 2,3")
    sp.set_defaults(func=_cmd_verify)

    return parser


def _join_s_flag(argv: Sequence[str]) -> list[str]:
    # argparse reads "-8,2" as an option string; fold the value into --s=
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--s" and i + 1 < len(argv):
            out.append(f"--s={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_s_flag(list(argv)))
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"fqzeta: resource limit: {exc}\n")
        return EXIT_RESOURCE
    except VanishingMismatchError as exc:
        sys.stderr.write(f"fqzeta: mismatch: {exc}\n")
        return EXIT_MISMATCH
    except (PreconditionError, ValueError) as exc:
        sys.stderr.write(f"fqzeta: error: {exc}\n")
        return EXIT_USAGE
    except FqzetaError as exc:
        sys.stderr.write(f"fqzeta: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
