"""Command-line surface.

Every command prints deterministic text, or with --json a document of
the shape {"nearfield": {"q", "n"}, "input": ..., "result": ..., "trace": ...}
with stable key order.  Exit codes: 0 ok, 1 domain error (single
machine-parsable line on stderr), 2 usage error, such as an integer
argument that is not ASCII digits [0-9]+ after at most one '-'.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import itertools
import json
import math
import sys
from pathlib import Path

from .closure import (BudgetExceededError, VectorSet, _gen_codes, current_budget, gen_size,
                      lc_index, require_budget, unpack_vector)
from .counting import count_subgroups
from .ege import ege, replay, trace_from_text, trace_to_text
from .linmaps import MapRep, classify, is_bijective, linear_violation, count_maps
from .nearfield import _ascii_int, build_nearfield
from .seeds import build_seed, verify_seed
from .vectors import NfMatrix, matrix_format, matrix_parse


def _json_doc(nf, input_doc, result, trace=None) -> str:
    doc = {"nearfield": {"q": nf.q, "n": nf.n}, "input": input_doc, "result": result}
    if trace is not None:
        doc["trace"] = trace
    return json.dumps(doc, separators=(", ", ": "))


def _emit(args, nf, input_doc, result, text_lines, trace=None):
    if args.json:
        print(_json_doc(nf, input_doc, result, trace))
    else:
        for ln in text_lines:
            print(ln)
    return 0


def _decimal(n: int) -> str:
    """str(n) for an int n >= 0, in time near linear in its digits.

    str() is quadratic in the digits before Python 3.12 and refuses more
    than 4300 of them from 3.10.7 on.  Here n is cut into binary halves,
    which costs a shift, and the halves' conversions are joined as
    hi * 2^k + lo in the decimal module, whose exact multiplication is
    fast at any size.
    """
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        pow2 = {}

        def convert(x, bits):
            if bits <= 1024:
                return decimal.Decimal(x)
            k = bits // 2
            if k not in pow2:
                pow2[k] = decimal.Decimal(2) ** k
            hi = x >> k
            return convert(hi, bits - k) * pow2[k] + convert(x - (hi << k), k)

        return str(convert(n, n.bit_length()))


def _emit_count(args, nf, input_doc, result):
    """_emit for a count, which the element budget bounds in decimal digits.

    The digits come from _decimal; json.dumps would call str() on the
    count, so a JSON document gets them in place of a null.
    """
    digits = _decimal(result["count"])
    if not args.json:
        return _emit(args, nf, input_doc, result, [digits])
    text = _json_doc(nf, input_doc, {**result, "count": None})
    print(text.replace('"count": null', f'"count": {digits}', 1))
    return 0


def _read_matrix(path: str) -> NfMatrix:
    return matrix_parse(Path(path).read_text())


def _matrix_tokens(M: NfMatrix):
    return list(map(M.nf.format_elements, M.rows))


def _rows_doc(args, M: NfMatrix):
    """The "input" document of a matrix file; only --json formats it."""
    return {"rows": _matrix_tokens(M)} if args.json else None


def _cmd_table(args):
    nf = build_nearfield(args.q, args.n)
    table = nf.mul_table() if args.op == "mul" else nf.add_table()
    labels = nf.format_elements(nf.elements, args.style)
    cells = [nf.format_elements(row, args.style) for row in table]
    width = max(map(len, labels))
    head = args.op.rjust(width)
    lines = [" ".join([head] + [s.rjust(width) for s in labels])]
    for label, row in zip(labels, cells):
        lines.append(" ".join([label.rjust(width)] + [s.rjust(width) for s in row]))
    result = {"op": args.op, "table": cells}
    return _emit(args, nf, {"q": args.q, "n": args.n}, result, lines)


def _cmd_witness(args):
    nf = build_nearfield(args.q, args.n)
    w = nf.find_witness()
    if w is None:
        return _emit(args, nf, {"q": args.q, "n": args.n}, {"witness": None}, ["none"])
    trip = nf.format_elements((w.alpha, w.beta, w.lam))
    result = {"witness": {"alpha": trip[0], "beta": trip[1], "lambda": trip[2]}}
    return _emit(args, nf, {"q": args.q, "n": args.n}, result, [" ".join(trip)])


def _cmd_ege(args):
    M = _read_matrix(args.file)
    D = ege(M)
    basis = _matrix_tokens(D.basis)
    lines = [f"dimension {D.dimension}", f"canonical {'true' if D.canonical else 'false'}"]
    lines += [" ".join(tok) for tok in basis]
    trace_lines = trace_to_text(M.nf, D.trace).splitlines() if args.trace else None
    if args.trace:
        lines += ["trace:"] + trace_lines
    result = {"dimension": D.dimension, "canonical": D.canonical, "basis": basis}
    return _emit(args, M.nf, _rows_doc(args, M), result, lines, trace=trace_lines)


def _cmd_replay(args):
    M = _read_matrix(args.file)
    steps = trace_from_text(M.nf, Path(args.tracefile).read_text())
    rows = _matrix_tokens(replay(M, steps))
    return _emit(args, M.nf, _rows_doc(args, M), {"rows": rows}, [" ".join(tok) for tok in rows])


def _cmd_gen(args):
    M = _read_matrix(args.file)
    size = gen_size(VectorSet.from_vectors(M.nf, M.width, M.rows))
    spans = size == M.nf.order ** M.width
    lines = [f"size {size}", f"spans_space {'true' if spans else 'false'}"]
    return _emit(args, M.nf, _rows_doc(args, M), {"size": size, "spans_space": spans}, lines)


def _cmd_lc_index(args):
    M = _read_matrix(args.file)
    idx = lc_index(M.nf, M.rows)
    return _emit(args, M.nf, _rows_doc(args, M), {"index": idx}, [f"index {idx}"])


def _cmd_classify_map(args):
    M = _read_matrix(args.file)
    if M.n_rows != M.width:
        raise ValueError("map matrix must be square")
    T = MapRep(M.nf, M.width, M.rows)
    cls = classify(T)
    bij = is_bijective(T)
    lines = [f"class {cls.value}", f"bijective {'true' if bij else 'false'}"]
    result = {"class": cls.value, "bijective": bij}
    if cls.value == "hom_only":
        v, r = linear_violation(T)
        pair = {"v": M.nf.format_elements(v), "r": M.nf.format_element(r)}
        result["violating_pair"] = pair
        lines.append(f"violating_pair ({','.join(pair['v'])}) {pair['r']}")
    return _emit(args, M.nf, _rows_doc(args, M), result, lines)


def _cmd_count_maps(args):
    nf = build_nearfield(args.q, args.n)
    method = "closed_form" if args.method == "closed" else "enumeration"
    c = count_maps(nf, args.dim, args.kind, method)
    return _emit_count(args, nf, {"dim": args.dim, "kind": args.kind},
                       {"count": c, "method": method})


def _cmd_count_subgroups(args):
    nf = build_nearfield(args.q, args.n)
    c = count_subgroups(args.m, args.k, nf.order)
    return _emit_count(args, nf, {"m": args.m, "k": args.k}, {"count": c})


def _cmd_seed(args):
    nf = build_nearfield(args.q, args.n)
    sm = build_seed(args.m, nf)
    header = (
        f"q={nf.q} n={nf.n} m={args.m} k={sm.k} "
        f"s_order={','.join(str(s) for s in sm.s_order)}"
    )
    text = matrix_format(sm.matrix, comments=(header,))
    # the JSON token lists repeat the text of every entry, so only --json builds them
    result = {"m": args.m, "k": sm.k, "rows": _matrix_tokens(sm.matrix)} if args.json else None
    return _emit(args, nf, {"m": args.m}, result, text.splitlines())


def _cmd_verify_seed(args):
    M = _read_matrix(args.file)
    ok = verify_seed(M)
    return _emit(args, M.nf, _rows_doc(args, M), {"seed": ok}, ["true" if ok else "false"])


def _cmd_search_index(args):
    if args.m < 1 or args.k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    nf = build_nearfield(args.q, args.n)
    # every subset's closure grows inside R^m
    space = require_budget("vectors of R^m, |R|^m", nf.order, args.m)
    budget = current_budget()
    # C(N, k) >= 2^min(k, N - k): past the budget's bit length it is not computed
    j = min(args.k, space - 1 - args.k)
    subsets = budget + 1 if j >= budget.bit_length() else min(math.comb(space - 1, args.k), budget + 1)
    if args.limit is not None:
        subsets = min(args.limit, subsets)
    require_budget("k-subsets to scan, min(--limit, C(|R|^m - 1, k), budget + 1)", subsets)
    searched = spanning = max_index = 0
    first_max, exceeding = None, []
    # the admitted count: no iterator for 0, and no --limit past sys.maxsize
    combos = itertools.islice(itertools.combinations(range(1, space), args.k), subsets) if subsets else ()
    # a combination is sorted and distinct, a VectorSet as it stands; its
    # closure lists gen only short of R^m, and else counts lc_index's strata
    fmt = lambda codes: [nf.format_elements(unpack_vector(nf, args.m, c)) for c in codes]
    for combo in combos:
        searched += 1
        short, idx = _gen_codes(VectorSet(nf, args.m, combo), space)
        if short is not None:
            continue
        spanning += 1
        if idx > max_index:
            max_index = idx
            first_max = combo
        if idx > args.bound and len(exceeding) < 10:
            exceeding.append(fmt(combo))
    fmt_first = fmt(first_max) if first_max else None
    result = {
        "searched": searched,
        "spanning": spanning,
        "max_index": max_index,
        "first_max": fmt_first,
        "exceeding": exceeding,
    }
    lines = [
        f"searched {searched}",
        f"spanning {spanning}",
        f"max_index {max_index}",
        f"exceeding_bound {len(exceeding)}",
    ]
    return _emit(args, nf, {"m": args.m, "k": args.k, "bound": args.bound}, result, lines)


def _integer(text: str) -> int:
    """The type of every integer argument, read by nearfield._ascii_int;
    a '-' is let through to the command's own range check."""
    try:
        return _ascii_int(text, "value", None)
    except ValueError as e:
        raise argparse.ArgumentTypeError(e) from None


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: main() may run many times in one process."""
    ap = argparse.ArgumentParser(
        prog="nearvec",
        description="Exact computation in finite Dickson nearfields and the near-vector spaces R^m.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *integers):
        p = sub.add_parser(name, help=help_)
        for dest in integers:
            p.add_argument(dest, type=_integer)
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.set_defaults(fn=fn)
        return p

    p = add("table", _cmd_table, "print the full operation table of DN(q,n)", "q", "n")
    p.add_argument("--op", choices=("mul", "add"), default="mul")
    p.add_argument("--style", choices=("poly", "code"), default="poly")

    add("witness", _cmd_witness, "first right-distributivity violation of DN(q,n)", "q", "n")

    p = add("ege", _cmd_ege, "decompose gen(rows) via expanded Gaussian elimination")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="include the step trace")

    p = add("replay", _cmd_replay, "apply a recorded trace to a matrix file")
    p.add_argument("file")
    p.add_argument("tracefile")

    p = add("gen", _cmd_gen, "brute-force closure of the rows of a matrix file")
    p.add_argument("file")

    p = add("lc-index", _cmd_lc_index, "index of R-linearity of the rows of a matrix file")
    p.add_argument("file")

    p = add("classify-map", _cmd_classify_map, "classify the map given by a square matrix file")
    p.add_argument("file")

    p = add("count-maps", _cmd_count_maps, "count maps of R^dim by kind", "q", "n", "dim")
    p.add_argument("kind", choices=("all", "linear", "normal"))
    p.add_argument("--method", choices=("closed", "enum"), default="closed")

    add("count-subgroups", _cmd_count_subgroups, "count R-subgroups of R^m of dimension k",
        "q", "n", "m", "k")

    add("seed", _cmd_seed, "construct the seed matrix V_m (emits the matrix file format)",
        "q", "n", "m")

    p = add("verify-seed", _cmd_verify_seed, "check gen(rows) = R^m for a matrix file")
    p.add_argument("file")

    p = add("search-index", _cmd_search_index,
            "scan k-subsets of nonzero vectors of R^m for linearity index above a bound",
            "q", "n", "m", "k", "bound")
    p.add_argument("--limit", type=_integer, default=None,
                   help="stop after this many combinations (deterministic prefix)")

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, BudgetExceededError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
