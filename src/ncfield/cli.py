"""Command line front end for the library.

Reports are JSON on stdout (or to ``--out``); a one-line human summary goes
to stderr so pipelines stay clean.  Tabular reports can be rendered as CSV
with ``--format csv``.  Exit codes: 0 success, 1 bad input, 2 the underlying
mathematics was inconclusive (no consensus between engines or an unresolved
candidate), 3 the evaluation point is outside the domain of the function.

Pencil files are JSON documents of the form::

    {"n_vars": 2, "rows": 2, "cols": 2,
     "coeffs": {"A0": [[0, 0], [0, 0]],
                "A1": [["1", "0"], ["0", "0"]],
                "A2": [["0", "1/2-1/3i"], ["0", "0"]]}}

Scalars are JSON numbers or strings like ``"a/b+c/di"``.  A pencil over the
doubled alphabet (formal adjoints as extra letters) additionally carries the
keys ``"A1*"`` .. ``"An*"``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .errors import (
    Inconclusive,
    InputError,
    MethodDisagreement,
    NcfieldError,
    NoConsensus,
    OutOfDomain,
)
from .freegroup import dual_system_report
from .ncpoly import LinearPencil, NcMatrix, random_poly_matrix
from .ncrank import ncrank
from .randmat import (
    atiyah_integrality_scan,
    rank_convergence,
    sample,
)
from .ratexpr import eval_numeric, max_var_index, parse, poly_from_string, unparse
from .realization import eval_and_check, realize
from .scalars import GaussianRational
from .spectra import _spectrum

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_DOMAIN = 3


# ---------------------------------------------------------------------------
# JSON formats


def scalar_from_json(value, path: str) -> GaussianRational:
    """A scalar is a JSON number or a string like '3/2-1/3i'."""
    if isinstance(value, bool):
        raise InputError(f"{path}: booleans are not scalars")
    if isinstance(value, int):
        return GaussianRational(value)
    if isinstance(value, float):
        # JSON NaN and Infinity parse to floats that have no exact value
        if not math.isfinite(value):
            raise InputError(f"{path}: not a finite number")
        return GaussianRational(Fraction(value))
    if isinstance(value, str):
        try:
            return GaussianRational.from_string(value)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
    raise InputError(
        f"{path}: expected a number or scalar string, got {type(value).__name__}"
    )


def _matrix_from_json(value, rows: int, cols: int, path: str):
    if not isinstance(value, list) or len(value) != rows:
        raise InputError(f"{path}: expected a list of {rows} rows")
    grid = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise InputError(f"{path}[{i}]: expected {cols} entries")
        grid.append(
            tuple(
                scalar_from_json(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)
            )
        )
    return tuple(grid)


def _coeff_names(n_vars: int, star: bool) -> List[str]:
    names = [f"A{k}" for k in range(n_vars + 1)]
    if star:
        names.extend(f"A{k}*" for k in range(1, n_vars + 1))
    return names


def pencil_from_json(doc) -> LinearPencil:
    if not isinstance(doc, dict):
        raise InputError("pencil file: expected a JSON object")
    for key in ("n_vars", "rows", "cols", "coeffs"):
        if key not in doc:
            raise InputError(f"pencil file: missing key '{key}'")
    n_vars, rows, cols = doc["n_vars"], doc["rows"], doc["cols"]
    for key, val in (("n_vars", n_vars), ("rows", rows), ("cols", cols)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise InputError(f"{key}: expected a positive integer, got {val!r}")
    coeffs = doc["coeffs"]
    if not isinstance(coeffs, dict):
        raise InputError("coeffs: expected an object of coefficient matrices")
    plain = set(_coeff_names(n_vars, star=False))
    doubled = set(_coeff_names(n_vars, star=True))
    keys = set(coeffs)
    if keys == plain:
        star = False
    elif keys == doubled:
        star = True
    else:
        missing = sorted(plain - keys)
        extra = sorted(keys - doubled)
        parts = []
        if missing:
            parts.append("missing " + ", ".join(missing))
        if extra:
            parts.append("unexpected " + ", ".join(extra))
        if not parts:
            parts.append(
                "starred coefficients must be given for all variables or none"
            )
        raise InputError("coeffs: " + "; ".join(parts))
    mats = [
        _matrix_from_json(coeffs[name], rows, cols, f"coeffs.{name}")
        for name in _coeff_names(n_vars, star)
    ]
    return LinearPencil(mats, n_vars, star_letters=star)


def pencil_to_json(pencil: LinearPencil) -> dict:
    names = _coeff_names(pencil.n_vars, pencil.star_letters)
    return {
        "n_vars": pencil.n_vars,
        "rows": pencil.rows,
        "cols": pencil.cols,
        "coeffs": {
            name: [[str(x) for x in row] for row in mat]
            for name, mat in zip(names, pencil.coeffs)
        },
    }


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None


# ---------------------------------------------------------------------------
# shared plumbing


def _parse_dims(text: str) -> Tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError(f"--dims must be comma-separated integers, got {text!r}") from None
    if not dims or any(d < 2 for d in dims):
        raise InputError("--dims entries must be at least 2")
    return dims


def _load_matrix_input(args) -> Tuple[Union[NcMatrix, LinearPencil], dict]:
    """The --pencil file as a pencil, or the --expr string as a 1 x 1 matrix."""
    pencil_path = getattr(args, "pencil", None)
    expr_text = getattr(args, "expr", None)
    if (pencil_path is None) == (expr_text is None):
        raise InputError("give exactly one of --pencil FILE or --expr STRING")
    if pencil_path is not None:
        pencil = pencil_from_json(load_json(pencil_path))
        return pencil, {"pencil": pencil_path}
    poly = poly_from_string(expr_text)
    return NcMatrix([[poly]], max(poly.n_vars, 1)), {"expr": expr_text}


def _report_skeleton(args, command: str, **config) -> dict:
    cfg = {"seed": args.seed, "tol_factor": args.tol}
    cfg.update(config)
    return {"command": command, "version": __version__, "config": cfg}


def _json_ready(value):
    """Replace non-finite floats with strings so reports stay strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {key: _json_ready(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(val) for val in value]
    return value


def _emit(args, report: dict, csv_table=None, summary: str = "") -> None:
    """Write the report as JSON, or as CSV under ``--format csv``.

    ``csv_table`` is a function returning (header, rows); it is called only
    when CSV is asked for, so JSON output never builds the rows.
    """
    if args.format == "csv":
        if csv_table is None:
            raise InputError(f"{report['command']}: no tabular form, use json")
        header, rows = csv_table()
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(_json_ready(report), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if summary:
        print(summary, file=sys.stderr)


# ---------------------------------------------------------------------------
# commands


def cmd_rank(args) -> int:
    matrix, label = _load_matrix_input(args)
    dims = _parse_dims(args.dims) if args.dims else None
    result = ncrank(
        matrix,
        dims=dims,
        trials=args.trials,
        seed=args.seed,
        tol_factor=args.tol,
    )
    report = _report_skeleton(args, "rank", dims=dims, trials=args.trials)
    report["input"] = label
    report.update(result.to_dict())
    _emit(args, report, summary=f"rho = {result.rho} (method: {result.method})")
    return EXIT_OK


def cmd_atoms(args) -> int:
    matrix, label = _load_matrix_input(args)
    if not matrix.is_square():
        raise InputError("atoms need a square input")
    spectrum = _spectrum(
        matrix, args.seed, args.tol, certify=args.certify, d=args.d, kind=args.kind
    )
    report = _report_skeleton(
        args, "atoms", d=args.d, kind=args.kind, certify=args.certify
    )
    report["input"] = label
    report.update(spectrum.to_dict())
    if args.entropy and report["entropy_dimension"] is None:
        raise Inconclusive(
            "entropy dimension needs a fully certified atom list",
            {"uncertified": spectrum.uncertified},
        )
    _emit(
        args,
        report,
        csv_table=lambda: (
            ("lambda", "rho", "mass", "certified"),
            [
                (a["lambda"], a["rho"], a["mass"], a["certified"])
                for a in report["atoms"]
            ],
        ),
        summary=(
            f"{len(spectrum.atoms)} certified atom(s), "
            f"{len(spectrum.uncertified)} uncertified candidate(s)"
        ),
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    expr = parse(args.expr)
    n_vars = max(max_var_index(expr), 1)
    rep = realize(expr, n_vars)
    model = sample(args.kind, args.d, n_vars, args.seed)
    dom, value = eval_and_check(rep, model, args.tol)
    identity = np.eye(args.d, dtype=complex)
    residual_identity = float(np.linalg.norm(value - identity))
    try:
        direct = eval_numeric(expr, model)
        scale = max(1.0, float(np.linalg.norm(direct)))
        residual_direct = float(np.linalg.norm(value - direct)) / scale
    except OutOfDomain:
        residual_direct = None
    report = _report_skeleton(args, "eval", d=args.d, kind=args.kind)
    report.update(
        {
            "expr": unparse(expr),
            "k": rep.k,
            "sigma_min": dom.sigma_min,
            "residual_identity": residual_identity,
            "residual_direct": residual_direct,
            "matrix": [[[z.real, z.imag] for z in row] for row in value],
        }
    )
    direct_note = (
        "direct evaluation failed" if residual_direct is None
        else f"residual to direct evaluation {residual_direct:.2e}"
    )
    _emit(
        args,
        report,
        csv_table=lambda: (
            ("row", "col", "re", "im"),
            [
                (i, j, value[i, j].real, value[i, j].imag)
                for i in range(value.shape[0])
                for j in range(value.shape[1])
            ],
        ),
        summary=f"evaluated {args.kind} model at d={args.d}; {direct_note}",
    )
    return EXIT_OK


def cmd_dualcheck(args) -> int:
    result = dual_system_report(args.n, args.R)
    report = _report_skeleton(args, "dualcheck", n=args.n, R=args.R)
    report.update(result)
    _emit(
        args,
        report,
        csv_table=lambda: (
            ("i", "j", "defect", "pass"),
            [(p["i"], p["j"], p["defect"], p["pass"]) for p in result["pairs"]],
        ),
        summary=(
            f"n={args.n} R={args.R}: {len(result['pairs'])} pairs on "
            f"{result['interior_count']} interior vectors, "
            f"pass={result['all_pass']}"
        ),
    )
    return EXIT_OK if result["all_pass"] else EXIT_INCONCLUSIVE


def cmd_scan(args) -> int:
    if args.what == "integrality":
        if args.size < 1 or args.n_vars < 1 or args.degree < 0:
            raise InputError(
                "integrality scan needs --size and --n-vars at least 1 "
                "and --degree at least 0"
            )
        corpus = [
            random_poly_matrix(
                n_vars=args.n_vars,
                rows=args.size,
                cols=args.size,
                degree=args.degree,
                seed=args.seed + 1000 + i,
            )
            for i in range(args.count)
        ]
        result = atiyah_integrality_scan(
            corpus, d=args.d, seed=args.seed, kind=args.kind, tol_factor=args.tol
        )
        report = _report_skeleton(
            args,
            "scan",
            what="integrality",
            count=args.count,
            size=args.size,
            n_vars=args.n_vars,
            degree=args.degree,
            d=args.d,
            kind=args.kind,
        )
        report.update(result)
        header = ("index", "rank", "rank_over_d", "nearest_int", "distance", "flagged")
        flagged = sum(1 for r in result["rows"] if r["flagged"])
        summary = f"{len(result['rows'])} matrices at d={args.d}, {flagged} flagged"
        _emit(
            args,
            report,
            csv_table=lambda: (
                header,
                [
                    (
                        r["index"],
                        r["rank"],
                        f"{r['rank_over_d']:.6f}",
                        r["nearest_int"],
                        f"{r['distance']:.6f}",
                        r["flagged"],
                    )
                    for r in result["rows"]
                ],
            ),
            summary=summary,
        )
        return EXIT_OK
    # convergence ladder for one named input
    matrix, label = _load_matrix_input(args)
    if not args.dims:
        raise InputError("convergence scan needs --dims, e.g. --dims 8,32,128")
    dims = _parse_dims(args.dims)
    table = rank_convergence(
        matrix, dims, seed=args.seed, kind=args.kind, tol_factor=args.tol
    )
    report = _report_skeleton(
        args, "scan", what="convergence", dims=list(dims), kind=args.kind
    )
    report["input"] = label
    report["rows"] = table
    _emit(
        args,
        report,
        csv_table=lambda: (
            ("d", "rank", "rank_over_d", "gap"),
            [
                (r["d"], r["rank"], f"{r['rank_over_d']:.6f}", f"{r['gap']:.3e}")
                for r in table
            ],
        ),
        summary=f"convergence over dims {list(dims)}",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures map to exit code 1."""

    def error(self, message):
        raise InputError(message)


def _tolerance(text: str) -> float:
    """The --tol factor: a finite number above zero."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return tol


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=1234, help="master RNG seed")
    p.add_argument(
        "--tol",
        type=_tolerance,
        default=1.0,
        help="multiplier applied to the default tolerance thresholds",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ncfield",
        description="Rank, spectra and evaluation for noncommutative rational functions.",
    )
    parser.add_argument(
        "--version", action="version", version=f"ncfield {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="inner rank of a pencil or polynomial")
    p_rank.add_argument("--pencil", help="pencil JSON file")
    p_rank.add_argument("--expr", help="polynomial expression, e.g. 'x1*x2 - x2*x1'")
    p_rank.add_argument("--dims", help="substitution dimensions, e.g. 8,16")
    p_rank.add_argument("--trials", type=int, default=2)
    _add_common(p_rank)
    p_rank.set_defaults(handler="cmd_rank")

    p_atoms = sub.add_parser("atoms", help="central eigenvalues and their masses")
    p_atoms.add_argument("--pencil", help="pencil JSON file")
    p_atoms.add_argument("--expr", help="polynomial expression")
    p_atoms.add_argument(
        "--d", type=int, default=500, help="sample dimension (with --no-certify)"
    )
    p_atoms.add_argument("--kind", choices=("gue", "haar", "ginibre"), default="gue")
    p_atoms.add_argument(
        "--certify",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="certify candidates with a rank decision",
    )
    p_atoms.add_argument(
        "--entropy",
        action="store_true",
        help="fail with exit 2 unless the entropy dimension is certified",
    )
    _add_common(p_atoms)
    p_atoms.set_defaults(handler="cmd_atoms")

    p_eval = sub.add_parser("eval", help="evaluate a rational expression")
    p_eval.add_argument("--expr", required=True)
    p_eval.add_argument("--d", type=int, default=50)
    p_eval.add_argument("--kind", choices=("gue", "haar", "ginibre"), default="ginibre")
    _add_common(p_eval)
    p_eval.set_defaults(handler="cmd_eval")

    p_dual = sub.add_parser(
        "dualcheck", help="exact commutator check for the free group dual system"
    )
    p_dual.add_argument("--n", type=int, default=2, help="number of generators")
    p_dual.add_argument("--R", type=int, required=True, help="ball radius")
    _add_common(p_dual)
    p_dual.set_defaults(handler="cmd_dualcheck")

    p_scan = sub.add_parser("scan", help="random matrix scans")
    p_scan.add_argument("what", choices=("integrality", "convergence"))
    p_scan.add_argument("--pencil", help="pencil JSON file (convergence)")
    p_scan.add_argument("--expr", help="polynomial expression (convergence)")
    p_scan.add_argument("--dims", help="dimension ladder, e.g. 8,32,128")
    p_scan.add_argument("--count", type=int, default=12, help="corpus size")
    p_scan.add_argument("--size", type=int, default=2, help="matrix size N")
    p_scan.add_argument("--n-vars", type=int, default=2, dest="n_vars")
    p_scan.add_argument("--degree", type=int, default=2)
    p_scan.add_argument("--d", type=int, default=400)
    p_scan.add_argument("--kind", choices=("gue", "haar", "ginibre"), default="gue")
    _add_common(p_scan)
    p_scan.set_defaults(handler="cmd_scan")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once; main looks each handler up by name per call."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return globals()[args.handler](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OutOfDomain as exc:
        print(
            f"out of domain: {exc} (sigma_min={exc.sigma_min:.6e})", file=sys.stderr
        )
        return EXIT_DOMAIN
    except (NoConsensus, Inconclusive, MethodDisagreement) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        detail = getattr(exc, "diagnostics", None) or getattr(exc, "estimates", None)
        if detail:
            print(json.dumps(detail, default=str), file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except NcfieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
