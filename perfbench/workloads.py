"""The four benchmark workloads: seeded inputs, one call per op, and checks.

A workload is a list of passes.  Each pass is a fixed mix of op kinds, with
inputs drawn from ``(workload, seed, pass index)``, shuffled into one order.
The mix is the same in every pass and for every seed; only the drawn
coefficients change.  Every op carries a check that knows the right answer
from how its input was built, and a digest used to compare a traced run of
the op with an untraced one.

Library calls go through module attributes looked up at call time, so the
tracer's wrappers are seen when installed and absent otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import ncfield as nc
from ncfield import GaussianRational, NcMatrix, NcPoly
from ncfield.errors import Inconclusive, MethodDisagreement, NoConsensus, OutOfDomain

cli = importlib.import_module("ncfield.cli")

# An op that raises one of these ran honestly but gave no answer.
REFUSALS = (Inconclusive, NoConsensus, MethodDisagreement, OutOfDomain)


class CliRefused(Exception):
    """The CLI exited 2 (inconclusive) or 3 (outside the domain)."""


@dataclass
class Op:
    id: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the answer is right
    digest: Callable[[object], str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, int, bool], List[Op]]
    # the speed kernel (see probe.py) that tracks this workload's code best
    kernel: str
    # spans that must record calls on this workload
    coverage: Tuple[str, ...]
    # Untraced runs take each op's median over at least this many passes.
    # Ops that run for seconds can straddle a change of machine speed, so
    # they need a third sample.
    min_passes: int = 2


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}")


def _finish(workload: str, pass_index: int, ops: List[Op], rng: random.Random) -> List[Op]:
    rng.shuffle(ops)
    for k, op in enumerate(ops):
        op.id = f"{workload}.{pass_index}.{k:03d}.{op.kind}"
    return ops


# ---------------------------------------------------------------------------
# input builders


def _linear_entry(rng: random.Random, n_vars: int) -> NcPoly:
    """A nonzero homogeneous linear polynomial with small integer coefficients."""
    while True:
        poly = NcPoly.zero(n_vars)
        for i in range(1, n_vars + 1):
            c = rng.randint(-2, 2)
            if c:
                poly = poly + NcPoly.var(i, n_vars) * NcPoly.const(c, n_vars)
        if not poly.is_zero():
            return poly


def hollow_matrix(size: int, n_vars: int, seed: int) -> NcMatrix:
    """Linear matrix with an r x s zero block, r + s = size + 1: nonfull."""
    rng = random.Random(seed)
    r = rng.randint(1, size - 1)
    s = size + 1 - r
    rows = [
        [
            NcPoly.zero(n_vars) if i < r and j < s else _linear_entry(rng, n_vars)
            for j in range(size)
        ]
        for i in range(size)
    ]
    return NcMatrix(rows, n_vars)


def _invertible_scalar_matrix(size: int, rng: random.Random, n_vars: int) -> NcMatrix:
    """Product of elementary row operations, so exactly invertible."""
    rows = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.randrange(size), rng.randrange(size)
        if i != j:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        i = rng.randrange(size)
        rows[i] = [-a for a in rows[i]]
    return NcMatrix.from_scalars(rows, n_vars)


def conjugated_hollow_matrix(size: int, n_vars: int, seed: int) -> NcMatrix:
    """A hollow matrix hidden behind exact invertible scalar factors: nonfull."""
    rng = random.Random(seed ^ 0x5EED)
    base = hollow_matrix(size, n_vars, seed)
    left = _invertible_scalar_matrix(size, rng, n_vars)
    right = _invertible_scalar_matrix(size, rng, n_vars)
    return left @ base @ right


def _nonzero_pencil(n_vars: int, size: int, seed: int, homogeneous: bool):
    """random_pencil, redrawn until its homogeneous part is nonzero."""
    while True:
        pencil = nc.random_pencil(n_vars, size, seed=seed, homogeneous=homogeneous)
        if not pencil.homogeneous_part().is_zero():
            return pencil
        seed += 1


# x1*x2*x1, x2*x1*x2, x1*x1*x2, x2*x2*x1: each cubic word adds 2 to the
# linearized size, so k words give N = 1 + 2k.
CUBIC_WORDS = ((1, 2, 1), (2, 1, 2), (1, 1, 2), (2, 2, 1))


def cubic_ladder(k: int) -> NcMatrix:
    x = [None, NcPoly.var(1, 2), NcPoly.var(2, 2)]
    poly = NcPoly.one(2)
    for a, b, c in CUBIC_WORDS[:k]:
        poly = poly + x[a] * x[b] * x[c]
    return NcMatrix([[poly]], 2)


# Planted constants sit 1 apart: more than two detection windows
# (4/sqrt(d) wide) at every d used here, so their clusters never merge.
PLANTED_LAMBDAS = tuple(Fraction(k, 2) for k in (-5, -3, -1, 1, 3, 5))


def _self_adjoint_block(rng: random.Random, shape: int) -> NcPoly:
    """A nonconstant polynomial that is Hermitian at Hermitian points (no atoms).

    Shapes 0, 1, 2 have degree 1, 2, 3.
    """
    x1, x2 = NcPoly.var(1, 2), NcPoly.var(2, 2)
    a = NcPoly.const(rng.choice([-1, 1, 2]), 2)
    b = NcPoly.const(rng.choice([-1, 1, 2]), 2)
    if shape == 0:
        return a * x1 + b * x2
    if shape == 1:
        return x1 * x2 + x2 * x1 + a * x1
    return x1 * x2 * x1 + a * x2


def planted_polymatrix(
    rng: random.Random, pattern: int, shape: int
) -> Tuple[NcMatrix, Dict[GaussianRational, Fraction]]:
    """diag(q, constants) with the atoms it must produce.

    Pattern 0 plants one constant (mass 1/2), pattern 1 two distinct ones
    (1/3 each), pattern 2 one constant twice (mass 2/3).
    """
    lambdas = rng.sample(PLANTED_LAMBDAS, 2)
    consts = [lambdas[0]] if pattern == 0 else (
        [lambdas[0], lambdas[1]] if pattern == 1 else [lambdas[0], lambdas[0]]
    )
    size = 1 + len(consts)
    zero = NcPoly.zero(2)
    rows = [[zero] * size for _ in range(size)]
    rows[0][0] = _self_adjoint_block(rng, shape)
    for i, lam in enumerate(consts):
        rows[i + 1][i + 1] = NcPoly.const(GaussianRational(lam), 2)
    expected: Dict[GaussianRational, Fraction] = {}
    for lam in consts:
        key = GaussianRational(lam)
        expected[key] = expected.get(key, Fraction(0)) + Fraction(1, size)
    return NcMatrix(rows, 2), expected


# ---------------------------------------------------------------------------
# checks and digests


def _check_full_vs_substitution(pencil, size: int, ref_seed: int):
    def check(cert) -> Optional[str]:
        sub = nc.rank_by_substitution(pencil.to_matrix(), seed=ref_seed)
        if (cert.verdict == "full") != (sub.rho == size):
            return f"scaling says {cert.verdict}, substitution rho={sub.rho} of {size}"
        if cert.verdict == "nonfull" and not nc.verify_nonfull_witness(pencil, cert.witness):
            return "nonfull witness rejected"
        return None

    return check


def _check_nonfull(pencil):
    def check(cert) -> Optional[str]:
        if cert.verdict != "nonfull":
            return f"nonfull by construction, got {cert.verdict}"
        if not nc.verify_nonfull_witness(pencil, cert.witness):
            return "nonfull witness rejected"
        return None

    return check


def _digest_cert(cert) -> str:
    return f"{cert.verdict}/{cert.method}/{cert.iterations}/{cert.defect!r}"


def _check_rho_one(result) -> Optional[str]:
    return None if result.rho == 1 else f"rho={result.rho}, expected 1"


def _digest_rank(result) -> str:
    return f"{result.rho}/{sorted((result.cross or {}).items())!r}"


def _check_pencil_spectrum(pencil):
    a0 = np.array([[complex(x) for x in row] for row in pencil.coeffs[0]], dtype=complex)
    eigs = np.linalg.eigvals(a0)
    scale = max(1.0, float(np.linalg.norm(a0)))
    size = pencil.rows

    def check(report) -> Optional[str]:
        if len(report.atoms) > size:
            return f"{len(report.atoms)} atoms on a size {size} pencil"
        if report.diagnostics.get("homogeneous_rho") == size and report.atoms:
            return "atoms despite a full homogeneous part"
        for atom in report.atoms:
            if min(abs(complex(atom.lam) - w) for w in eigs) > 1e-6 * scale:
                return f"atom {atom.lam_text()} is not an eigenvalue of A0"
        return None

    return check


def _check_planted(expected: Dict[GaussianRational, Fraction]):
    def check(report) -> Optional[str]:
        if report.uncertified:
            return f"{len(report.uncertified)} uncertified candidates"
        got = {}
        for atom in report.atoms:
            if not (atom.exact and isinstance(atom.lam, GaussianRational)):
                return f"atom {atom.lam_text()} is not exact"
            got[atom.lam] = atom.mass
        if got != expected:
            want = {str(k): str(v) for k, v in expected.items()}
            have = {str(k): str(v) for k, v in got.items()}
            return f"atoms {have}, planted {want}"
        return None

    return check


def _digest_spectrum(report) -> str:
    atoms = [(a.lam_text(), a.rho, str(a.mass)) for a in report.atoms]
    return f"{atoms!r}/{len(report.uncertified)}"


def _check_scan(result) -> Optional[str]:
    row = result["rows"][0]
    if row["distance"] > 0.02:
        return f"rank/d = {row['rank_over_d']:.4f} is {row['distance']:.4f} from an integer"
    return None


def _digest_scan(result) -> str:
    row = result["rows"][0]
    return f"{row['rank']}/{row['rank_over_d']!r}"


def _cli(argv: List[str]) -> Callable[[], str]:
    """An op running the CLI in-process; returns its JSON report text."""

    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code in (cli.EXIT_INCONCLUSIVE, cli.EXIT_DOMAIN):
            raise CliRefused(f"exit {code}: {err.getvalue().strip()}")
        if code != cli.EXIT_OK:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return run


def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_eval(identity: bool):
    def check(text: str) -> Optional[str]:
        report = json.loads(text)
        if identity:
            res = report["residual_identity"]
            return None if res < 1e-9 else f"residual_identity {res:.3e}"
        res = report["residual_direct"]
        if res is None or res >= 1e-8:
            return f"residual_direct {res}"
        return None

    return check


def _check_dual(n: int):
    def check(text: str) -> Optional[str]:
        report = json.loads(text)
        pairs = report["pairs"]
        if len(pairs) != n * n:
            return f"{len(pairs)} pairs, expected {n * n}"
        bad = [p for p in pairs if p["defect"] != "0"]
        return f"nonzero defects {bad}" if bad else None

    return check


# ---------------------------------------------------------------------------
# workloads


def build_certify(seed: int, pass_index: int, tiny: bool) -> List[Op]:
    rng = _rng("certify", seed, pass_index)
    ops: List[Op] = []
    random_sizes = {2: 2, 3: 2} if tiny else {2: 12, 3: 28, 4: 10, 5: 2}
    for size, count in random_sizes.items():
        for i in range(count):
            pencil = _nonzero_pencil(1 + i % 3, size, rng.randrange(2**31), True)
            s = rng.randrange(2**31)
            ops.append(Op("", f"random{size}",
                          lambda p=pencil, s=s: nc.fullness_scaling(p, seed=s),
                          _check_full_vs_substitution(pencil, size, s + 7), _digest_cert))
    conj_sizes = {3: 2} if tiny else {3: 6, 4: 6, 5: 1}
    for size, count in conj_sizes.items():
        for i in range(count):
            pencil = conjugated_hollow_matrix(size, 1 + i % 2, rng.randrange(2**31)).to_pencil()
            s = rng.randrange(2**31)
            ops.append(Op("", f"conjhollow{size}",
                          lambda p=pencil, s=s: nc.fullness_scaling(p, seed=s),
                          _check_nonfull(pencil), _digest_cert))
    hollow_sizes = (3, 4) if tiny else ((3, 4, 5, 6) * 5)[:18]
    for i, size in enumerate(hollow_sizes):
        pencil = hollow_matrix(size, 1 + i % 3, rng.randrange(2**31)).to_pencil()
        s = rng.randrange(2**31)
        ops.append(Op("", f"hollow{size}",
                      lambda p=pencil, s=s: nc.fullness_scaling(p, seed=s),
                      _check_nonfull(pencil), _digest_cert))
    ladder = {1: 1, 2: 1} if tiny else {1: 4, 2: 12, 3: 1}
    for k, count in ladder.items():
        for _ in range(count):
            matrix = cubic_ladder(k)
            s = rng.randrange(2**31)
            ops.append(Op("", f"cubicN{1 + 2 * k}",
                          lambda m=matrix, s=s: nc.ncrank(m, seed=s),
                          _check_rho_one, _digest_rank))
    return _finish("certify", pass_index, ops, rng)


def _spectra_pencil(rng: random.Random, size: int, n_vars: int, singular: bool):
    """An affine pencil; with one variable, A1 is singular exactly when asked.

    A singular A1 leaves the homogeneous part nonfull, so every eigenvalue
    of A0 has to be certified, which costs several times more.  Fixing how
    many pencils have one keeps the cost of a pass the same across seeds.
    """
    while True:
        pencil = _nonzero_pencil(n_vars, size, rng.randrange(2**31), False)
        if n_vars > 1:
            return pencil
        a1 = np.array([[float(x.re) for x in row] for row in pencil.coeffs[1]])
        # small integer entries: the rounded float determinant is exact
        if (round(np.linalg.det(a1)) == 0) == singular:
            return pencil


def build_spectra(seed: int, pass_index: int, tiny: bool) -> List[Op]:
    rng = _rng("spectra", seed, pass_index)
    ops: List[Op] = []
    for k in range(6 if tiny else 150):
        size, n_vars = 2 + k % 3, 1 + (k // 3) % 3
        # five of each size with one variable get a singular A1
        pencil = _spectra_pencil(rng, size, n_vars, singular=(k // 9) % 4 == 0)
        s = rng.randrange(2**31)
        ops.append(Op("", f"pencil{size}",
                      lambda p=pencil, s=s: nc.central_eigs_pencil(p, seed=s),
                      _check_pencil_spectrum(pencil), _digest_spectrum))
    d = 120 if tiny else 200
    # twelve planted ops of size 2, four of size 3
    for k in range(3 if tiny else 16):
        pattern = k if tiny else (1 + k % 2 if k < 4 else 0)
        matrix, expected = planted_polymatrix(rng, pattern, k % 3)
        s = rng.randrange(2**31)
        ops.append(Op("", f"planted{matrix.rows}",
                      lambda m=matrix, s=s: nc.central_eigs_polymatrix(m, d=d, seed=s),
                      _check_planted(expected), _digest_spectrum))
    return _finish("spectra", pass_index, ops, rng)


EVAL_EXPRESSIONS = (
    "x2*inv(x1*x2)*x1",  # the identity
    "inv(x1 + x2*x1) - x1'",
    "inv(1 + x1*inv(x2 + 3)*x1') + x2*x1",
)


def build_numeric(seed: int, pass_index: int, tiny: bool) -> List[Op]:
    rng = _rng("numeric", seed, pass_index)
    ops: List[Op] = []
    d = 40 if tiny else 200
    for size in (2, 3):
        for kind in ("gue", "haar"):
            for _ in range(1 if tiny else 8):
                matrix = nc.random_poly_matrix(2, size, size, 2, seed=rng.randrange(2**31))
                s = rng.randrange(2**31)
                ops.append(Op("", f"scan{size}{kind}",
                              lambda m=matrix, s=s, kind=kind: nc.atiyah_integrality_scan(
                                  [m], d=d, seed=s, kind=kind),
                              _check_scan, _digest_scan))
    d_eval = 10 if tiny else 50
    for k, expr in enumerate(EVAL_EXPRESSIONS):
        for _ in range(1 if tiny else 3):
            argv = ["eval", "--expr", expr, "--d", str(d_eval),
                    "--seed", str(rng.randrange(2**31))]
            ops.append(Op("", f"eval{k}", _cli(argv), _check_eval(k == 0), _digest_text))
    return _finish("numeric", pass_index, ops, rng)


# The ladder from the roadmap, then smaller balls that give the latency
# distribution enough samples; (n, R) -> ops per pass.
DUAL_MIX = {(2, 6): 1, (2, 7): 1, (3, 5): 1, (1, 12): 1,
            (3, 4): 2, (2, 5): 8, (2, 4): 16, (2, 3): 30, (1, 8): 40}
DUAL_MIX_TINY = {(1, 6): 1, (2, 3): 2, (3, 2): 1}


def build_dualcheck(seed: int, pass_index: int, tiny: bool) -> List[Op]:
    # The balls are fixed; the seed orders the ops and is passed to the CLI.
    rng = _rng("dualcheck", seed, pass_index)
    ops: List[Op] = []
    for (n, radius), count in (DUAL_MIX_TINY if tiny else DUAL_MIX).items():
        for _ in range(count):
            argv = ["dualcheck", "--n", str(n), "--R", str(radius),
                    "--seed", str(rng.randrange(2**31))]
            ops.append(Op("", f"ball{n}r{radius}", _cli(argv), _check_dual(n), _digest_text))
    return _finish("dualcheck", pass_index, ops, rng)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "certify",
            (
                "exact fullness certification (scaling, then exact rank confirmation) on "
                "pencils of size 2-5 and a cubic ladder to N=7; scalars.rank_exact "
                "dominates"
            ),
            build_certify,
            "python",
            ("scalars.rank_exact", "scalars.kernel_exact", "scalars.colspace_exact",
             "ncrank.fullness_scaling", "ncrank.ncrank", "ncrank.rank_by_substitution",
             "ncrank.linearize_matrix", "ncrank.homogenize", "randmat.sample",
             "randmat.empirical_rank", "ncpoly.NcMatrix.evaluate"),
        ),
        Workload(
            "spectra",
            (
                "central eigenvalues of 150 affine pencils and 16 planted polynomial "
                "matrices at d=200: many small exact kernels per call, so per-call "
                "overhead shows"
            ),
            build_spectra,
            "python",
            ("scalars.rank_exact", "ncrank.ncrank", "ncrank.rank_by_substitution",
             "ncrank.fullness_scaling", "ncrank.homogenize", "ncrank.linearize_matrix",
             "spectra.central_eigs_pencil", "spectra.central_eigs_polymatrix",
             "randmat.sample", "randmat.empirical_rank", "ncpoly.NcMatrix.evaluate"),
        ),
        Workload(
            "numeric",
            (
                "float work at large d (integrality scans at d=200, CLI eval at d=50) "
                "with no exact arithmetic: the bypass workload for exact-kernel changes"
            ),
            build_numeric,
            "blas",
            ("randmat.sample", "randmat.empirical_rank", "randmat.atiyah_integrality_scan",
             "ncpoly.NcMatrix.evaluate", "ncpoly.LinearPencil.evaluate", "ratexpr.parse",
             "ratexpr.eval_numeric", "realization.realize", "realization.domain_check",
             "realization.eval_rep", "cli.main"),
        ),
        Workload(
            "dualcheck",
            (
                "CLI dualcheck on free-group balls up to (2,7) and (3,5): exact, never "
                "touches scalars, and the only load on freegroup"
            ),
            build_dualcheck,
            "python",
            ("freegroup.build_ball", "freegroup.commutator_defect",
             "freegroup.SparseOp.apply", "freegroup.dual_system_report", "cli.main"),
            min_passes=3,
        ),
    )
}
