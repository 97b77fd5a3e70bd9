"""Command-line interface.

Subcommands::

    majorize     decide x majorised-by y; optionally emit the mixing plan
    synth        Hermitian matrix with prescribed diagonal and spectrum
    carpenter    finite projection with prescribed diagonal
    obstruction  classify a sequence; optionally build a truncated projection
    verify       re-check an emitted matrix or truncated projection

Output is ``key=value`` lines by default, a two-line CSV with ``--csv``, or
prose with ``--human``.  Exit codes: 0 success, 1 infeasible (including a
failed verification or a non-majorised pair), 2 malformed input (including a
``--tol`` that is not finite and non-negative, or a negative ``--budget``),
3 numerical failure (including a ``majorize --decompose``, ``synth`` or
``carpenter`` whose own printed error exceeds ``--tol`` scaled by the input,
and a built witness with a non-finite entry, which is never written).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .carpenter import (
    Feasibility,
    build_case_a,
    build_case_b,
    feasibility,
    verify_truncation,
)
from .io import (
    FormatError,
    load_matrix,
    load_sequence_spec,
    load_truncated_projection,
    load_vector,
    save_matrix,
    save_plan,
    save_truncated_projection,
)
from .linalg import (
    hermitian_eigenvalues,
    hermitian_residual,
    projection_entry_excess,
    projection_residual,
    unitary_residual,
)
from .majorization import (
    MajorizationError,
    decompose_t_transforms,
    majorizes,
    replay_t_transform_plan,
)
from .schur import InfeasibleDiagonalError, carpenter_finite, synthesize_hermitian

__all__ = ["main"]


def _fmt(value) -> str:
    if value is None:
        return "unattributed"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Feasibility):
        return value.value
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _max_gap(a, b) -> float:
    """Largest entrywise ``|a - b|`` (0.0 for empty operands)."""
    gap = np.abs(a - b)
    return float(np.max(gap)) if gap.size else 0.0


def _check_errors(pairs, tol: float, scale) -> None:
    """Raise ``RuntimeError`` (exit 3) when a printed ``*_error`` exceeds
    ``tol * max(1, max|scale|)``, ``scale`` being the input vector whose size
    sets the roundoff: the command's check of its own witness."""
    bound = tol * max(1.0, float(np.max(np.abs(scale), initial=0.0)))
    for key, value in pairs:
        if key.endswith("_error") and not value <= bound:
            raise RuntimeError(
                f"{key}={_fmt(value)} exceeds tol * max(1, max|input|) = {_fmt(bound)}"
            )


def _check_finite(*witnesses) -> None:
    """Raise ``RuntimeError`` (exit 3) on a non-finite witness entry; run before any save."""
    if not all(np.isfinite(w).all() for w in witnesses):
        raise RuntimeError("the built witness has a non-finite entry; nothing was written")


def _check_options(args) -> None:
    """Raise ``ValueError`` (exit 2) on a ``--tol`` that is not finite and
    non-negative or on a negative ``--budget``; run before any file is touched."""
    tol = getattr(args, "tol", 0.0)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"--tol must be finite and non-negative, not {tol!r}")
    if getattr(args, "budget", 0) < 0:
        raise ValueError(f"--budget must be non-negative, not {args.budget}")


def _emit(pairs, args) -> None:
    if getattr(args, "csv", False):
        print(",".join(key for key, _ in pairs))
        print(",".join(_fmt(value) for _, value in pairs))
    elif getattr(args, "human", False):
        for key, value in pairs:
            print(f"{key.replace('_', ' ')}: {_fmt(value)}")
    else:
        for key, value in pairs:
            print(f"{key}={_fmt(value)}")


def _cmd_majorize(args) -> int:
    x = load_vector(args.x)
    y = load_vector(args.y)
    if x.size != y.size:
        raise FormatError(f"vectors differ in length: {x.size} vs {y.size}")
    ok = majorizes(x, y, args.tol)
    pairs = [("n", x.size), ("majorizes", ok)]
    if ok and args.decompose:
        plan = decompose_t_transforms(x, y, args.tol)
        save_plan(args.decompose, plan)
        replay = replay_t_transform_plan(plan, y)
        replay_error = _max_gap(replay, x)
        pairs += [("transforms", len(plan.t)), ("replay_error", replay_error)]
    _emit(pairs, args)
    _check_errors(pairs, args.tol, y)
    return 0 if ok else 1


def _cmd_synth(args) -> int:
    x = load_vector(args.diagonal)
    y = load_vector(args.spectrum)
    result = synthesize_hermitian(x, y, args.tol)
    _check_finite(result.matrix, result.unitary)
    save_matrix(args.out, result.matrix)
    if args.unitary:
        save_matrix(args.unitary, result.unitary)
    diag_error = _max_gap(np.diag(result.matrix), x)
    eigs = hermitian_eigenvalues(result.matrix)
    spectrum_error = _max_gap(eigs, np.sort(y))
    pairs = [
        ("n", x.size),
        ("hermitian_residual", hermitian_residual(result.matrix)),
        ("unitary_residual", unitary_residual(result.unitary)),
        ("diagonal_error", diag_error),
        ("spectrum_error", spectrum_error),
    ]
    _emit(pairs, args)
    _check_errors(pairs, args.tol, y)
    return 0


def _cmd_carpenter(args) -> int:
    d = load_vector(args.diagonal)
    p = carpenter_finite(d, args.tol)
    _check_finite(p)
    save_matrix(args.out, p)
    pairs = [
        ("n", d.size),
        ("trace", float(np.trace(p).real)),
        ("projection_residual", projection_residual(p)),
        ("diagonal_error", _max_gap(np.diag(p), d)),
        ("entry_excess", projection_entry_excess(p)),
    ]
    _emit(pairs, args)
    _check_errors(pairs, args.tol, d)
    return 0


def _cmd_obstruction(args) -> int:
    spec = load_sequence_spec(args.spec)
    report = feasibility(spec, args.alpha, budget=args.budget)
    pairs = [
        ("alpha", report.alpha),
        ("a_f", report.low_sum),
        ("b_f", report.high_complement_sum),
        ("case", report.feasibility),
        ("defect", report.defect),
    ]
    infeasible = report.feasibility is Feasibility.INFEASIBLE
    if args.build and not infeasible:
        if report.feasibility is Feasibility.CASE_A:
            depth = args.depth if args.depth is not None else 3
            proj = build_case_a(spec, args.alpha, depth, budget=args.budget, report=report)
        else:
            depth = args.depth if args.depth is not None else 6
            proj = build_case_b(spec, args.alpha, depth, budget=args.budget, report=report)[-1]
        _check_finite(proj.matrix)
        save_truncated_projection(args.build, proj)
        pairs += [
            ("depth", proj.depth),
            ("dim", proj.matrix.shape[0]),
            ("trace", float(np.trace(proj.matrix).real)),
            ("covered_count", len(proj.covered)),
            ("residual_bound", proj.residual_bound),
        ]
    _emit(pairs, args)
    return 1 if infeasible else 0


def _cmd_verify(args) -> int:
    if args.spec and (args.diagonal or args.spectrum):
        raise ValueError("--spec checks a truncation; it takes no --diagonal or --spectrum")
    if args.spec:
        spec = load_sequence_spec(args.spec)
        truncated = load_truncated_projection(args.artifact)
        report = verify_truncation(spec, truncated, args.tol)
        _emit(
            [
                ("n", truncated.matrix.shape[0]),
                ("depth", truncated.depth),
                ("projection_residual", report.projection_residual),
                ("diagonal_error", report.diagonal_error),
                ("entry_excess", report.entry_excess),
                ("ok", report.ok),
            ],
            args,
        )
        return 0 if report.ok else 1
    m = load_matrix(args.artifact)
    pairs = [
        ("n", m.shape[0]),
        ("hermitian_residual", hermitian_residual(m)),
        ("unitary_residual", unitary_residual(m)),
        ("projection_residual", projection_residual(m)),
    ]
    ok = True
    if args.diagonal:
        x = load_vector(args.diagonal)
        if x.size != m.shape[0]:
            raise FormatError(f"diagonal length {x.size} does not match n={m.shape[0]}")
        diag_error = _max_gap(np.diag(m), x)
        pairs.append(("diagonal_error", diag_error))
        ok = ok and diag_error <= args.tol
    if args.spectrum:
        y = load_vector(args.spectrum)
        if y.size != m.shape[0]:
            raise FormatError(f"spectrum length {y.size} does not match n={m.shape[0]}")
        eigs = hermitian_eigenvalues(m)
        spectrum_error = _max_gap(eigs, np.sort(y))
        pairs.append(("spectrum_error", spectrum_error))
        ok = ok and spectrum_error <= args.tol
    pairs.append(("ok", ok))
    _emit(pairs, args)
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    It holds no handlers: :func:`main` looks up ``_cmd_<command>`` in this
    module on each call, so a replaced handler takes effect at once.
    """
    parser = argparse.ArgumentParser(
        prog="schurhorn",
        description="Majorisation, prescribed-diagonal synthesis, and projection truncations.",
    )
    style = argparse.ArgumentParser(add_help=False)
    style.add_argument("--human", action="store_true", help="prose output")
    style.add_argument("--csv", action="store_true", help="CSV output (header and value row)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("majorize", parents=[style], help="decide x majorised-by y")
    p.add_argument("x", help="vector JSON file (candidate)")
    p.add_argument("y", help="vector JSON file (majorant)")
    p.add_argument("--decompose", metavar="PLAN", help="write the mixing plan JSON here")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("synth", parents=[style], help="Hermitian with given diagonal and spectrum")
    p.add_argument("diagonal", help="vector JSON file (target diagonal)")
    p.add_argument("spectrum", help="vector JSON file (target spectrum)")
    p.add_argument("--out", required=True, help="write the matrix JSON here")
    p.add_argument("--unitary", help="write the conjugating unitary JSON here")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("carpenter", parents=[style], help="projection with given diagonal")
    p.add_argument("diagonal", help="vector JSON file (entries in [0, 1], integer sum)")
    p.add_argument("--out", required=True, help="write the projection JSON here")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("obstruction", parents=[style], help="classify a sequence at a threshold")
    p.add_argument("spec", help="sequence JSON file")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--build", metavar="OUT", help="write a truncated projection JSON here")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--budget", type=int, default=100_000)

    p = sub.add_parser("verify", parents=[style], help="re-check an emitted artifact")
    p.add_argument("artifact", help="matrix or truncated-projection JSON file")
    p.add_argument("--spec", help="sequence JSON; treat the artifact as a truncation of it")
    p.add_argument("--diagonal", help="vector JSON the matrix diagonal should match")
    p.add_argument("--spectrum", help="vector JSON the matrix spectrum should match")
    p.add_argument("--tol", type=float, default=1e-8)
    return parser


# Exception class -> exit code.  The first match wins, so subclasses come first.
_EXIT_CODES = (
    (InfeasibleDiagonalError, 1),
    (MajorizationError, 1),
    (RuntimeError, 3),
    (ValueError, 2),
    (OSError, 2),
)


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; safe to call repeatedly."""
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        return globals()[f"_cmd_{args.command}"](args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
