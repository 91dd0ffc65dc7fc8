"""Command-line surface: solve, certify, and generate over JSON instance files.

Exit codes: 0 optimal/success, 1 I/O or validation error, 2 infeasible or too
large (more C(n, k) center sets than the brute force's cap), 3 certified
not-resilient, 4 internal consistency check failed (a bug, not bad input), 5
the float LP solve at some radius R could not be confirmed exactly, whatever
the instance's number type (the message names R and the reason). Every
number in an input file, distance, coordinate or integer field, is read by
one rule, :func:`_number`: a JSON integer is an int, a float literal a
finite float (with --exact, the Fraction it denotes), and a rational string
such as "3/2" a Fraction; a decimal exponent too large for the digit limit
is rejected before its power of ten is built. Every solve and certify report
is loaded, timed and printed by :func:`_report`; with --exact, numbers are
emitted as rational strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

# generator, mstdp, oracle and perturb are imported by the commands that
# run them, so that certify loads only the modules it calls
from . import approx, lp
from .core import (
    KCENTER,
    MODES,
    SYMMETRIC,
    Clustering,
    Instance,
    InternalCheckFailed,
    bounded_fraction,
    cost,
    costs_agree,
    integer_form,
    objective_by_name,
    validate_metric,
)
from .simplex import SolverPrecisionExceeded

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_RESILIENT = 3
EXIT_INTERNAL = 4
EXIT_UNCONFIRMED = 5


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_ERROR):
        super().__init__(message)
        self.code = code


class _Literal(str):
    """The text of a JSON number literal, kept for :func:`_number` to read."""

    __slots__ = ()


class _Reread(Exception):
    """A first reading met a number that only its literal's text can report."""


def _cut(x) -> str:
    """``x`` as the file wrote it, for an error message: a literal's text or
    any other value's JSON, and past 50 characters only its two ends."""
    text = x if type(x) is _Literal else json.dumps(x)
    return text if len(text) <= 50 else f"{text[:20]}...{text[-10:]} ({len(text)} characters)"


def _integral(literal: str) -> bool:
    return literal.lstrip("-").isdigit()


def _number(x, name: str, exact: bool):
    """The number that ``x``, a value of the field ``name``, stands for:

    - a JSON integer is an ``int``;
    - a JSON float literal is a finite ``float``, or a ``Fraction`` under
      ``exact``;
    - a rational string such as ``"3/2"`` is a ``Fraction``, which without
      ``exact`` must lie within the float range, as the report prints floats.

    Anything else (``"1/0"``, ``"abc"``, ``true``), and any number whose
    numerator or denominator has more digits than Python converts, is a
    ValueError naming the field. A float literal that overflows is a
    ValueError echoing it, or :class:`_Reread` when a first reading made it
    an infinite float, so that the second reading echoes its text."""
    if type(x) is int:
        return x
    literal = type(x) is _Literal
    if type(x) is float or literal and not (exact or _integral(x)):
        v = float(x)
        if math.isfinite(v):
            return v
        if not literal:
            raise _Reread
        raise ValueError(f"{_cut(x)} overflows to {json.dumps(v)} as a float")
    try:
        if not isinstance(x, str):
            raise ValueError
        v = bounded_fraction(x)
    except ValueError:
        if not literal:  # a literal fails only past the digit limit
            raise ValueError(f'"{name}" must be a JSON number or a rational string in every '
                             f"entry, got {_cut(x)}") from None
        v = None
    except OverflowError:
        v = None
    if v is None:
        raise ValueError(f'"{name}" must be a JSON number of at most '
                         f"{sys.get_int_max_str_digits()} digits in its numerator and "
                         f"denominator, got {_cut(x)}")
    if literal:
        return v.numerator if v.denominator == 1 and _integral(x) else v
    if not exact:
        try:
            float(v)
        except OverflowError:
            raise ValueError(f'"{name}" must lie within the float range without --exact, '
                             f"got {_cut(x)}") from None
    return v


def _plain(row: list) -> bool:
    """Whether :func:`_number` keeps every entry of ``row`` as it is: all
    ints, or all floats with a finite sum, which no infinite float has."""
    kinds = set(map(type, row))
    return kinds <= {int} or kinds == {float} and math.isfinite(sum(row))


def _parse_rows(rows, name: str, exact: bool) -> list:
    """The field ``name``, a JSON array of JSON arrays, as a list of tuples
    of what :func:`_number` reads; anything else is a ValueError naming it."""
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ValueError(f'"{name}" must be a JSON array of JSON arrays')
    return [tuple(row) if _plain(row) else tuple([_number(x, name, exact) for x in row])
            for row in rows]


def _coordinates(points, exact: bool) -> np.ndarray:
    """Point coordinates as one array, a row per point: int64 when every
    coordinate is an integer (Python ints when a distance could leave int64),
    ``Fraction``s under ``exact``, float64 otherwise. ``points`` must be a
    nonempty JSON array of rows of one length."""
    coords = _parse_rows(points, "points", exact)
    if not coords or len(set(map(len, coords))) != 1:
        raise ValueError('"points" must be a JSON array of one or more rows of one length')
    if all(Fraction(x).denominator == 1 for row in coords for x in row):
        # a distance sums one difference per dimension
        return integer_form([[int(x) for x in row] for row in coords], len(coords[0]))[0]
    return np.array(coords, dtype=object if exact else np.float64)


def _typed(value, kind: type, name: str):
    """``value`` when its JSON type is ``kind`` (int or bool), else a
    ValueError naming the field ``name``; an integer literal kept as text is
    read by :func:`_number`, alike with and without ``--exact``."""
    if kind is int and type(value) is _Literal and _integral(value):
        return _number(value, name, exact=True)
    if type(value) is float and not math.isfinite(value):
        raise _Reread
    if type(value) is not kind:
        noun = "integer" if kind is int else "boolean"
        raise ValueError(f'"{name}" must be a JSON {noun}, got {_cut(value)}')
    return value


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _read(text: str, path: str, exact: bool, literal: bool) -> tuple[Instance, Clustering | None]:
    """The instance and planted clustering of an instance file's ``text``.
    A first reading keeps json's own number readers, but under ``exact``
    reads float literals as :class:`_Literal`; it raises :class:`_Reread`
    at a number that only its literal's text can report. A second reading
    (``literal``) reads every number literal as a :class:`_Literal`."""
    try:
        doc = json.loads(text, parse_int=_Literal if literal else int,
                         parse_float=_Literal if literal or exact else float,
                         parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    except ValueError as e:  # NaN or ±Infinity, or an int past the digit limit
        raise CliError(f"{path}: {e}") if literal else _Reread
    if not isinstance(doc, dict):
        raise CliError(f"{path}: top-level JSON object expected")
    try:
        k = _typed(doc["k"], int, "k")
        z = _typed(doc.get("z", 0), int, "z")
        if "dist" in doc:
            dist = _parse_rows(doc["dist"], "dist", exact)
            if "n" in doc and _typed(doc["n"], int, "n") != len(dist):
                raise ValueError("declared n does not match the matrix size")
            if "symmetric" in doc:
                symmetric = _typed(doc["symmetric"], bool, "symmetric")
            else:  # a ragged matrix is left for Instance to reject
                symmetric = all(len(row) == len(dist) for row in dist) and all(
                    dist[u][v] == dist[v][u]
                    for u in range(len(dist))
                    for v in range(u + 1, len(dist))
                )
            inst = Instance(dist, k, z, symmetric=symmetric)
        elif "points" in doc:
            metric = doc.get("metric", "euclidean")
            if metric not in ("euclidean", "manhattan"):
                raise ValueError(f"unknown metric {_cut(metric)}")
            pts = _coordinates(doc["points"], exact)
            if metric == "euclidean":
                try:
                    with np.errstate(over="raise"):
                        pts = pts.astype(np.float64)
                        mat = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
                except (OverflowError, FloatingPointError):
                    raise ValueError('"points" is too large for float Euclidean distances')
            else:
                mat = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
            if mat.dtype == object:
                mat = [[x.numerator if x.denominator == 1 else x for x in row]
                       for row in mat.tolist()]
            inst = Instance(mat, k, z, symmetric=True)
        else:
            raise ValueError('either "dist" or "points" is required')
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CliError(f"{path}: {e}")
    if "planted" not in doc:
        return inst, None
    p = doc["planted"]
    try:
        return inst, Clustering(
            tuple(_typed(a, int, "planted.assignment") for a in p["assignment"]),
            tuple(_typed(c, int, "planted.centers") for c in p["centers"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"{path}: bad planted clustering: {e}")


def load_instance_file(
    path: str, exact: bool, timing: dict | None = None
) -> tuple[Instance, Clustering | None]:
    """Parse an instance file: either an explicit distance matrix
    {"n", "k", "z", "symmetric", "dist"} or a point cloud {"points", "metric",
    "k", "z"}; an optional "planted" clustering rides along. "k", "z", "n"
    and the planted indices must be JSON integers, "symmetric" a JSON
    boolean, and every distance and coordinate a JSON number or a rational
    string, read by :func:`_number`. The instance must pass
    :func:`validate_metric`; its seconds go to ``timing["validate"]`` when a
    ``timing`` dict is given."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    if not text.strip():
        raise CliError(f"{path}: empty file")
    try:
        inst, planted = _read(text, path, exact, literal=False)
    except _Reread:
        inst, planted = _read(text, path, exact, literal=True)
    started = time.perf_counter()
    violations = validate_metric(inst)
    if timing is not None:
        timing["validate"] = time.perf_counter() - started
    if violations:
        raise CliError(f"{path}: not a valid metric, e.g. {violations[0]}")
    return inst, planted


def _clustering_doc(clus: Clustering) -> dict:
    return {
        "assignment": list(clus.assignment),
        "centers": list(clus.centers),
        "outliers": sorted(clus.outliers),
    }


def cmd_solve(inst: Instance, args) -> tuple[dict, int]:
    """``solve``'s report fields for ``inst`` and its exit code."""
    obj = objective_by_name(args.objective)
    if args.method in ("lp", "gonzalez", "hs") and obj is not KCENTER:
        raise CliError(f"--method {args.method} solves the kcenter objective only")
    report: dict = {"method": args.method, "objective": args.objective, "verdict": "SOLVED"}
    code = EXIT_OK
    if args.method == "lp":
        fields, code = cmd_certify(inst, args)
        report.update(fields)
    elif args.method == "oracle":
        from . import oracle

        try:
            res = oracle.brute_force(inst, obj)
        except oracle.InstanceTooLarge as e:
            raise CliError(str(e), EXIT_INFEASIBLE)
        again = cost(inst, res.best, obj)
        if not costs_agree(again, res.cost, inst.exact):
            raise InternalCheckFailed(f"reported cost {res.cost}, recomputed {again}")
        report.update(cost=res.cost, unique=res.unique, clustering=_clustering_doc(res.best))
    elif args.method == "mstdp":
        from . import mstdp

        try:
            clus = mstdp.solve_outlier_clustering(inst, obj)
        except mstdp.Infeasible as e:
            raise CliError(str(e), EXIT_INFEASIBLE)
        report.update(cost=cost(inst, clus, obj), clustering=_clustering_doc(clus))
    else:
        algo = approx.GONZALEZ if args.method == "gonzalez" else approx.HOCHBAUM_SHMOYS
        clus = approx.recover_via_2approx(inst, algo)
        value = cost(inst, clus, KCENTER)
        report.update(cost=value, radius=value, clustering=_clustering_doc(clus))
    return report, code


def cmd_certify(inst: Instance, args) -> tuple[dict, int]:
    """``certify``'s report fields for ``inst`` and its exit code, which
    ``solve --method lp`` reports too, with ``falsify`` off."""
    formulation = lp.ASYM_KC if not inst.symmetric else lp.KCO if inst.z else lp.KC
    verdict = lp.certify(inst, formulation)
    report: dict = {"formulation": formulation, "radius": verdict.lp_radius,
                    "route": verdict.route, "packing": None, "verdict": verdict.kind}
    if verdict.packing is not None:
        report["packing"] = {"radius": verdict.packing.radius,
                             "points": list(verdict.packing.points)}
    if verdict.kind == lp.OPTIMAL:
        report["cost"] = cost(inst, verdict.clustering, KCENTER)
        report["clustering"] = _clustering_doc(verdict.clustering)
    else:
        witness = verdict.fractional_witness
        report["lp"] = {
            "feasible": witness.feasible,
            "integral": witness.integral,
            "bound": witness.bound,
            "y": list(witness.y),
        }
    if args.falsify:
        from . import oracle, perturb

        try:
            fr = perturb.falsify_resilience(inst, KCENTER)
            fdoc: dict = {"verdict": fr.verdict, "tried": fr.tried, "exhausted": fr.exhausted,
                          "invalid": fr.invalid}
            if fr.witness is not None:
                spec, alt = fr.witness
                fdoc["witness"] = {
                    "edges": [list(e) for e in spec.edges],
                    "cap": spec.cap,
                    "mode": spec.mode,
                    "alternate": _clustering_doc(alt),
                }
            report["falsifier"] = fdoc
        except oracle.InstanceTooLarge:
            report["falsifier"] = {"skipped": "instance too large for brute force"}
    return report, EXIT_OK if verdict.kind == lp.OPTIMAL else EXIT_NOT_RESILIENT


def _report(args) -> int:
    """Load ``args.input``, run the solve step ``args.solve`` on it and print
    its report, with ``timing`` in seconds: ``load``, ``validate`` (the metric
    check), ``seconds`` (the solve) and ``total``, from the start of loading
    to the end of the solve. A Fraction prints as a rational string under
    ``--exact``, else as a float."""
    loaded = time.perf_counter()
    timing: dict = {}
    inst, _ = load_instance_file(args.input, args.exact, timing)
    timing["load"] = time.perf_counter() - loaded - timing["validate"]
    started = time.perf_counter()
    report, code = args.solve(inst, args)
    now = time.perf_counter()
    report["timing"] = dict(timing, seconds=now - started, total=now - loaded)

    def number(x):
        if type(x) is Fraction:
            return str(x) if args.exact else float(x)
        raise TypeError(f"{type(x).__name__} is not JSON serializable")

    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False, default=number))
    return code


def cmd_generate(args) -> int:
    from . import generator

    try:
        sigma = bounded_fraction(args.sigma)
    except ValueError:
        raise CliError(f"--sigma must be a number or a rational string, got {args.sigma!r}")
    except OverflowError as e:
        raise CliError(f"--sigma: {e}")
    cfg = generator.GeneratorConfig(
        n=args.n,
        k=args.k,
        z=args.z,
        sigma=sigma,
        radius=args.radius,
        seed=args.seed,
        mode=args.mode,
    )
    try:
        inst, planted = generator.generate(cfg)
    except generator.ConfigInfeasible as e:
        raise CliError(str(e), EXIT_INFEASIBLE)
    doc = {
        "n": inst.n,
        "k": inst.k,
        "z": inst.z,
        "symmetric": inst.symmetric,
        "dist": inst._array.tolist(),
        "planted": {
            "assignment": list(planted.assignment),
            "centers": list(planted.centers),
        },
        "generator": {
            "mode": cfg.mode,
            "sigma": str(cfg.sigma),
            "radius": cfg.radius,
            "seed": cfg.seed,
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    try:
        Path(args.out).write_text(text)
    except OSError as e:
        raise CliError(f"cannot write {args.out}: {e}")
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _run_single(func, args) -> int:
    try:
        return func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except InternalCheckFailed as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except SolverPrecisionExceeded as e:
        print(f"error: the float solve could not be confirmed exactly {e}", file=sys.stderr)
        return EXIT_UNCONFIRMED
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


def _run_batch(func, args) -> int:
    """Process every *.json file in a directory, with at most one worker per
    file; reports are printed in file order regardless of worker scheduling.
    Exit code is the worst one seen."""
    directory = Path(args.input)
    files = sorted(str(p) for p in directory.glob("*.json"))
    if not files:
        print(f"error: no *.json files in {directory}", file=sys.stderr)
        return EXIT_ERROR
    jobs = min(max(1, args.jobs), len(files))
    tasks = [(func, dict(vars(args), input=f)) for f in files]
    if jobs == 1:
        results = [_batch_worker(*t) for t in tasks]
    else:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            results = pool.starmap(_batch_worker, tasks)
    for code, out, err in results:
        if out:
            sys.stdout.write(out)
        if err:
            sys.stderr.write(err)
    return max(code for code, _, _ in results)


def _batch_worker(func, arg_dict: dict) -> tuple[int, str, str]:
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _run_single(func, argparse.Namespace(**arg_dict))
    return code, out.getvalue(), err.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilient-cluster",
        description="Certified-optimal clustering on perturbation-resilient instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", required=True, help="instance file or directory")
    shared.add_argument("--exact", action="store_true")
    shared.add_argument("--jobs", type=int, default=1)

    p_solve = sub.add_parser("solve", parents=[shared],
                             help="solve an instance with a chosen method")
    p_solve.add_argument(
        "--objective",
        default="kcenter",
        help="kcenter, kmedian, kmeans, or lp:P for a summed p-th power objective",
    )
    p_solve.add_argument(
        "--method",
        required=True,
        choices=["lp", "mstdp", "gonzalez", "hs", "oracle"],
    )
    p_solve.set_defaults(func=_report, solve=cmd_solve, falsify=False)

    p_cert = sub.add_parser("certify", parents=[shared],
                            help="optimality or non-resilience certificate")
    p_cert.add_argument("--falsify", action="store_true",
                        help="also search proof-shaped perturbations (small n)")
    p_cert.set_defaults(func=_report, solve=cmd_certify)

    p_gen = sub.add_parser("generate", help="write a planted instance file")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--z", type=int, default=0)
    p_gen.add_argument("--sigma", default="4")
    p_gen.add_argument("--radius", type=int, default=1000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--mode",
        default=SYMMETRIC,
        choices=list(MODES),
    )
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.func is _report and Path(args.input).is_dir():
        return _run_batch(_report, args)
    return _run_single(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
