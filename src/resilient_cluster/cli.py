"""Command-line surface: solve, certify, and generate over JSON instance files.

Exit codes: 0 optimal/success, 1 I/O or validation error, 2 infeasible or too
large, 3 certified not-resilient, 4 internal consistency check failed (a bug,
not bad input), 5 the float LP solve at some radius R could not be confirmed
exactly, whatever the instance's number type (the message names R and the
reason). With --exact, float literals in input files are parsed as exact
rationals and numbers are emitted as rational strings.
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
    cost,
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


# what json.loads makes of a JSON number: float literals are Fractions under --exact
_NUMBERS = {int, float, Fraction}


def _cut(text: str) -> str:
    """``text`` for an error message: past 50 characters, its two ends."""
    return text if len(text) <= 50 else f"{text[:20]}...{text[-10:]} ({len(text)} characters)"


def _parse_number(x, name: str):
    """``x`` when it is a JSON number, its ``Fraction`` when it is a rational
    string; anything else, ``"1/0"`` and ``"abc"`` included, is a ValueError
    naming the field ``name``."""
    if type(x) in _NUMBERS:
        return x
    if type(x) is str:
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f'"{name}" must be a JSON number or a rational string in every entry, '
                     f"got {_cut(json.dumps(x))}")


def _parse_rows(rows, name: str) -> list:
    """The field ``name``, a JSON array of JSON arrays of numbers or rational
    strings, as a list of tuples, the strings parsed as numbers; anything else
    is a ValueError naming the field."""
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ValueError(f'"{name}" must be a JSON array of JSON arrays')
    return [tuple(row) if set(map(type, row)) <= _NUMBERS
            else tuple(_parse_number(x, name) for x in row)
            for row in rows]


def _coordinates(points, exact: bool) -> np.ndarray:
    """Point coordinates as one array, a row per point: int64 when every
    coordinate is an integer (Python ints when a distance could leave int64),
    ``Fraction``s under ``exact``, float64 otherwise. ``points`` must be a
    nonempty JSON array of rows of one length."""
    coords = _parse_rows(points, "points")
    if not coords or len(set(map(len, coords))) != 1:
        raise ValueError('"points" must be a JSON array of one or more rows of one length')
    flat = [x for row in coords for x in row]
    if all(Fraction(x).denominator == 1 for x in flat):
        coords = [[int(x) for x in row] for row in coords]
        wide = 2 * len(coords[0]) * max(map(abs, flat), default=0) >= 2**63
        return np.array(coords, dtype=object if wide else np.int64)
    return np.array(coords, dtype=object if exact else np.float64)


def _typed(value, kind: type, name: str):
    """``value`` when its JSON type is ``kind`` (int or bool), else a ValueError."""
    if type(value) is not kind:
        noun = "integer" if kind is int else "boolean"
        got = _cut(json.dumps(value, default=float))
        raise ValueError(f'"{name}" must be a JSON {noun}, got {got}')
    return value


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} overflows to {json.dumps(x)} as a float")
    return x


def _read_json(text: str, exact: bool, parse_int=int):
    return json.loads(text, parse_int=parse_int, parse_float=Fraction if exact else _finite_float,
                      parse_constant=_reject_constant)


class _Digits(str):
    """The text of a JSON integer literal, as :func:`_long_integer` reads it."""


def _long_integer(text: str, exact: bool) -> str | None:
    """When ``text`` holds an integer literal of more digits than Python
    converts, which ``json.loads`` rejects without naming a field: a message
    that names the top-level field holding it. None otherwise."""
    try:
        doc = _read_json(text, exact, parse_int=_Digits)
    except ValueError:
        return None
    limit = sys.get_int_max_str_digits()
    for name, value in doc.items() if isinstance(doc, dict) else ():
        todo = [value]
        while todo:
            x = todo.pop()
            if isinstance(x, (list, dict)):
                todo.extend(x.values() if isinstance(x, dict) else x)
            elif type(x) is _Digits and len(x.lstrip("-")) > limit:
                return f'"{name}" must be a JSON number of at most {limit} digits, got {_cut(x)}'
    return None


def load_instance_file(
    path: str, exact: bool, timing: dict | None = None
) -> tuple[Instance, Clustering | None]:
    """Parse an instance file: either an explicit distance matrix
    {"n", "k", "z", "symmetric", "dist"} or a point cloud {"points", "metric",
    "k", "z"}; an optional "planted" clustering rides along. "k", "z", "n"
    and the planted indices must be JSON integers, "symmetric" a JSON
    boolean, and every distance and coordinate a JSON number or a rational
    string. The instance must pass :func:`validate_metric`; its seconds go
    to ``timing["validate"]`` when a ``timing`` dict is given."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    if not text.strip():
        raise CliError(f"{path}: empty file")
    try:
        doc = _read_json(text, exact)
    except json.JSONDecodeError as e:
        raise CliError(f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    except ValueError as e:
        raise CliError(f"{path}: {_long_integer(text, exact) or e}")
    if not isinstance(doc, dict):
        raise CliError(f"{path}: top-level JSON object expected")
    try:
        k = _typed(doc["k"], int, "k")
        z = _typed(doc.get("z", 0), int, "z")
        if "dist" in doc:
            dist = _parse_rows(doc["dist"], "dist")
            if "n" in doc and _typed(doc["n"], int, "n") != len(dist):
                raise ValueError("declared n does not match the matrix size")
            if "symmetric" in doc:
                symmetric = _typed(doc["symmetric"], bool, "symmetric")
            else:
                symmetric = all(
                    dist[u][v] == dist[v][u]
                    for u in range(len(dist))
                    for v in range(u + 1, len(dist))
                )
            inst = Instance(dist, k, z, symmetric=symmetric)
        elif "points" in doc:
            metric = doc.get("metric", "euclidean")
            if metric not in ("euclidean", "manhattan"):
                raise ValueError(f"unknown metric {_cut(repr(metric))}")
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
    except CliError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CliError(f"{path}: {e}")
    started = time.perf_counter()
    violations = validate_metric(inst)
    if timing is not None:
        timing["validate"] = time.perf_counter() - started
    if violations:
        raise CliError(f"{path}: not a valid metric, e.g. {violations[0]}")
    planted = None
    if "planted" in doc:
        p = doc["planted"]
        try:
            planted = Clustering(
                tuple(_typed(a, int, "planted.assignment") for a in p["assignment"]),
                tuple(_typed(c, int, "planted.centers") for c in p["centers"]),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise CliError(f"{path}: bad planted clustering: {e}")
    return inst, planted


def _clustering_doc(clus: Clustering) -> dict:
    return {
        "assignment": list(clus.assignment),
        "centers": list(clus.centers),
        "outliers": sorted(clus.outliers),
    }


def _default_formulation(inst: Instance) -> str:
    if not inst.symmetric:
        return lp.ASYM_KC
    return lp.KCO if inst.z > 0 else lp.KC


def _report(doc: dict, exact_out: bool) -> None:
    def walk(x):
        if isinstance(x, dict):
            return {key: walk(v) for key, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [walk(v) for v in x]
        if isinstance(x, Fraction):
            return str(x) if exact_out else float(x)
        if isinstance(x, float) and not math.isfinite(x):
            raise ValueError("non-finite value in report")
        return x
    print(json.dumps(walk(doc), indent=2, sort_keys=True))


def _load(args) -> tuple[Instance, dict, float]:
    """The instance of ``args.input``, its ``timing`` dict with ``load`` and
    ``validate`` seconds, and the start time that ``total`` counts from."""
    started = time.perf_counter()
    timing: dict = {}
    inst, _ = load_instance_file(args.input, args.exact, timing)
    timing["load"] = time.perf_counter() - started - timing["validate"]
    return inst, timing, started


def cmd_solve(args) -> int:
    inst, timing, loaded = _load(args)
    obj = objective_by_name(args.objective)
    if args.method in ("lp", "gonzalez", "hs") and obj is not KCENTER:
        raise CliError(f"--method {args.method} solves the kcenter objective only")
    started = time.perf_counter()
    report: dict = {"method": args.method, "objective": args.objective, "verdict": "SOLVED"}
    code = EXIT_OK
    if args.method == "lp":
        fields, code = _certify_report(inst, args.formulation)
        report.update(fields)
    elif args.method == "oracle":
        from . import oracle

        try:
            res = oracle.brute_force(inst, obj)
        except oracle.InstanceTooLarge as e:
            raise CliError(str(e), EXIT_INFEASIBLE)
        again = cost(inst, res.best, obj)
        # a relative tolerance alone keeps the check the same at every scale
        if not (again == res.cost if inst.exact
                else math.isclose(float(again), float(res.cost), rel_tol=1e-9)):
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
    # seconds: the solve alone; total: from the start of loading
    now = time.perf_counter()
    report["timing"] = dict(timing, seconds=now - started, total=now - loaded)
    _report(report, args.exact)
    return code


def _certify_report(inst: Instance, formulation: str | None) -> tuple[dict, int]:
    """The report fields of :func:`lp.certify`'s verdict and the exit code."""
    formulation = formulation or _default_formulation(inst)
    verdict = lp.certify(inst, formulation)
    report: dict = {"formulation": formulation, "radius": verdict.lp_radius,
                    "route": verdict.route, "packing": None}
    if verdict.packing is not None:
        report["packing"] = {"radius": verdict.packing.radius,
                             "points": list(verdict.packing.points)}
    if verdict.kind == lp.OPTIMAL:
        report["verdict"] = lp.OPTIMAL
        report["cost"] = cost(inst, verdict.clustering, KCENTER)
        report["clustering"] = _clustering_doc(verdict.clustering)
        return report, EXIT_OK
    report["verdict"] = lp.NOT_2PR
    witness = verdict.fractional_witness
    report["lp"] = {
        "feasible": witness.feasible,
        "integral": witness.integral,
        "bound": witness.bound,
        "y": list(witness.y),
    }
    return report, EXIT_NOT_RESILIENT


def cmd_certify(args) -> int:
    inst, timing, loaded = _load(args)
    started = time.perf_counter()
    report, code = _certify_report(inst, args.formulation)
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
    # seconds: the solve alone; total: from the start of loading
    now = time.perf_counter()
    report["timing"] = dict(timing, seconds=now - started, total=now - loaded)
    _report(report, args.exact)
    return code


def cmd_generate(args) -> int:
    from . import generator

    try:
        sigma = Fraction(args.sigma)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"--sigma must be a number or a rational string, got {args.sigma!r}")
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
    """Process every *.json file in a directory; reports are printed in file
    order regardless of worker scheduling. Exit code is the worst one seen."""
    directory = Path(args.input)
    files = sorted(str(p) for p in directory.glob("*.json"))
    if not files:
        print(f"error: no *.json files in {directory}", file=sys.stderr)
        return EXIT_ERROR
    jobs = max(1, args.jobs)
    tasks = [(func.__name__, dict(vars(args), input=f, func=None)) for f in files]
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


def _batch_worker(func_name: str, arg_dict: dict) -> tuple[int, str, str]:
    import contextlib
    import io

    func = {"cmd_solve": cmd_solve, "cmd_certify": cmd_certify}[func_name]
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
    shared.add_argument("--formulation", choices=list(lp.FORMULATIONS), default=None)
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
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser("certify", parents=[shared],
                            help="optimality or non-resilience certificate")
    p_cert.add_argument("--falsify", action="store_true",
                        help="also search proof-shaped perturbations (small n)")
    p_cert.set_defaults(func=cmd_certify)

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
    func = args.func
    if func in (cmd_solve, cmd_certify) and Path(args.input).is_dir():
        return _run_batch(func, args)
    return _run_single(func, args)


if __name__ == "__main__":
    sys.exit(main())
