"""The four benchmark workloads: corpus, the timed call, and the verdict check.

Every corpus is built from the run's seed alone, through
``generator.generate`` and the random closed metrics below. An instance class
is ``(label, per_pass, make)``: one pass holds ``per_pass`` distinct instances
of every class, in a seeded order, and a run times whole passes. The class
counts put each workload's median and tail percentile inside one class rather
than on a gap between classes (see NOTES.md).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from resilient_cluster import core, generator, lp, mstdp, oracle, perturb
from resilient_cluster.core import KCENTER, KMEANS, KMEDIAN, Clustering, cost
from resilient_cluster.generator import ASYMMETRIC, OUTLIER_MODE, SYMMETRIC, GeneratorConfig

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# The benchmark's own binding for Instance, so a traced run can wrap it where
# the timed call looks it up.
Instance = core.Instance


@dataclass
class Item:
    """One benchmark instance: its class label, what the timed call needs, and
    what the check compares against."""

    id: int
    label: str
    n: int
    k: int
    z: int
    args: dict
    planted: Clustering | None = None
    extra: dict = field(default_factory=dict)


def random_metric(rng: random.Random, n: int, high: int) -> tuple:
    """Shortest-path closure of independent integer weights in [1, high]: an
    exact metric with many ties, so certify mostly answers NOT_2PR."""
    d = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            d[u][v] = d[v][u] = rng.randint(1, high)
    for w in range(n):
        row_w = d[w]
        for u in range(n):
            duw = d[u][w]
            row_u = d[u]
            for v in range(n):
                alt = duw + row_w[v]
                if alt < row_u[v]:
                    row_u[v] = alt
    return tuple(tuple(row) for row in d)


def _planted(rng, n, k, z=0, mode=SYMMETRIC, sigma=4, weak=False):
    cfg = GeneratorConfig(n=n, k=k, z=z, mode=mode, sigma=sigma,
                          seed=rng.randrange(2**31), allow_weak_separation=weak)
    return generator.generate(cfg)


def _formulation(symmetric: bool, z: int) -> str:
    if not symmetric:
        return lp.ASYM_KC
    return lp.KCO if z > 0 else lp.KC


# ---------------------------------------------------------------------------
# certify-exact: Instance(...) then certify(...) on rational input


def _certify_planted(n, k, z=0, mode=SYMMETRIC):
    def make(rng, i, j):
        inst, planted = _planted(rng, n, k, z, mode)
        sym = mode != ASYMMETRIC
        return Item(i, "", n, k, z, {"dist": inst.dist, "symmetric": sym,
                                     "formulation": _formulation(sym, z)}, planted)
    return make


def _certify_random(n, k, z, high):
    def make(rng, i, j):
        dist = random_metric(rng, n, high)
        return Item(i, "", n, k, z, {"dist": dist, "symmetric": True,
                                     "formulation": _formulation(True, z)})
    return make


def certify_exact_run(item: Item):
    a = item.args
    inst = Instance(a["dist"], item.k, item.z, a["symmetric"])
    return lp.certify(inst, a["formulation"])


def certify_exact_check(item: Item, verdict, cache: dict) -> str | None:
    a = item.args
    inst = core.Instance(a["dist"], item.k, item.z, a["symmetric"])
    if item.planted is not None:
        if verdict.kind != lp.OPTIMAL:
            return f"planted instance came back {verdict.kind}"
        if verdict.clustering.partition_key() != item.planted.partition_key():
            return "OPTIMAL partition differs from the planted one"
        planted_r = cost(inst, item.planted, KCENTER)
        if verdict.lp_radius != planted_r:
            return f"lp_radius {verdict.lp_radius} != planted radius {planted_r}"
    if item.id not in cache:
        try:
            cache[item.id] = oracle.brute_force(inst, KCENTER).cost
        except oracle.InstanceTooLarge:
            cache[item.id] = None
    best = cache[item.id]
    if best is not None:
        if verdict.lp_radius > best:
            return f"lp_radius {verdict.lp_radius} exceeds the brute-force optimum {best}"
        if verdict.kind == lp.OPTIMAL and verdict.lp_radius != best:
            return f"OPTIMAL radius {verdict.lp_radius} != brute-force optimum {best}"
    return None


# ---------------------------------------------------------------------------
# cli-certify: one `resilient-cluster certify` child process per instance


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env.pop("RESILIENT_CLUSTER_EXACT", None)
    return env


def spawn(argv: list[str]) -> tuple[int, str, int]:
    """Run a child to completion; return its exit code, its combined output and
    its peak resident memory in KiB."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=cli_env(), cwd=BENCH_DIR.parent)
    with proc.stdout:
        out = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def _cli_file(n, k):
    def make(rng, i, j):
        inst, planted = _planted(rng, n, k)
        doc = {
            "n": inst.n, "k": inst.k, "z": inst.z, "symmetric": inst.symmetric,
            "dist": [list(row) for row in inst.dist],
            "planted": {"assignment": list(planted.assignment),
                        "centers": list(planted.centers)},
        }
        return Item(i, "", n, k, 0, {"doc": doc}, planted,
                    {"radius": cost(inst, planted, KCENTER)})
    return make


def cli_write(items: list[Item], workdir: Path) -> None:
    for item in items:
        path = workdir / f"instance-{item.id}.json"
        path.write_text(json.dumps(item.args["doc"], indent=2, sort_keys=True) + "\n")
        item.args["path"] = str(path)


def cli_argv(item: Item) -> list[str]:
    return ["certify", "--input", item.args["path"]]


def cli_certify_run(item: Item):
    return spawn([sys.executable, "-m", "resilient_cluster.cli", *cli_argv(item)])


def cli_certify_check(item: Item, output, cache: dict) -> str | None:
    code, out, _ = output
    if code != 0:
        return f"exit code {code}: {out[-300:]}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return f"report is not JSON: {out[-300:]}"
    if report.get("verdict") != lp.OPTIMAL:
        return f"verdict {report.get('verdict')}"
    c = report["clustering"]
    got = Clustering(tuple(c["assignment"]), tuple(c["centers"]))
    if got.partition_key() != item.planted.partition_key():
        return "reported partition differs from the planted block"
    if report["radius"] != item.extra["radius"]:
        return f"radius {report['radius']} != planted radius {item.extra['radius']}"
    return None


# ---------------------------------------------------------------------------
# outlier-dp: solve_outlier_clustering on planted outlier instances


def _dp_planted(n, obj):
    def make(rng, i, j):
        inst, planted = _planted(rng, n, 4, 3, OUTLIER_MODE)
        return Item(i, "", n, 4, 3, {"inst": inst, "obj": obj}, planted)
    return make


def outlier_dp_run(item: Item):
    return mstdp.solve_outlier_clustering(item.args["inst"], item.args["obj"])


def outlier_dp_check(item: Item, clus, cache: dict) -> str | None:
    inst, obj = item.args["inst"], item.args["obj"]
    got, want = cost(inst, clus, obj), cost(inst, item.planted, obj)
    if got != want:
        return f"{obj.name} DP cost {got} != planted cost {want}"
    return None


# ---------------------------------------------------------------------------
# falsify: falsify_resilience on small planted instances and controls


FALSIFY_SIZES = tuple(range(12, 19))
FALSIFY_OBJECTIVES = (KCENTER, KMEDIAN)


def _size_and_objective(j, sizes):
    """The j-th instance of a class: sizes in turn, the objective alternating,
    so that every 2·len(sizes) instances hold each (n, objective) pair once."""
    return sizes[j % len(sizes)], FALSIFY_OBJECTIVES[(j + j // len(sizes)) % 2]


def _falsify_planted(mode, k, z=0, sigma=4, sizes=FALSIFY_SIZES):
    def make(rng, i, j):
        n, obj = _size_and_objective(j, sizes)
        inst, planted = _planted(rng, n, k, z, mode, sigma, weak=sigma <= 2)
        expect = perturb.RESILIENT_UNREFUTED if sigma > 2 else None
        return Item(i, "", n, k, z, {"inst": inst, "obj": obj}, planted,
                    {"expect": expect})
    return make


def _falsify_random(k, high, sizes=FALSIFY_SIZES):
    def make(rng, i, j):
        n, obj = _size_and_objective(j, sizes)
        inst = core.Instance(random_metric(rng, n, high), k)
        return Item(i, "", n, k, 0, {"inst": inst, "obj": obj}, None, {"expect": None})
    return make


def falsify_run(item: Item):
    return perturb.falsify_resilience(item.args["inst"], item.args["obj"])


def falsify_check(item: Item, report, cache: dict) -> str | None:
    inst, obj = item.args["inst"], item.args["obj"]
    expect = item.extra["expect"]
    if expect is not None and report.verdict != expect:
        return f"planted sigma>2 instance came back {report.verdict}"
    if report.verdict != perturb.NOT_RESILIENT:
        return None
    spec, alt = report.witness
    base = oracle.brute_force(inst, obj)
    pert = perturb.apply_perturbation(inst, spec)
    again = oracle.brute_force(pert, obj)
    if cost(pert, alt, obj) != again.cost:
        return "witness clustering is not optimal under its perturbation"
    if alt.partition_key() == base.best.partition_key():
        return "witness clustering equals the unperturbed optimum"
    return None


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple          # (label, per_pass, make), the full-size pass
    tiny_classes: tuple     # the same shape at test size
    run: object
    check: object
    in_process: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-exact",
            (
                ("kc-64", 40, _certify_planted(64, 6)),
                ("asym-kc-64", 40, _certify_planted(64, 6, mode=ASYMMETRIC)),
                ("kc-128", 30, _certify_planted(128, 4)),
                ("kco-32", 2, _certify_planted(32, 3, 2, OUTLIER_MODE)),
                ("kco-48", 1, _certify_planted(48, 3, 2, OUTLIER_MODE)),
                ("kco-64", 1, _certify_planted(64, 3, 2, OUTLIER_MODE)),
                ("random-kc-32", 2, _certify_random(32, 3, 0, 8)),
                ("random-kco-24", 2, _certify_random(24, 2, 1, 20)),
            ),
            (
                ("kc-16", 1, _certify_planted(16, 3)),
                ("asym-kc-16", 1, _certify_planted(16, 3, mode=ASYMMETRIC)),
                ("kco-12", 1, _certify_planted(12, 2, 1, OUTLIER_MODE)),
                ("random-kc-10", 1, _certify_random(10, 2, 0, 8)),
            ),
            certify_exact_run, certify_exact_check,
        ),
        Workload(
            "cli-certify",
            (
                ("file-64", 20, _cli_file(64, 4)),
                ("file-256-exact", 3, _cli_file(256, 4)),
                ("file-400-float", 3, _cli_file(400, 4)),
            ),
            (("file-16", 1, _cli_file(16, 3)),),
            cli_certify_run, cli_certify_check, in_process=False,
        ),
        Workload(
            "outlier-dp",
            tuple(
                (f"{obj.name}-{n}", count, _dp_planted(n, obj))
                for obj in (KMEDIAN, KMEANS, KCENTER)
                for n, count in ((64, 6), (96, 1), (128, 1))
            ),
            (("kmedian-16", 1, _dp_planted(16, KMEDIAN)),
             ("kcenter-16", 1, _dp_planted(16, KCENTER))),
            outlier_dp_run, outlier_dp_check,
        ),
        Workload(
            "falsify",
            (
                ("symmetric", 3 * len(FALSIFY_SIZES), _falsify_planted(SYMMETRIC, 3)),
                ("asymmetric", 3 * len(FALSIFY_SIZES), _falsify_planted(ASYMMETRIC, 3)),
                ("weak-sigma-2", 3 * len(FALSIFY_SIZES), _falsify_planted(SYMMETRIC, 3, sigma=2)),
                ("outlier", len(FALSIFY_SIZES), _falsify_planted(OUTLIER_MODE, 2, 1)),
                ("random-metric", len(FALSIFY_SIZES), _falsify_random(3, 20)),
            ),
            (("symmetric-8", 2, _falsify_planted(SYMMETRIC, 2, sizes=(7, 8))),
             ("random-8", 2, _falsify_random(2, 20, sizes=(7, 8)))),
            falsify_run, falsify_check,
        ),
    )
}


def build_corpus(w: Workload, seed: int, tiny: bool) -> tuple[list[Item], Item]:
    """One pass of instances, in a seeded order, plus one warm-up instance;
    all of it from the seed alone."""
    classes = w.tiny_classes if tiny else w.classes
    rng = random.Random(f"{w.name}:{seed}")
    items = []
    for label, count, make in classes:
        for j in range(count):
            item = make(rng, len(items), j)
            item.label = label
            items.append(item)
    rng.shuffle(items)
    label, _, make = classes[0]
    warm = make(random.Random(f"{w.name}:{seed}:warm-up"), len(items), 0)
    warm.label = label
    return items, warm
