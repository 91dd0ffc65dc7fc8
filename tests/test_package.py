"""The package's public names, and the modules that each command loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resilient_cluster
from resilient_cluster import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")

# every public name of the package, under the module it is taken from
SURFACE = {
    "approx": ["GONZALEZ", "HOCHBAUM_SHMOYS", "ApproxResult", "gonzalez", "hochbaum_shmoys",
               "recover_via_2approx"],
    "core": ["KCENTER", "KMEANS", "KMEDIAN", "OUTLIER", "AsymmetricUnsupported", "Clustering",
             "ClusteringInvalid", "EmptyCenters", "Instance", "InternalCheckFailed", "Objective",
             "cost", "lp_norm", "objective_by_name", "validate_metric", "voronoi"],
    "generator": ["ASYMMETRIC", "MODES", "NON_RESILIENT", "OUTLIER_MODE", "SYMMETRIC",
                  "ConfigInfeasible", "GeneratorConfig", "SeparationViolation", "generate",
                  "verify_planted"],
    "lp": ["ASYM_KC", "KC", "KCO", "NOT_2PR", "OPTIMAL", "CertifierVerdict", "LpOutcome",
           "Packing", "build_threshold_graph", "certify", "extract_integral",
           "min_feasible_radius", "solve_lp"],
    "mstdp": ["BinaryTree", "Infeasible", "binarize", "build_mst", "solve_btp",
              "solve_outlier_clustering"],
    "oracle": ["InstanceTooLarge", "OracleResult", "brute_force", "brute_force_kminus1_check"],
    "perturb": ["DIRECTED", "NOT_RESILIENT", "RESILIENT_UNREFUTED", "UNDIRECTED",
                "FalsifierReport", "InvalidPerturbation", "PerturbationSpec", "apply_perturbation",
                "falsify_resilience", "radius_preserving_check"],
    "simplex": ["SolverPrecisionExceeded"],
}
PUBLIC = sorted([*SURFACE, *(name for names in SURFACE.values() for name in names)])
DUNDERS = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
           "__name__", "__package__", "__path__", "__spec__", "__version__"]
# what importing the package loads; cli adds itself
CERTIFIER = {"resilient_cluster", "resilient_cluster.approx", "resilient_cluster.core",
             "resilient_cluster.lp", "resilient_cluster.simplex"}


def python(*argv, path_first=""):
    """Run ``sys.executable`` on ``argv`` with the package's source, after
    ``path_first`` if given, on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (path_first, SRC, env.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)


def test_all_lists_every_module_and_name():
    assert resilient_cluster.__all__ == PUBLIC


def test_each_name_is_the_object_of_its_module():
    for module, names in SURFACE.items():
        mod = importlib.import_module(f"resilient_cluster.{module}")
        assert getattr(resilient_cluster, module) is mod
        for name in names:
            assert getattr(resilient_cluster, name) is getattr(mod, name), name
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        resilient_cluster.cli_main


def test_import_loads_the_certifier_and_the_rest_on_first_use():
    script = (
        "import json, sys\n"
        "import resilient_cluster\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('resilient_cluster'))\n"
        "before, names = loaded(), dir(resilient_cluster)\n"
        "generate = resilient_cluster.generator.generate\n"
        "same = generate is sys.modules['resilient_cluster.generator'].generate\n"
        "brute_force = resilient_cluster.brute_force\n"
        "print(json.dumps([before, names, same, loaded(), dir(resilient_cluster)]))\n"
    )
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    before, names, same, after, names_after = json.loads(proc.stdout)
    assert before == sorted(CERTIFIER)
    assert names == names_after == sorted(PUBLIC + DUNDERS)
    assert same
    assert after == sorted(CERTIFIER | {"resilient_cluster.generator", "resilient_cluster.oracle"})


def test_generate_help_is_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        cli.main(["generate", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == """\
usage: resilient-cluster generate [-h] --n N --k K [--z Z] [--sigma SIGMA]
                                  [--radius RADIUS] [--seed SEED]
                                  [--mode {symmetric,asymmetric,outlier,non-resilient}]
                                  --out OUT

options:
  -h, --help            show this help message and exit
  --n N
  --k K
  --z Z
  --sigma SIGMA
  --radius RADIUS
  --seed SEED
  --mode {symmetric,asymmetric,outlier,non-resilient}
  --out OUT
"""


@pytest.mark.parametrize("argv, extra", [
    (["certify"], set()),
    (["certify", "--falsify"], {"oracle", "perturb"}),
    (["solve", "--method", "lp"], set()),
    (["solve", "--method", "gonzalez"], set()),
    (["solve", "--method", "oracle"], {"oracle"}),
    (["solve", "--method", "mstdp"], {"mstdp"}),
    (["generate", "--n", "6", "--k", "2"], {"generator"}),
], ids=["certify", "certify-falsify", "solve-lp", "solve-gonzalez", "solve-oracle",
        "solve-mstdp", "generate"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    """The package's entries of sys.modules when `python -m
    resilient_cluster.cli` exits, written by a sitecustomize module; the CLI
    itself runs as __main__ and counts under its own name."""
    listing = tmp_path / "modules.json"
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, json, sys\n"
        "def listing():\n"
        "    names = {m for m in sys.modules if m.split('.')[0] == 'resilient_cluster'}\n"
        "    names.add(sys.modules['__main__'].__spec__.name)\n"
        f"    open({str(listing)!r}, 'w').write(json.dumps(sorted(names)))\n"
        "atexit.register(listing)\n"
    )
    path = tmp_path / "inst.json"
    if argv[0] == "generate":
        argv = [*argv, "--out", str(path)]
    else:
        path.write_text(json.dumps({"k": 2, "dist": [[0, 1, 10, 11], [1, 0, 9, 10],
                                                     [10, 9, 0, 1], [11, 10, 1, 0]]}))
        argv = [*argv, "--input", str(path)]
    proc = python("-m", "resilient_cluster.cli", *argv, path_first=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(listing.read_text()) == sorted(
        CERTIFIER | {f"resilient_cluster.{m}" for m in ["cli", *extra]})
