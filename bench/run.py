"""Benchmark of resilient-cluster: run one workload and print its metrics.

    python3 bench/run.py --workload certify-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ``src``
there and nowhere else. The corpus comes from ``--seed`` alone. A run sets up
(imports, corpus, instance files, one untimed warm-up instance), then calls the
workload one instance at a time in a closed loop with one caller until
``--seconds`` have passed, and checks every verdict after the loop. The loop
runs whole passes over the corpus, so every run measures the same mix: after
the first pass it starts another only if a whole pass still fits.

Times are reported in reference seconds: each measured interval is scaled by
the speed of a fixed calibration loop timed right before and after it, since
the CPU speed of a shared machine drifts by a quarter within minutes. Raw wall
times are kept in the run record.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` instead runs one
pass without and one pass with the span wrappers of ``spans.py`` installed
and prints the per-layer metrics (raw seconds); no end-to-end number comes
from a run with wrappers installed. The last line of stdout is the result
object; the line before it is the run record, which is also written under
``bench/out/``.
"""

import time


def calibrate() -> float:
    """Seconds for a fixed chunk of interpreter work."""
    started = time.perf_counter()
    for _ in range(20):
        sum(range(2000))
    return time.perf_counter() - started


_T0 = time.perf_counter()  # benchmark process start, the origin of setup_s
_CAL0 = [calibrate() for _ in range(3)]

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# setup_s is the median of this many set-ups: this process plus fresh children
SETUP_REPS = 3
# The calibration chunk's duration at reference speed: one reference second is
# the time a task takes when the chunk takes this long. A fixed unit; on the
# machine the benchmark was written on the chunk took 0.75 to 0.9 ms.
CALIBRATION_REF_S = 0.0007

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; it exits non-zero without a result."""


@dataclass
class Result:
    item: object
    output: object
    error: str | None
    seconds: float      # raw wall time of the call
    speed: float        # reference speed over measured speed around the call

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.speed


def speed(calibrations) -> float:
    return CALIBRATION_REF_S / statistics.median(calibrations)


def import_package() -> float:
    """Import resilient_cluster.cli from this checkout; return the seconds taken."""
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    try:
        cli = importlib.import_module("resilient_cluster.cli")
    except ImportError as e:
        raise BenchError(f"cannot import resilient_cluster from {SRC}: {e}")
    elapsed = time.perf_counter() - started
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"resilient_cluster was imported from {cli.__file__}, not {SRC}")
    return elapsed


def tail_percentile(samples: int) -> float:
    """The highest percentile with ten samples beyond it, or 0 if none has.

    Taken at the size of one pass, which every run completes, so that a run
    that fits more passes reports the same percentile."""
    if samples <= 11:
        return 0.0
    return 100 * (samples - 11) / (samples - 1)


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_items(items, run, tracer=None) -> list[Result]:
    """Call ``run`` on each item in turn, calibrating around each call."""
    results = []
    for item in items:
        if tracer is not None:
            tracer.instance = item.id
        cals = [calibrate() for _ in range(3)]
        started = time.perf_counter()
        try:
            output, error = run(item), None
        except Exception as e:  # a failed instance is counted, not fatal
            output, error = None, f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - started
        cals += [calibrate() for _ in range(3)]
        results.append(Result(item, output, error, seconds, speed(cals)))
    return results


def run_passes(items, run, seconds) -> list[Result]:
    """One pass over ``items``, then more while another whole pass fits."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        started = time.perf_counter()
        results += run_items(items, run)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return results


def evaluate(w, results) -> list[str]:
    """Check every verdict; return one reason per failed instance."""
    cache: dict = {}
    failures = []
    for r in results:
        error = r.error
        if error is None:
            try:
                error = w.check(r.item, r.output, cache)
            except Exception as e:  # a check that cannot run is a failed check
                error = f"check raised {type(e).__name__}: {e}"
        if error is not None:
            failures.append(f"{r.item.label}#{r.item.id}: {error}")
    return failures


def setup(w, seed, tiny, workdir, tracer=None):
    """Corpus, instance files and one untimed warm-up instance; returns the
    pass and the set-up time since process start, raw and in reference
    seconds."""
    import workloads as W

    uninstall = None
    if tracer is not None:
        gen = [b for b in spans.BINDINGS if b[0] == "generator.generate"]
        uninstall = spans.install(tracer, gen)
    try:
        items, warm = W.build_corpus(w, seed, tiny)
    finally:
        if uninstall:
            uninstall()
    if not w.in_process:
        W.cli_write(items + [warm], workdir)
    w.run(warm)
    raw = time.perf_counter() - _T0
    return items, raw, raw * speed(_CAL0 + [calibrate() for _ in range(3)])


def setup_children(args) -> list[tuple[float, float]]:
    """Repeat the whole set-up in fresh processes; their (raw, reference) times."""
    import workloads as W

    times = []
    for _ in range(SETUP_REPS - 1):
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
        code, out, _ = W.spawn(argv)
        if code != 0:
            raise BenchError(f"set-up child exited {code}: {out[-500:]}")
        doc = json.loads(out.strip().splitlines()[-1])
        times.append((doc["raw_s"], doc["setup_s"]))
    return times


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, w, items, timed, checked, failures) -> dict:
    """Seed, versions, machine, the corpus and its timings, and the failures.
    ``timed`` are the untraced results; ``checked`` counts every verdict
    checked, which in a traced run includes the traced pass."""
    import numpy

    latency: dict = {}
    for r in timed:
        latency.setdefault(r.item.label, []).append(r.ref_seconds)
    classes = []
    for label, per_pass, _ in (w.tiny_classes if args.tiny else w.classes):
        mine = [item for item in items if item.label == label]
        classes.append({"label": label, "n": sorted({item.n for item in mine}),
                        "k": mine[0].k, "z": mine[0].z, "per_pass": per_pass,
                        "measured": len(latency.get(label, ())),
                        "latency_s.p50": statistics.median(latency.get(label, [0.0]))})
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load_shape": "closed loop, one caller, one instance at a time",
        "pass_size": len(items),
        "classes": classes,
        "samples": len(timed),
        "tail_percentile": tail_percentile(len(items)),
        "speed_p50": statistics.median(r.speed for r in timed),
        "failed_frac": {"value": len(failures) / checked, "unit": "ratio"},
        "failures": failures[:20],
    }


def untraced(args, w, items, setup_times):
    """The end-to-end metrics, from whole passes with nothing installed."""
    setup_times = setup_times + setup_children(args)
    children_kib = []

    run = w.run
    if not w.in_process:
        def run(item):
            output = w.run(item)
            children_kib.append(output[2])
            return output

    started = time.perf_counter()
    results = run_passes(items, run, args.seconds)
    wall = time.perf_counter() - started
    if w.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = max(children_kib)
    tail_pct = tail_percentile(len(items))

    def timings(seconds, elapsed, setups):
        return {
            "setup_s": statistics.median(setups),
            "verdicts_per_s": len(results) / elapsed,
            "latency_s.p50": statistics.median(seconds),
            "latency_s.tail": percentile(seconds, tail_pct),
        }

    ref = [r.ref_seconds for r in results]
    values = timings(ref, sum(ref), [t[1] for t in setup_times])
    values["peak_rss_mb"] = peak_kib / 1024
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    failures = evaluate(w, results)
    record = run_record(args, w, items, results, len(results), failures)
    record["raw_wall"] = timings([r.seconds for r in results], wall, [t[0] for t in setup_times])
    record["setup_reps_s"] = [t[1] for t in setup_times]
    return results, failures, metrics, record, {}


def traced(args, w, items, workdir, tracer, startup_s):
    """The per-layer metrics: one pass without, then one pass with wrappers."""
    import workloads as W

    started = time.perf_counter()
    plain = run_items(items, w.run)
    wall_plain = time.perf_counter() - started

    child_startup = []
    uninstall = None
    if w.in_process:
        run = w.run
        uninstall = spans.install(
            tracer, spans.BINDINGS + (("core.Instance", W, "Instance", None, None),))
    else:
        def run(item):
            spans_file = workdir / f"spans-{item.id}.json"
            output = W.spawn([sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_file),
                              *W.cli_argv(item)])
            doc = json.loads(spans_file.read_text())
            child_startup.append(doc["startup_s"])
            tracer.extend(doc["spans"], item.id)
            return output
    started = time.perf_counter()
    try:
        with_spans = run_items(items, run, tracer)
    finally:
        if uninstall:
            uninstall()
    wall_traced = time.perf_counter() - started

    reported = 0.0
    if not w.in_process:
        startup_s = statistics.median(child_startup)
        for r in with_spans:
            if r.error is None and r.output[0] == 0:
                reported += json.loads(r.output[1])["timing"]["seconds"]
    metrics = spans.layer_metrics(tracer.spans, startup_s, reported,
                                  (wall_traced - wall_plain) / wall_plain)
    results = plain + with_spans
    failures = evaluate(w, results)
    record = run_record(args, w, items, plain, len(results), failures)
    labels = {item.id: item.label for item in items}
    return results, failures, metrics, record, {"labels": labels, "spans": tracer.spans}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="test-sized corpus")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so that the calibration
    runs on the CPU that does the work; returns that CPU, or None."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    try:
        startup_s = import_package()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = W.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT_DIR))
    try:
        tracer = spans.Tracer() if args.trace else None
        items, raw_s, setup_s = setup(w, args.seed, args.tiny, workdir, tracer)
        if args.setup_only:
            print(json.dumps({"raw_s": raw_s, "setup_s": setup_s}))
            return 0
        if args.trace:
            outcome = traced(args, w, items, workdir, tracer, startup_s)
        else:
            outcome = untraced(args, w, items, [(raw_s, setup_s)])
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results, failures, metrics, record, dump = outcome
    record["pinned_cpu"] = cpu
    out_file = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"record": record, "metrics": metrics, **dump}) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
