"""matfix benchmark: one workload per process, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: solve-mild, solve-slow, analyze-dense, paper-small (see
perfbench/README.md).  Tasks run ``matfix.cli.main`` in-process on instance
files generated before timing.  With ``--trace 0`` the run times tasks for S
seconds and reports the end-to-end metrics.  With ``--trace 1`` it times
untraced tasks for S/2 seconds, then traces tasks for S/2 seconds and
reports the per-layer metrics and the tracing overhead.  ``--smoke`` uses
tiny instances.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1  # at 2 threads, build_bundle at n=16 showed a 1.09 s outlier
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("MATFIX_SEED", None)  # reproduce 2 must use its default seed

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from reference import NOMINAL_S, Kernel  # noqa: E402
from spans import Tracer, duration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 7
WORKLOADS = ("solve-mild", "solve-slow", "analyze-dense", "paper-small")

# Per-layer time metrics and the layer functions whose spans feed them.
LAYER_SPANS = {
    "fileio.parse_s": ("fileio.parse_instance", "fileio.parse_delta"),
    "solver.solve_s": ("solver.solve",),
    "bounds.scalar_s": ("bounds.scalar_bounds",),
    "bounds.intervals_s": ("bounds.coarse_interval", "bounds.refined_interval",
                           "bounds.scalar_interval", "bounds.default_membership_tolerance",
                           "bounds.membership"),
    "operators.build_bundle_s": ("operators.build_bundle",),
    "perturbation.feasibility_s": ("perturbation.feasibility_table",),
    "perturbation.xi_s": ("perturbation.xi1", "perturbation.xi2", "perturbation.xi3"),
    "perturbation.first_order_s": ("perturbation.first_order_delta",),
    "backward.bound_s": ("backward.backward_bound",),
    "conditioning.cond_complex_s": ("conditioning.cond_complex",),
    "conditioning.cond_real_s": ("conditioning.cond_real",),
}
COUNT_UNITS = {
    "solver.iterations": "count",
    "solver.calls": "count",
    "bounds.scalar_iterations": "count",
    "conditioning.fd_solves": "count",
    "operators.dense_bytes": "B-computed",
}


# ------------------------------------------------------------ environment ----


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (checkout has no .git)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def _cache_sizes() -> str:
    sizes = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes.append(f"L{level} {size}")
    return ", ".join(sizes) or "unknown"


def _blas() -> tuple[str, str]:
    """BLAS vendor string, and the thread count the library reports."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{info.get('name')} {info.get('version')}"
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return vendor, str(getattr(handle, symbol)())
    return vendor, "unverified"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def header(args) -> list[str]:
    vendor, threads = _blas()
    return [
        "# matfix benchmark",
        f"# commit: {_commit()}",
        f"# workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
        f"trace: {args.trace}  smoke: {args.smoke}",
        f"# nproc: {os.cpu_count()}  blas: {vendor}  threads: pinned {BLAS_THREADS}, "
        f"library reports {threads}",
        f"# python {platform.python_version()}  numpy {_version('numpy')}  "
        f"scipy {_version('scipy')}",
        f"# cache: {_cache_sizes()}",
    ]


# ------------------------------------------------------------- measuring ----


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """``import matfix.cli`` in fresh interpreters: (wall, reference kernel wall)
    per interpreter."""
    code = ("import time; t = time.perf_counter(); import matfix.cli; "
            "d = time.perf_counter() - t; import reference; k = reference.Kernel(); k(); "
            "print(d, k())")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])}
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        wall, kernel = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(wall), float(kernel)))
    return samples


_WALL_CLOCK = re.compile(r'"wall_clock_s": [^,\n]+')


def digest(code, out) -> str:
    """Output identity, ignoring the structured report's wall clock."""
    text = _WALL_CLOCK.sub('"wall_clock_s": 0', out, count=1) if isinstance(out, str) else repr(out)
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


class Checker:
    """Judges each step's output; an output identical to one already judged
    gets the same verdict without repeating the numpy checks."""

    def __init__(self) -> None:
        self.verdicts: dict[tuple, list] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def task(self, task, outputs) -> None:
        self.attempted += 1
        errors = []
        if isinstance(outputs, BaseException):
            errors = [f"raised {type(outputs).__name__}: {outputs}"]
        else:
            for step, (code, out) in zip(task.steps, outputs):
                key = (task.label, step.label, digest(code, out))
                if key not in self.verdicts:
                    try:
                        self.verdicts[key] = step.check(code, out)
                    except Exception as exc:  # a malformed output is a failed check
                        self.verdicts[key] = [f"check raised {type(exc).__name__}: {exc}"]
                errors += [f"{step.label}: {e}" for e in self.verdicts[key]]
        if errors:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{task.label}: " + "; ".join(errors))


def run_task(task, run_step):
    try:
        return [run_step(step) for step in task.steps]
    except (Exception, SystemExit) as exc:  # SystemExit: argparse rejecting argv
        return exc


def timed_loop(workload, seconds: float, checker: Checker, run_step, kernel) -> list:
    """Run tasks round-robin until their summed wall time reaches ``seconds``.
    Returns (task wall, reference kernel wall right after it) per task."""
    samples, total, i = [], 0.0, 0
    while total < seconds or not samples:
        task = workload.tasks[i % len(workload.tasks)]
        t0 = time.perf_counter()
        outputs = run_task(task, run_step)
        dt = time.perf_counter() - t0
        samples.append((dt, kernel()))
        checker.task(task, outputs)
        total += dt
        i += 1
    return samples


def _spanned(tracer, name: str, function):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            result = function(*args, **kwargs)
            if hasattr(result, "iterations"):  # SolveReport, ScalarBounds
                rec["iterations"] = result.iterations
        return result

    return wrapper


@contextlib.contextmanager
def spans_around_layers(tracer):
    """Wrap each function in LAYER_SPANS with a span, in every matfix module
    that holds a reference to it (``cli`` imports them by name), and restore
    the originals afterwards."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "matfix" or name.startswith("matfix.")]
    patched = []
    for name in (n for names in LAYER_SPANS.values() for n in names):
        layer, function = name.split(".")
        original = getattr(sys.modules[f"matfix.{layer}"], function)
        wrapper = _spanned(tracer, name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


def traced_loop(workload, seconds: float, checker: Checker, run_step, tracer, kernel) -> list:
    """Trace tasks: a parent span per task, a child per step (``cli.main`` call
    or library call), and below those a span per call into a layer.  Returns
    (task span, reference kernel wall right after the task) per task."""
    task_spans, total, i = [], 0.0, 0
    with spans_around_layers(tracer):
        while total < seconds or not task_spans:
            task = workload.tasks[i % len(workload.tasks)]
            tracer.task = i
            outputs = []
            with tracer.span("task", label=task.label) as task_rec:
                try:
                    for step in task.steps:
                        command = step.argv[0] if step.argv else None
                        with tracer.span(step.span, command=command):
                            outputs.append(run_step(step))
                except (Exception, SystemExit) as exc:
                    outputs = exc
            task_spans.append((task_rec, kernel()))
            checker.task(task, outputs)
            total += duration(task_rec)
            i += 1
    return task_spans


# --------------------------------------------------------------- metrics ----


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that
    percentile; with 10 samples or fewer, the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer, task_spans, workload) -> dict[str, float]:
    """Per-task sums, as medians over traced tasks.  Layer times count the
    calls made directly by ``solve``/``analyze`` commands; ``reproduce`` is
    timed whole as ``cli.reproduce_s``, and the solves inside a library call
    count as ``conditioning.fd_solves``."""
    per_task: dict[str, list[float]] = {}
    dense = {t.label: t.dense_bytes for t in workload.tasks}
    for task_rec, _ in task_spans:
        spans = [s for s in tracer.spans if s["task"] == task_rec["task"]]
        steps = [s for s in spans if s["parent"] == task_rec["id"]]
        mains = {s["id"]: s for s in steps if s["command"] in ("solve", "analyze")}
        library = {s["id"] for s in steps if s["command"] is None}
        calls = [s for s in spans if s["parent"] in mains]
        values = {metric: sum(duration(s) for s in calls if s["name"] in names)
                  for metric, names in LAYER_SPANS.items()}
        values["cli.self_s"] = (sum(duration(s) for s in mains.values())
                                - sum(duration(s) for s in calls))
        values["cli.reproduce_s"] = sum(duration(s) for s in steps if s["command"] == "reproduce")
        values["conditioning.fd_oracle_s"] = sum(
            duration(s) for s in steps if s["name"] == "conditioning.cond_fd_oracle")
        solves = [s for s in calls if s["name"] == "solver.solve"]
        values["solver.calls"] = len(solves)
        values["solver.iterations"] = sum(s.get("iterations", 0) for s in solves)
        values["solver.s_per_iter"] = (values["solver.solve_s"] / values["solver.iterations"]
                                       if values["solver.iterations"] else 0.0)
        values["bounds.scalar_iterations"] = sum(
            s.get("iterations", 0) for s in calls if s["name"] == "bounds.scalar_bounds")
        values["conditioning.fd_solves"] = sum(
            1 for s in spans if s["parent"] in library and s["name"] == "solver.solve")
        values["operators.dense_bytes"] = dense[task_rec["label"]]
        for metric, value in values.items():
            per_task.setdefault(metric, []).append(value)
    return {metric: statistics.median(vals) for metric, vals in per_task.items()}


def unit_of(metric: str) -> str:
    return COUNT_UNITS.get(metric, "s")


def reference_seconds(samples) -> list[float]:
    """(wall, kernel wall) pairs as reference seconds; see reference.py."""
    return [wall / kernel * NOMINAL_S for wall, kernel in samples]


# ------------------------------------------------------------------ main ----


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny instances, for testing")
    return p.parse_args(argv)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args) -> dict:
    """Run one workload; prints the report and returns the result object."""
    import workloads

    run_step = workloads.run_step
    spec = benchmark_spec()
    lines = header(args)
    setup_samples = measure_setup(2 if args.smoke else SETUP_REPEATS)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workload = workloads.build(args.workload, Path(tmp), args.seed, args.smoke)
        checker = Checker()
        guards_ok = True
        for label, value, low, high in workload.guards:
            ok = low <= value <= high
            guards_ok &= ok
            lines.append(f"guard {label} = {value:.4f} in [{low}, {high}]: {'ok' if ok else 'FAILED'}")
        for task in workload.tasks:  # warm-up, and the full check of every pool item
            checker.task(task, run_task(task, run_step))
        # Before the reference kernel first runs, so that its buffers do not count.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernel = Kernel()
        timed = args.seconds / 2 if args.trace else args.seconds
        samples = timed_loop(workload, timed, checker, run_step, kernel)
        times = reference_seconds(samples)
        p50 = statistics.median(times)
        if args.trace:
            tracer = Tracer()
            task_spans = traced_loop(workload, args.seconds / 2, checker, run_step, tracer, kernel)
            layers = layer_metrics(tracer, task_spans, workload)
            traced = reference_seconds((duration(rec), k) for rec, k in task_spans)
            layers["trace.overhead_s"] = statistics.median(traced) - p50
            spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file)
    correct = checker.failed == 0 and guards_ok
    lines.append(f"tasks: {checker.attempted} attempted, {checker.failed} failed")
    lines += [f"failure: {m}" for m in checker.messages]
    lines.append(f"raw wall: task p50 {statistics.median(w for w, _ in samples)!r} s, "
                 f"reference kernel p50 {statistics.median(k for _, k in samples)!r} s, "
                 f"import p50 {statistics.median(w for w, _ in setup_samples)!r} s")
    dense = max(t.dense_bytes for t in workload.tasks)
    if args.trace:
        lines.append(f"traced tasks: {len(task_spans)}; spans written to {spans_file}")
        for metric in sorted(layers):
            lines.append(f"{metric} = {layers[metric]!r} {unit_of(metric)}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        tail_s, pct = tail(times)
        end_to_end = {
            "task_p50_s": p50,
            "task_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(reference_seconds(setup_samples)),
            "tasks_per_s": len(times) / sum(times),
        }
        for m in spec["end_to_end"]:
            lines.append(f"{m['name']} = {end_to_end[m['name']]!r} {m['unit']}")
        lines.append(f"task_tail_s is p{pct:.1f} of {len(times)} timed tasks")
        lines.append(f"failed_ratio = {checker.failed / checker.attempted!r} ratio "
                     "(failed/attempted tasks; 0 on a correct program, so not tracked)")
        lines.append(f"operators.dense_bytes = {dense} B (computed, next to peak_rss_mb)")
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print("\n".join(lines))
    return {"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matfix" / "__init__.py").is_file():
        print(f"error: {SRC / 'matfix'} not found; run from a matfix checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import matfix

    if Path(matfix.__file__).resolve().parent != (SRC / "matfix").resolve():
        print(f"error: imported matfix from {matfix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
