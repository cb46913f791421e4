"""nvortex benchmark: one client, closed loop, seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload field --seed 1 --seconds 25 --trace 0

``--workload`` is ``field``, ``metric`` or ``acceptance`` (see
``workloads.py``).  A run sets up once, then runs the workload's job sequence
in passes, each job starting when the previous one has finished, until
another pass would not fit in ``--seconds`` (at least one pass).  Every job's
output is checked.

``--trace 0`` reports the end-to-end metrics, medians over passes but for
``wall_ref``.  A fixed reference kernel (``reference.py``) runs before the
first job and after every job.  A pass's ``wall_ref`` is the sum over its
jobs of the job's time over the mean time of the kernel's runs just before
and just after the job; the run reports the mean over passes.
``--trace 1`` runs one traced pass and reports the per-layer metrics; the
spans go to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every job and every metric by name with its unit.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
#: Fresh interpreters that repeat the set-up; ``setup_s`` is the median of
#: their times and this process's own.
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120

# One thread does all the work: the moduli thread pool stays at one worker
# and OpenBLAS (used by SuperLU) runs single-threaded.  A second BLAS thread
# made runs slower and let load on the other core into the timings.  Both
# settings are inherited by the set-up children and recorded in the result.
NV_THREADS = os.environ.pop("NV_THREADS", None)
OPENBLAS_NUM_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, SRC)
try:
    import nvortex  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import nvortex from {SRC}: {exc}")
if not os.path.abspath(nvortex.__file__).startswith(SRC + os.sep):
    sys.exit(f"nvortex was imported from {nvortex.__file__}, not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import nvortex.cli  # noqa: E402
from nvortex.geometry import ConformalDisk, VortexConfiguration, build_grid  # noqa: E402
from nvortex.shooting import shoot  # noqa: E402
from nvortex.singular import neumann_green  # noqa: E402
from nvortex.solver2d import solve_taubes_2d  # noqa: E402

from jobs import JobResult, JobRunner  # noqa: E402
from reference import Reference  # noqa: E402
from spans import Tracer, calibrate_span_cost, layer_metrics  # noqa: E402
from workloads import CENTRED, RADIUS, WORKLOADS, make_jobs  # noqa: E402

#: Per-command sums reported beside ``wall_s``; each shows only on the
#: workloads that run the command.
COMMAND_METRICS = {
    "solve2d_s": ("solve-2d",),
    "green_s": ("green", "boundary-green"),
    "metric_s": ("metric",),
    "verify_s": ("verify",),
}
#: The end-to-end metrics in BENCHMARK.json: present on every workload.
GATED = ("wall_ref", "setup_s", "peak_rss_mb")


@dataclass
class Pass:
    results: list[JobResult]
    #: Time of each job, output check included.
    job_walls: list[float]
    #: Times of the reference kernel's runs just before the first job and
    #: after each job (untraced passes); empty in a traced pass.
    reference: list[float]

    @property
    def wall(self) -> float:
        return sum(self.job_walls)

    @property
    def elapsed(self) -> float:
        """Time of the pass with the reference runs after its jobs."""
        return self.wall + sum(self.reference[1:])

    @property
    def wall_ref(self) -> float:
        refs = self.reference
        return sum(2.0 * t / (refs[k] + refs[k + 1]) for k, t in enumerate(self.job_walls))

    def command_seconds(self, commands) -> float | None:
        times = [r.seconds for r in self.results if r.job.command in commands]
        return sum(times) if times else None


def warm_up(workdir: str) -> None:
    """Tiny solve, shoot and Green solve: pays scipy's lazy set-up before timing."""
    disk = ConformalDisk.flat(RADIUS)
    config = os.path.join(workdir, "warmup.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"radius": RADIUS, "interior": CENTRED}, fh)
    argv = ["solve-2d", "--config", config, "--nr", "24", "--ntheta", "24",
            "--out", os.path.join(workdir, "warmup")]
    with contextlib.redirect_stdout(io.StringIO()):
        code = nvortex.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"warm-up solve exited with {code}")
    solve_taubes_2d(disk, VortexConfiguration.centered(1), build_grid(disk, 16, 16), linear_solver="cg")
    shoot(disk, n=1, steps=2_000)
    neumann_green(disk, build_grid(disk, 16, 16), (3, 5))


def set_up(workload: str, seed: int, workdir: str) -> JobRunner:
    runner = JobRunner(make_jobs(workload, seed), workdir)
    warm_up(workdir)
    return runner


def run_pass(
    runner: JobRunner,
    index: int,
    tracer: Tracer | None = None,
    reference: Reference | None = None,
) -> Pass:
    """Run every job once; ``reference`` runs after each job.

    The kernel's run before the first job is the last one made: the previous
    pass's, or the one ``Reference()`` makes.
    """
    base = os.path.join(runner.workdir, f"pass{index}")
    results = []
    job_walls = []
    references = [reference.last] if reference else []
    root = tracer.open("bench.pass", "bench") if tracer else None
    for k in range(len(runner.jobs)):
        if tracer:
            tracer.job = k
            span = tracer.open("bench.job", "bench")
        start = time.perf_counter()
        results.append(runner.run(k, os.path.join(base, f"job{k}")))
        job_walls.append(time.perf_counter() - start)
        if tracer:
            tracer.close(span)
        if reference:
            references.append(reference())
    if tracer:
        tracer.close(root)
    shutil.rmtree(base, ignore_errors=True)
    return Pass(results, job_walls, references)


def setup_samples(args, own: float) -> list[float]:
    """This process's set-up time plus that of fresh interpreters doing the same."""
    samples = [own]
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-400:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "nvortex", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _openblas_threads() -> dict:
    """Thread count in effect in the OpenBLAS copies bundled with numpy and scipy."""
    found = {}
    for package in (np, scipy):
        libs = os.path.join(os.path.dirname(package.__file__), "..", f"{package.__name__}.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[package.__name__] = getter()
                    break
    return found


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "given_OPENBLAS_NUM_THREADS": OPENBLAS_NUM_THREADS,
        "given_NV_THREADS": NV_THREADS,
    }


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    """End-to-end metrics as ``{name: (value, unit)}``."""
    out = {
        # A mean: the passes' ratios scatter by about 10% either way, and
        # their mean over a run repeated better than their median did.
        "wall_ref": (statistics.fmean(p.wall_ref for p in passes), "ratio"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "reference_s": (statistics.median(
            [passes[0].reference[0]] + [t for p in passes for t in p.reference[1:]]), "s"),
        "setup_s": (statistics.median(setup), "s"),
    }
    for name, commands in COMMAND_METRICS.items():
        values = [p.command_seconds(commands) for p in passes]
        if values[0] is not None:
            out[name] = (statistics.median(values), "s")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    results = [r for p in passes for r in p.results]
    out["failed_frac"] = (sum(r.failed for r in results) / len(results), "ratio")
    errors = [r.quant_err for r in results if r.quant_err is not None]
    if errors:
        out["quant_err"] = (max(errors), "ratio")
    return out


def write_trace(tracer: Tracer, workload: str, seed: int) -> str:
    origin = tracer.spans[0].start if tracer.spans else 0.0
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            [
                {"name": s.name, "layer": s.layer, "job": s.job, "parent": s.parent,
                 "start": s.start - origin, "end": s.end - origin, **s.info}
                for s in tracer.spans
            ],
            fh,
        )
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        runner = set_up(args.workload, args.seed, workdir)
        own_setup = time.perf_counter() - T0
        if args.setup_only:
            print(repr(own_setup))
            return 0
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                passes = [run_pass(runner, 0, tracer)]
            finally:
                tracer.uninstall()
        else:
            reference = Reference()
            passes = [run_pass(runner, 0, reference=reference)]
            while (sum(p.elapsed for p in passes) + statistics.median(p.elapsed for p in passes)
                   <= args.seconds):
                passes.append(run_pass(runner, len(passes), reference=reference))
            setup = setup_samples(args, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r.failed]
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(runner.jobs)} jobs x {len(passes)} passes")
    for index, p in enumerate(passes):
        for k, r in enumerate(p.results):
            status = "FAILED" if r.failed else "ok"
            print(f"  pass {index} job {k} {r.job.label}: {r.seconds:.3f} s {status}", end="")
            if p.reference:
                print(f", then reference {p.reference[k + 1]:.4f} s", end="")
            print()
        print(f"  pass {index} wall: {p.wall:.3f} s", end="")
        if p.reference:
            print(f", reference {statistics.fmean(p.reference):.4f} s, ratio {p.wall_ref:.3f}", end="")
        print()
    for r in failed:
        print(r.error, file=sys.stderr)

    if args.trace:
        table = layer_metrics(tracer.spans, passes[0].wall, calibrate_span_cost())
        print(f"spans written to {write_trace(tracer, args.workload, args.seed)}")
    else:
        table = end_to_end(passes, setup)
    for name, (value, unit) in table.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    names = list(table) if args.trace else GATED
    metrics = {name: {"value": table[name][0], "unit": table[name][1]} for name in names}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
