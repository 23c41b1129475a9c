"""rmtorus benchmark: seeded CLI-shaped workloads, timed from outside.

One workload, as the command in BENCHMARK.json runs it (from the repository root)::

    python3 bench/run.py --workload present --seed 1 --seconds 20 --trace 0

Every workload, each end-to-end and per-layer metric, every check and the
determinism check, in one command::

    python3 bench/run.py --all --seed 1

A run is a closed loop with one client in one single-threaded process: the
workload's job list is cycled, each job starting only after the previous one
returned, until ``--seconds`` have elapsed and every job ran at least once.
A job's latency is the median of its runs; ``wall_s``, one pass, is the sum
of those medians.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` one further pass runs under
:mod:`tracer` and the last line carries the per-layer metrics.  Checks run
after the timed loop on each job's first output; every later run of a job
must reproduce that output byte for byte.
The metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PRECISION_ENV = "RM_TORUS_PRECISION"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_RUNS = 5

SETUP_SNIPPET = """\
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rmtorus, rmtorus.cli
for g in json.loads(sys.argv[2]):
    rmtorus.validate(tuple(g))
print(time.perf_counter() - start)
"""

#: Per-layer metrics the traced pass does not compare between two runs.
TIMING_SUFFIXES = (".self_s", "overhead_frac")


def log(line: str) -> None:
    print(f"# {line}", flush=True)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_package() -> None:
    """Import rmtorus from this checkout's src/, never from an installed copy."""
    if not (SRC / "rmtorus" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'rmtorus'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rmtorus
    import rmtorus.cli

    if Path(rmtorus.__file__).resolve().parent != SRC / "rmtorus":
        sys.exit(f"error: imported rmtorus from {rmtorus.__file__}, not {SRC}")


def environment(precision_before: str | None) -> dict:
    import mpmath
    import numpy

    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        commit = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit, "dirty": dirty, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        PRECISION_ENV: precision_before,
    }


def measure_setup(matrices) -> list[float]:
    """Seconds from a fresh interpreter to imported package and validated inputs."""
    env = {k: v for k, v in os.environ.items() if k != PRECISION_ENV}
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), json.dumps(matrices)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def execute(job, out_path: Path):
    """Run one job.  Returns (seconds, output, error); only the call is timed.

    ``output`` is the written JSON bytes for a CLI job and the returned object
    for a library job.
    """
    from rmtorus import cli, errors

    if job.argv is not None:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = cli.main([*job.argv, "--out", str(out_path)])
            except SystemExit as exc:
                code = exc.code
            elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, None, f"exit {code}: {stderr.getvalue().strip()}"
        return elapsed, out_path.read_bytes(), None
    start = time.perf_counter()
    try:
        result = job.call()
    except errors.RMTorusError as exc:
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, None


class Run:
    """Latencies, first outputs and failures of one workload run."""

    def __init__(self, workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        n = len(workload.jobs)
        self.latencies: list[list[float]] = [[] for _ in range(n)]
        self.executions = [0] * n
        self.outputs: list = [None] * n
        self.digests: list[str | None] = [None] * n
        self.failed_exec: list[tuple[int, str]] = []

    def run_job(self, i: int, counts: Counter | None = None) -> float:
        """Run job i once and compare its output with the job's first output."""
        job = self.workload.jobs[i]
        first = self.digests[i] is None
        out_path = self.workdir / (f"{i}.json" if first else "repeat.json")
        elapsed, output, error = execute(job, out_path)
        self.executions[i] += 1
        if error is not None:
            self.failed_exec.append((i, error))
            return elapsed
        data = output if job.argv is not None else workloads.serialize(job, output)
        if counts is not None and job.argv is not None:
            counts["cli.out_bytes"] += len(data)
        digest = hashlib.sha256(data).hexdigest()
        if first:
            self.digests[i] = digest
            self.outputs[i] = output if job.argv is None else out_path
        elif digest != self.digests[i]:
            self.failed_exec.append(
                (i, f"output of run {self.executions[i]} differs from the first"))
        return elapsed

    def timed(self, seconds: float) -> None:
        """Cycle through the jobs until ``seconds`` have passed, each at least once."""
        n = len(self.workload.jobs)
        start = time.perf_counter()
        k = 0
        while k < n or time.perf_counter() - start < seconds:
            self.latencies[k % n].append(self.run_job(k % n))
            k += 1

    def traced_pass(self, counts: Counter) -> float:
        """One pass over every job; returns its summed latency."""
        return sum(self.run_job(i, counts) for i in range(len(self.workload.jobs)))


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, pct, beyond).

    With fewer than 11 samples no percentile qualifies and the maximum is used.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def observers():
    """Work counts taken from the results of traced calls."""
    def minors(result, counts):
        counts["geometry.minors"] += len(result)
        counts["geometry.minors_nonzero"] += sum(1 for m in result if m.monomials)
        counts["geometry.monomials"] += sum(len(m.monomials) for m in result)

    def count(name, of):
        def observe(result, counts):
            counts[name] += of(result)
        return observe

    return {
        "groebner.normal_form": count("groebner.normal_form.nonzero",
                                      lambda r: int(not r.is_zero())),
        "groebner.state_for": count("groebner.system_size", lambda r: len(r.system)),
        "geometry.minor_equations": minors,
        "modsym.integrate_geodesic": count("modsym.integrate_geodesic.evaluations",
                                           lambda r: r.evaluations),
    }


def run_workload(args) -> int:
    precision_before = os.environ.pop(PRECISION_ENV, None)
    import_package()
    spec = load_spec()
    log("env " + json.dumps(environment(precision_before), sort_keys=True))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup = measure_setup(workload.matrices)
    log(f"setup_s samples {[round(s, 4) for s in setup]}")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        warm = workload.jobs[0]
        elapsed, _, error = execute(warm, workdir / "warmup.json")
        log(f"warm-up {warm.label}: {elapsed:.4f} s{' ' + error if error else ''}")

        run = Run(workload, workdir)
        run.timed(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        medians = [statistics.median(lat) for lat in run.latencies]
        wall = sum(medians)

        traced_wall = None
        tracer = Tracer(observers())
        if args.trace:
            with tracer.installed():
                traced_wall = run.traced_pass(tracer.counts)

        outputs = [o.read_bytes() if isinstance(o, Path) else o for o in run.outputs]
        check_failures, margins = workload.check(workload.jobs, outputs)
        probes = []
        if args.trace:
            for label, call in workloads.known_failure_probes(args.workload, args.seed):
                probes.append((label, call()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for i, _ in run.failed_exec if i not in check_failures)
    failed += sum(run.executions[i] for i in check_failures)
    attempted = sum(run.executions)
    for i, reason in run.failed_exec:
        log(f"FAIL {workload.jobs[i].label}: {reason}")
    for i, reason in sorted(check_failures.items()):
        log(f"FAIL check {workload.jobs[i].label}: {reason}")
    digest = hashlib.sha256("".join(d or "-" for d in run.digests).encode()).hexdigest()
    log(f"digest {digest}")
    log(f"checks: {len(workload.jobs) - len(check_failures)}/{len(workload.jobs)} jobs pass; "
        f"{min(run.executions)}-{max(run.executions)} runs per job; "
        f"{attempted} attempted, {failed} failed, fail_frac {failed / attempted:.4f}")

    if args.trace:
        for label, reason in probes:
            log(f"known failure {'reproduced' if reason else 'NOT reproduced'}: {label}"
                + (f": {reason}" if reason else ""))
        counts = tracer.counts
        values = tracer.layer_metrics()
        calls = values["groebner.normal_form.calls"]
        values.update({
            "groebner.normal_form.nonzero": counts["groebner.normal_form.nonzero"],
            "groebner.normal_form.useful_frac":
                counts["groebner.normal_form.nonzero"] / calls if calls else 0.0,
            "groebner.system_size": counts["groebner.system_size"],
            "geometry.minors": counts["geometry.minors"],
            "geometry.minors_nonzero": counts["geometry.minors_nonzero"],
            "geometry.monomials": counts["geometry.monomials"],
            "modsym.integrate_geodesic.evaluations":
                counts["modsym.integrate_geodesic.evaluations"],
            "cli.out_bytes": counts["cli.out_bytes"],
            "presentation.annihilation_resid_max":
                margins.get("presentation.annihilation_resid_max", 0.0),
            "modsym.quadrature_error_max": margins.get("modsym.quadrature_error_max", 0.0),
            "known_failures.reproduced": sum(1 for _, reason in probes if reason),
            "trace.overhead_frac": traced_wall / wall - 1.0,
        })
        metrics = spec["per_layer"]
    else:
        # Job latency percentiles are logged, not bounded: on the workloads
        # with 7-10 jobs each is one job's latency over two or three runs, and
        # its run-to-run spread exceeded the largest bound (bench/README.md).
        value, pct, beyond = tail(medians)
        log(f"{args.workload}.job_p50_s = {statistics.median(medians):.6g} s "
            f"(median of {len(medians)} per-job medians; logged only)")
        log(f"{args.workload}.job_tail_s = {value:.6g} s (p{pct:.2f} of {len(medians)} "
            f"per-job medians, {beyond} beyond; logged only)")
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = spec["end_to_end"]

    if set(values) != {m["name"] for m in metrics}:
        sys.exit(f"error: metrics {sorted(set(values) ^ {m['name'] for m in metrics})} "
                 "disagree with BENCHMARK.json")
    for m in metrics:
        log(f"{args.workload}.{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload: an untraced run, then two traced runs at the same seed."""
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        log(f"== {name}: {w['why']}")
        runs = []
        for trace in (0, 1, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                log(f"{name} trace={trace} exited {done.returncode}: {done.stderr.strip()}")
                return 1
            runs.append((lines, json.loads(lines[-1])))
        for lines, _ in runs[:2]:
            for line in lines[:-1]:
                if not line.startswith("# env"):
                    print(line)
        digests = {next(x for x in lines if x.startswith("# digest")) for lines, _ in runs}
        a, b = (r["metrics"] for _, r in runs[1:])
        unequal = [k for k in a if not k.endswith(TIMING_SUFFIXES) and a[k] != b[k]]
        correct = all(r["correct"] for _, r in runs)
        log(f"{name} check: outputs correct in all three runs: {correct}")
        log(f"{name} check: job JSON byte-identical across runs: {len(digests) == 1}")
        log(f"{name} check: work counts identical across two traced runs: "
            f"{not unequal}{' ' + str(unequal) if unequal else ''}")
        ok &= correct and len(digests) == 1 and not unequal
    log(f"all checks {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and check")
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required without --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
