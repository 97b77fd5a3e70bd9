"""End-to-end benchmark of the ``schurhorn`` CLI, with an optional traced run.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload synth-verify --seed 1 --seconds 40 --trace 0

One process with one BLAS thread (plus a short-lived interpreter per set-up
that times the cold import) builds the seeded inputs of a workload and
then calls ``schurhorn.cli.main(argv)`` in-process, stdout captured, for every
job of its fixed list.  It repeats the list in passes until ``--seconds`` is
used up (at least one pass), checks every artifact of every pass
independently, outside the timed region, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Every timing is host-normalised:
a fixed calibration loop that does not touch the package (``calibrate``) is
timed between consecutive jobs, and each measured time is multiplied by
``CAL_REF_S`` over the calibration time around it (the faster of the loops
just before and just after).  A time is therefore given in seconds of a host
on which the loop takes ``CAL_REF_S``; on a shared machine whose speed swings
by 1.7x for minutes at a time this keeps runs of the same code comparable,
while a change to the package still moves the figures in full.  A job's
latency is the median of its normalised times over the passes;
``job_p50_ms`` and ``job_p90_ms`` are taken over the jobs and ``wall_s`` is
their sum, the time to finish the job list.  ``setup_s`` is the median of
nine normalised set-ups, each a cold import of the package in a fresh
interpreter, writing the inputs and one untimed warm-up job.  The raw
(unnormalised) figures and the calibration loop's median are printed on the
report lines.  ``ok_frac`` is the share of jobs that passed and
``peak_rss_mb`` the process's peak resident memory.
``--trace 1`` runs untraced passes for half the budget and then one traced
pass, and reports the per-layer metrics of ``tracer.py`` plus
``trace.overhead_frac``.  The spans are written to
``perfbench/_out/`` when the run ends.

The package is imported from ``src/`` of the same checkout and nowhere else:
without it the run exits with code 2 and prints no result.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Before numpy is imported anywhere: one BLAS thread, one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("synth-verify", "majorize-plan", "obstruction-build")
# A job over its limit is a counted failure, not a hung run.
JOB_LIMIT_S = 60.0
# No job starts later than this after process start, so a run ends within 180 s.
START_CAP_S = 140.0
SETUP_REPEATS = 9
# Seconds the calibration loop takes on the reference host, a round figure:
# on one vCPU of a shared 2-vCPU cloud VM with CPython 3.11 the loop takes
# 0.75-1.3 ms as the host's speed varies.
CAL_REF_S = 1e-3


class JobTimeout(BaseException):
    """Raised by the job's alarm; a BaseException so no ``except Exception`` in
    the package can swallow it."""


def import_cli():
    """The ``schurhorn.cli`` module of this checkout's ``src/``, or ImportError.

    Jobs call ``cli.main`` through the module, so the traced run sees the wrapper."""
    sys.path.insert(0, str(SRC))
    import schurhorn.cli

    where = Path(schurhorn.cli.__file__).resolve().parent
    if where != (SRC / "schurhorn").resolve():
        raise ImportError(f"schurhorn was imported from {where}, not from {SRC}")
    return schurhorn.cli


def calibrate() -> float:
    """Seconds taken by a fixed loop of interpreter and ``json`` work, the
    kind of work the jobs do, that shares no code with the package."""
    t0 = time.perf_counter()
    acc = 0.0
    xs = [float(i) for i in range(200)]
    for k in range(12):
        for i in range(1, 200):
            acc += xs[i] * xs[i - 1] / (i + k)
        json.loads(json.dumps({"v": xs}))
    return time.perf_counter() - t0


def cold_import() -> None:
    """Import ``schurhorn.cli`` in a fresh interpreter, as a user's process does."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import schurhorn.cli"
    subprocess.run([sys.executable, "-c", code], check=True)


@contextlib.contextmanager
def _time_limit(seconds: float):
    def expire(signum, frame):
        raise JobTimeout(f"time limit of {seconds:.1f} s reached")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_job(cli, job, limit: float):
    """Run a job's CLI chain: ``(latency_s, stdout lines, failure reason or None)``."""
    out = io.StringIO()
    reason = None
    argv = job.calls[0][0]
    t0 = time.perf_counter()
    try:
        with _time_limit(limit), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            for argv, expected in job.calls:
                code = cli.main(argv)
                if code != expected:
                    reason = f"{argv[0]} exited {code}, expected {expected}"
                    break
    except JobTimeout as exc:
        reason = f"{argv[0]}: {exc}"
    except (Exception, SystemExit) as exc:
        reason = f"{argv[0]} raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out.getvalue().splitlines(), reason


def check_job(job, lines, reason):
    """Independent check of a finished job (untimed); removes its outputs."""
    if reason is None:
        try:
            reason = job.check(lines)
        except Exception as exc:  # a missing or malformed artifact is a failure
            reason = f"artifact unreadable: {type(exc).__name__}: {exc}"
    for path in job.outputs:
        Path(path).unlink(missing_ok=True)
    return reason


def run_pass(cli, jobs, tracer=None):
    """One timed pass over the job list, with the calibration loop timed
    before the first job and after each one.

    Returns ``(wall_s, latencies_s, calibrations_s, failure reasons)``: a
    job's calibration is the faster of the loops around it, and a job
    skipped at the run's start cap has latency and calibration ``None``.
    ``wall_s`` is the sum of the job latencies."""
    finished = []
    latencies = []
    calibrations = []
    before = calibrate()
    for index, job in enumerate(jobs):
        left = _T0 + START_CAP_S - time.perf_counter()
        if left <= 0:
            latencies.append(None)
            calibrations.append(None)
            finished.append((job, [], "run time cap reached before the job started"))
            continue
        if tracer is not None:
            tracer.job = index
        latency, lines, reason = run_job(cli, job, min(JOB_LIMIT_S, left))
        after = calibrate()
        latencies.append(latency)
        calibrations.append(min(before, after))
        before = after
        finished.append((job, lines, reason))
    wall = sum(latency for latency in latencies if latency is not None)
    failures = [r for r in (check_job(*f) for f in finished) if r]
    return wall, latencies, calibrations, failures


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure(cli, workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Set up, run and check one workload; returns ``(result, report lines)``."""
    import tracer as tracing
    import workloads

    work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setups, raw_setups = [], []
        before = calibrate()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cold_import()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            jobs = workloads.build(workload, seed, work, tiny)
            left = max(0.01, _T0 + START_CAP_S - time.perf_counter())
            check_job(jobs[0], *run_job(cli, jobs[0], min(JOB_LIMIT_S, left))[1:])
            raw_setups.append(time.perf_counter() - t0)
            after = calibrate()
            setups.append(raw_setups[-1] * CAL_REF_S / min(before, after))
            before = after

        start = time.perf_counter()
        budget = seconds / 2 if trace else seconds
        walls, pass_times, cals, failures = [], [], [], []
        runs = [[] for _ in jobs]
        raw_runs = [[] for _ in jobs]
        while True:
            t0 = time.perf_counter()
            wall, latencies, calibrations, fail = run_pass(cli, jobs)
            pass_times.append(time.perf_counter() - t0)
            walls.append(wall)
            cals += [cal for cal in calibrations if cal is not None]
            failures += fail
            for job_runs, job_raw, latency, cal in zip(runs, raw_runs, latencies, calibrations):
                if latency is not None:
                    job_runs.append(latency * CAL_REF_S / cal)
                    job_raw.append(latency)
            if time.perf_counter() + statistics.median(pass_times) > start + budget:
                break
        attempted = len(jobs) * len(walls)
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_wall, _, _, fail = run_pass(cli, jobs, tracer)
            finally:
                tracer.uninstall()
            failures += fail
            attempted += len(jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Each job's latency is the median of its normalised passes: a shared
    # machine's speed can change by 1.7x for minutes, so even a job's fastest
    # pass moves with it, while the normalised times stay put.
    ms = sorted(1e3 * statistics.median(job_runs) for job_runs in runs if job_runs)
    raw_ms = sorted(1e3 * statistics.median(job_raw) for job_raw in raw_runs if job_raw)
    env = environment()
    report = [
        "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"workload={workload} seed={seed} jobs={len(jobs)} passes={len(walls)} "
        f"latency_samples={len(ms)} attempted={attempted} failed={len(failures)}",
        f"raw, unnormalised: setup_s={statistics.median(raw_setups):.4f} "
        f"wall_s={sum(raw_ms) / 1e3:.4f} job_p50_ms={statistics.median(raw_ms):.4f} "
        f"calibration_ms={1e3 * statistics.median(cals):.4f} "
        f"(reference {1e3 * CAL_REF_S:g})",
    ]
    report += [f"failure: {reason}" for reason in failures[:10]]
    correct = not failures
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(ms) / 1e3, "s"),
            "job_p50_ms": (statistics.median(ms), "ms"),
            "job_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
            "ok_frac": ((attempted - len(failures)) / attempted, "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layer = tracer.layer_metrics()
        layer["trace.overhead_frac"] = traced_wall / min(walls) - 1.0
        self_total = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
        if abs(self_total - layer["trace.job_s"]) > 1e-6 * max(layer["trace.job_s"], 1e-3):
            correct = False
            report.append(f"failure: layer self times sum to {self_total} s, "
                          f"traced job time is {layer['trace.job_s']} s")
        top = max(tracing.LAYERS, key=lambda name: layer[f"{name}.self_s"])
        report.append(
            f"traced job time {layer['trace.job_s']:.3f} s; top layer by self time: {top} "
            f"({100 * layer[f'{top}.self_s'] / max(layer['trace.job_s'], 1e-12):.1f}%)"
        )
        report += [
            f"  {name:12s} self {layer[f'{name}.self_s']:.4f} s  errors {layer[f'{name}.errors']}"
            for name in tracing.LAYERS
        ]
        metrics = {name: (value, tracing.unit(name)) for name, value in layer.items()}
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload}-seed{seed}.jsonl.gz"
        tracer.write(trace_path, {"workload": workload, "seed": seed, "env": env,
                                  "metrics": layer})
        report.append(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(HERE.parent)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small job per group, for smoke tests")
    args = parser.parse_args(argv)
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"error: cannot import schurhorn from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, report = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace),
                             args.tiny)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
