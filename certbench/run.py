"""Certification benchmark for locco.

    python3 certbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One process and one thread drive the load as a closed
loop with a single client: a job starts when the previous one has ended.
The run repeats whole passes over the workload's job list until about
``--seconds`` have gone, checks every report against its oracle outside the
timed span, and prints one JSON object as the last line of standard output.
With ``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run, whose spans also go to
``certbench/_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import os

# Before numpy loads: its thread pools get one thread, and the work budget
# stays at locco's default.  Child processes inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LOCCO_BUDGET", None)

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# locco's exit codes: 0 every check passed, 1 a check failed (with a full
# report), 2 bad input, 3 enumeration budget exceeded
EXIT_PASS, EXIT_FAIL = 0, 1


def _fail(message: str) -> None:
    print(f"certbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of fresh interpreters that import locco and write the inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup-{k}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(target)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            _fail(f"set-up failed:\n{proc.stderr}")
        shutil.rmtree(target, ignore_errors=True)
    return statistics.median(times)


def run_job(cli, job) -> tuple:
    """Run one job; returns (wall s, cpu s, problems, crashed, report bytes).

    ``problems`` are wrong answers: an oracle mismatch or a report that
    failed its own check.  ``crashed`` is a job that gave no report to judge:
    an exception, or exit code 2 or 3.
    """
    outputs = []
    crashed = None
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for call in job.calls:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.run(call.argv)
        except Exception:  # a traceback is a failed job, not a failed run
            code, crashed = None, traceback.format_exc(limit=3)
        outputs.append((code, buf.getvalue()))
        if code is None:
            break
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    problems = []
    nbytes = 0
    for call, (code, text) in zip(job.calls, outputs):
        nbytes += len(text.encode("utf-8"))
        if code not in (EXIT_PASS, EXIT_FAIL):
            crashed = crashed or f"exit code {code} from {' '.join(call.argv)}"
            continue
        # exit 1 is a finished report whose own check failed: a wrong answer
        if code == EXIT_FAIL:
            problems.append(f"a check failed (exit 1) in {' '.join(call.argv)}")
        try:
            problems += call.check(json.loads(text))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed report: {exc!r}")
    return wall, cpu, problems, crashed, nbytes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "locco" / "__init__.py").is_file():
        _fail(f"no locco sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = measure_setup(args.workload, args.seed, workdir)
        jobs = workloads.prepare(args.workload, args.seed, workdir / "inputs")
        import locco
        import locco.cli as cli
        if Path(locco.__file__).resolve().parent != SRC / "locco":
            _fail(f"imported locco from {locco.__file__}, not from {SRC}")
        tracer = None
        if args.trace:
            from layers import Tracer
            tracer = Tracer()
            tracer.install()
        result = measure(cli, jobs, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.uninstall()

    walls, cpus, attempted, failed, wrong, passes = result["stats"]
    for line in result["log"]:
        print(line, file=sys.stderr)
    if args.trace:
        metrics = tracer.layer_metrics(passes)
        write_trace(tracer, args, jobs, passes, metrics, walls)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "jobs_per_s": ((attempted - failed) / sum(walls), "jobs/s"),
            "job_s.p50": (statistics.median(walls), "s"),
            "job_cpu_s.p50": (statistics.median(cpus), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"{args.workload}: {passes} passes, {attempted} jobs attempted, "
          f"{failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def measure(cli, jobs, args, tracer) -> dict:
    """Whole passes over the job list until about ``args.seconds`` have gone.

    A pass starts only if it is expected to end less than half a pass after
    the deadline, so every run attempts whole passes of the same jobs.
    """
    walls, cpus, log = [], [], []
    attempted = failed = passes = 0
    wrong = False
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.begin_job(passes * len(jobs) + k)
            wall, cpu, problems, crashed, nbytes = run_job(cli, job)
            walls.append(wall)
            cpus.append(cpu)
            attempted += 1
            if problems or crashed:
                failed += 1
                wrong = wrong or bool(problems)
                log.append(f"FAILED {job.name}: {crashed or ''} {'; '.join(problems)}")
            if tracer is not None:
                tracer.counts["cli.report_bytes"] += nbytes
        passes += 1
        last = time.perf_counter() - pass_start
        if time.perf_counter() - start + last / 2 > args.seconds:
            break
    return {"stats": (walls, cpus, attempted, failed, wrong, passes), "log": log}


def write_trace(tracer, args, jobs, passes, metrics, walls) -> None:
    """Spans of the first pass, with layer metrics and the traced job times."""
    OUT.mkdir(exist_ok=True)
    names = sorted({s[0] for s in tracer.spans})
    index = {n: k for k, n in enumerate(names)}
    first = [s for s in tracer.spans if s[4] < len(jobs)]
    doc = {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "jobs": [job.name for job in jobs],
        "traced_end_to_end": {
            "jobs_per_s": len(walls) / sum(walls),
            "job_s.p50": statistics.median(walls),
        },
        "layer_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "span_fields": ["name", "start_s", "end_s", "parent", "job"],
        "span_names": names,
        "spans": [[index[n], round(s, 7), round(e, 7), p, j] for n, s, e, p, j in first],
    }
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


if __name__ == "__main__":
    main()
