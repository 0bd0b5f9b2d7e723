"""Seeded end-to-end benchmark of the cuspgrowth CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload dm-search --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --compare OLD NEW

A run imports the CLI in-process and runs the workload as a closed
loop with one client: one job at a time through
``cuspgrowth.cli.main(argv)``, one process, no threads.  Jobs come in
rounds (see workloads.py); rounds are started until ``--seconds`` of
wall time are used up, and a started round always completes.  Every
output is checked by an oracle in checks.py that does not call the
package.  Job times run from ``main(argv)`` entry to captured output;
input generation and output checks are not timed.

Set-up is measured between jobs, spread over the whole run: about
every ``SETUP_EVERY_S`` seconds a fresh interpreter imports
``cuspgrowth.cli`` from ``src/`` and runs one small ``dm check`` job.
``setup_s`` is the 10th percentile of the times from process start to
that job's output.  On a shared machine a slow moment only ever adds
time, so the low end of the probes tracks the program's own cost, and
spreading them over the run lets them catch the machine's fast moments.
A slower import moves every probe, the fastest ones too.

``--trace 0`` prints the end-to-end metrics: ``jobs_per_s`` (checked
jobs over the summed job time, so generation, checks and set-up
probes are left out), ``job_p50_s``, ``job_p90_s``,
``setup_s`` and ``peak_rss_mb`` (``ru_maxrss`` of this process).
``--trace 1`` runs each job of a fixed number of rounds twice, traced
and untraced in alternating order, each from cleared package caches;
it requires byte-identical outputs (by checksum), and prints the
per-layer metrics of tracing.py plus the tracing overhead.  The
end-to-end failure share is the result's ``failed`` over ``attempted``.

Each run also checks its checkers: every checker must reject damaged
copies of a right output from its own run.  A result file with the
seed, input properties, environment and metrics is written under
``.bench_out/results``; ``--compare`` prints, per workload and metric,
each side's median and quartiles over the result files given.
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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check, corruptions  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Job, random_check, round_rng  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Seconds between two set-up probes; setup_s is their 10th percentile.
SETUP_EVERY_S = 1.25

SETUP_CODE = (
    "import sys\n"
    "from cuspgrowth.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "sys.stdout.write('\\0done %d\\n' % rc)\n"
    "sys.stdout.flush()\n"
)

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree.  Git
    is run only when the checkout has its own .git, so it never looks
    at directories above the checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(),
    }


# ---------------------------------------------------------------------------
# Running jobs


class Runner:
    """Runs jobs in-process through the CLI and keeps their records."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.samples: dict[tuple[str, str], tuple[Job, str]] = {}

    def materialize(self, jobs: list[Job], tag: str) -> None:
        """Write spec documents to files and put their paths in the argv."""
        for k, job in enumerate(jobs):
            if job.spec is not None:
                path = self.workdir / f"{tag}-{k}.json"
                path.write_text(json.dumps(job.spec))
                job.argv = [str(path) if a == "{spec}" else a for a in job.argv]

    def run_job(self, job: Job) -> tuple[object, str, str, float]:
        """Exit code (or the exception raised), stdout, stderr, seconds."""
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main  # looked up per call so a traced binding is used
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(job.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # the loop must go on; the job counts as failed
                rc = f"raised {type(exc).__name__}: {exc}"
        text = out.getvalue()
        return rc, text, err.getvalue(), time.perf_counter() - start

    def run_round(self, jobs: list[Job], tracer: Tracer = None, first_id: int = 0,
                  between=None) -> dict:
        """Run and check one round; ``between()`` is called after each job."""
        times, digests, failures = [], [], []
        for k, job in enumerate(jobs):
            if between is not None and k:
                between()
            if tracer is not None:
                tracer.job_id = first_id + k
            rc, out, err, elapsed = self.run_job(job)
            if tracer is not None:
                tracer.counts["cli.out_bytes"] += len(out)
            times.append(elapsed)
            digests.append(hashlib.sha256(f"{rc}\0{out}".encode()).hexdigest())
            reason = check(job, rc, out)
            if reason is not None:
                failures.append(f"{job.kind} {' '.join(job.argv)}: {reason} {err[:200]}")
                continue
            # Keep the shortest right output of each kind and format, so
            # the memory held does not depend on the seed.
            key = (job.kind, job.fmt)
            if key not in self.samples or len(out) < len(self.samples[key][1]):
                self.samples[key] = (job, out)
        return {"times": times, "digests": digests, "failures": failures}


def self_test(samples: dict) -> dict:
    """Every checker must reject each damaged copy of a right output."""
    accepted = []
    for (kind, fmt), (job, out) in sorted(samples.items()):
        for bad in corruptions(job, out):
            if check(job, 0, bad) is None:
                accepted.append(f"{kind}/{fmt}")
    return {"cases": len(samples), "accepted_corruptions": accepted}


class SetupProbe:
    """Times fresh interpreters from start to the output of one seeded
    ``dm check`` job, with the CLI imported from ``src/``."""

    def __init__(self, seed: int):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + self.env["PYTHONPATH"]
                                             if self.env.get("PYTHONPATH") else "")
        self.rng = round_rng(seed, "setup", 0)
        self.times: list[float] = []
        self.failures: list[str] = []
        self.last = -float("inf")

    def __call__(self) -> None:
        job = random_check(self.rng, "json")
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, *job.argv], cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        lines = []
        for line in proc.stdout:
            if line.startswith("\0done"):
                break
            lines.append(line)
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
        self.times.append(elapsed)
        self.last = time.perf_counter()
        reason = check(job, proc.returncode, "".join(lines))
        if reason is not None:
            self.failures.append(f"setup {' '.join(job.argv)}: {reason} {err.strip()}")

    def when_due(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self()


def describe(workload, jobs: list[Job]) -> dict:
    """Job counts and input properties of one round.  Rounds are described
    as they run and not kept, so memory does not grow with their number."""
    kinds = sorted({j.kind for j in jobs})
    return {"jobs_by_kind": {k: sum(j.kind == k for j in jobs) for k in kinds},
            "properties": workload.properties(jobs)}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# One benchmark run


def run_benchmark(args) -> dict:
    if not (SRC / "cuspgrowth" / "cli.py").is_file():
        fail(f"no cuspgrowth sources under {SRC}; run from a source checkout")
    workload = WORKLOADS[args.workload]

    failures: list[str] = []
    sys.path.insert(0, str(SRC))
    import cuspgrowth.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        fail(f"imported cuspgrowth from {cli.__file__}, not from {SRC}")

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, workdir)
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
    }
    inputs: list[dict] = []
    probe = SetupProbe(args.seed)
    try:
        if args.trace:
            metrics, info = traced_run(args, workload, runner, inputs, failures)
        else:
            metrics, info = untraced_run(args, workload, runner, inputs, failures, probe)
            metrics["setup_s"] = statistics.quantiles(probe.times, n=10)[0]
            metrics = {k: {"value": metrics[k], "unit": END_TO_END_UNITS[k]}
                       for k in END_TO_END_UNITS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures += probe.failures
    tests = self_test(runner.samples)
    attempted = info["attempted"] + len(probe.times)
    result.update(info)
    result.update({
        "correct": not failures and not tests["accepted_corruptions"],
        "attempted": attempted,
        "failed": len(failures),
        "fail_share": len(failures) / attempted,
        "failures": failures[:20],
        "self_test": tests,
        "setup_times_s": probe.times,
        "rounds_described": inputs,
        "metrics": metrics,
    })
    return result


def untraced_run(args, workload, runner, inputs, failures, probe) -> tuple[dict, dict]:
    times: list[float] = []
    failed = 0
    by_kind: dict[str, list[float]] = {}
    round_walls: list[float] = []
    start = time.perf_counter()
    index = 0
    while index == 0 or (time.perf_counter() - start
                         + statistics.mean(round_walls) / 2 < args.seconds):
        round_start = time.perf_counter()
        probe.when_due()
        jobs = workload.make_round(round_rng(args.seed, workload.name, index))
        runner.materialize(jobs, f"r{index}")
        record = runner.run_round(jobs, between=probe.when_due)
        inputs.append(describe(workload, jobs))
        times += record["times"]
        for job, t in zip(jobs, record["times"]):
            by_kind.setdefault(job.kind, []).append(t)
        failures += record["failures"]
        failed += len(record["failures"])
        round_walls.append(time.perf_counter() - round_start)
        index += 1
    probe()  # one more at the end, so there are always at least two
    metrics = {
        "jobs_per_s": (len(times) - failed) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": quantile(times, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    jobs_above_p90 = sum(t > metrics["job_p90_s"] for t in times)
    kind_times = {k: {"jobs": len(v), "median_s": statistics.median(v), "total_s": sum(v)}
                  for k, v in sorted(by_kind.items())}
    return metrics, {"rounds": index, "attempted": len(times), "kind_times": kind_times,
                     "jobs_above_p90": jobs_above_p90,
                     "wall_s": time.perf_counter() - start}


def traced_run(args, workload, runner, inputs, failures) -> tuple[dict, dict]:
    rounds = []
    for index in range(workload.trace_rounds):
        jobs = workload.make_round(round_rng(args.seed, workload.name, index))
        runner.materialize(jobs, f"r{index}")
        rounds.append(jobs)
        inputs.append(describe(workload, jobs))
    # Each job runs twice, traced and untraced, one right after the other
    # and in alternating order, so a drift in machine speed falls on both
    # sides alike.  Every run starts with gf.field, the package's only
    # cache, empty, so table builds are not charged to one side.
    field = sys.modules["cuspgrowth.gf"].field
    tracer = Tracer()
    traced, untraced = [], []
    for k, job in enumerate(job for jobs in rounds for job in jobs):
        for with_trace in ((True, False) if k % 2 == 0 else (False, True)):
            field.cache_clear()
            if not with_trace:
                untraced.append(runner.run_round([job]))
                continue
            try:
                tracer.install()
                traced.append(runner.run_round([job], tracer, k))
            finally:
                tracer.uninstall()
    digests = lambda recs: [d for r in recs for d in r["digests"]]  # noqa: E731
    identical = digests(traced) == digests(untraced)
    for r in traced + untraced:
        failures += r["failures"]
    if not identical:
        failures.append("traced and untraced outputs differ")
    rate = lambda recs: (sum(len(r["times"]) for r in recs)  # noqa: E731
                         / sum(sum(r["times"]) for r in recs))
    metrics = tracer.metrics()
    metrics["trace.jobs_per_s_traced"] = {"value": rate(traced), "unit": "jobs/s"}
    metrics["trace.jobs_per_s_untraced"] = {"value": rate(untraced), "unit": "jobs/s"}
    metrics["trace.overhead_ratio"] = {"value": rate(untraced) / rate(traced),
                                       "unit": "ratio"}
    spans = OUT / "spans" / f"{workload.name}-seed{args.seed}.csv.gz"
    tracer.write_spans(spans)
    attempted = sum(len(r["times"]) for r in traced + untraced)
    return metrics, {"rounds": len(rounds), "attempted": attempted, "identical": identical,
                     "spans": len(tracer.span_name), "spans_file": str(spans.relative_to(ROOT))}


def write_result(result: dict) -> Path:
    path = OUT / "results" / (f"{result['workload']}-seed{result['seed']}-"
                              f"trace{result['trace']}-{time.time_ns()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Comparing two sets of results


def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def compare(old: Path, new: Path) -> None:
    sides = [load_results(old), load_results(new)]
    groups = sorted({(r["workload"], r["trace"]) for side in sides for r in side})
    for workload, trace in groups:
        print(f"== {workload} (trace {trace})")
        print(f"{'metric':44} {'old median [q1, q3]':40} {'new median [q1, q3]':40} new/old")
        picked = [[r for r in side if (r["workload"], r["trace"]) == (workload, trace)]
                  for side in sides]
        names = sorted({m for side in picked for r in side for m in r["metrics"]})
        for name in names:
            vals = [[r["metrics"][name]["value"] for r in side if name in r["metrics"]]
                    for side in picked]
            cells = [summary(v) if v else "-" for v in vals]
            ratio = (f"{statistics.median(vals[1]) / statistics.median(vals[0]):.4f}"
                     if all(vals) and statistics.median(vals[0]) else "-")
            print(f"{name:44} {cells[0]:40} {cells[1]:40} {ratio}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="result files or directories of result files")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    result = run_benchmark(args)
    path = write_result(result)
    sys.stderr.write(f"bench: result written to {path.relative_to(ROOT)}\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
