"""binsquares benchmark: prove, certify and tables workloads.

    python3 perfbench/run.py --workload prove|certify|tables|all \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from anywhere; paths are resolved from this file.  Each workload is one
closed-loop client: the next request starts when the previous one ends.
Requests run in worker processes (``jobs.py``) with ``PYTHONPATH=src``, so
this process imports nothing from the package.  Passes over a fixed seeded
request set repeat until the time is up, each in fresh processes; a request's
time is its best over the run's passes (see ``best_times``), scaled to a
reference host speed (see ``closed_loop``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds
the per-layer metrics instead, taken from spans (``spans.py``), together
with the tracing overhead.  The lines before it name every metric of the
workload with its unit and sample count.  The full report, with the
environment, the seed, the input mix and (traced) every span, is written to
``.bench_out/`` at the repository root.  ``--smoke`` runs every workload in
a tiny configuration, traced and untraced, and checks the output schema.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import jobs  # noqa: E402
from spans import self_times  # noqa: E402

SRC = ROOT / "src"
GOLDEN = {
    "exceptions": ROOT / "tests" / "data" / "four_squares_exceptions.txt",
    "exact_four_positive": ROOT / "tests" / "data" / "exact_four_positive_exceptions.txt",
}
OUT = ROOT / ".bench_out"
# a tables pass; density runs at 2**18, where one call takes about a second,
# so that a run holds a dozen passes and a best time (see best_times)
TABLES_JOBS = ("small", "sweeps", "density")
JOB_TIMEOUT = 120
# The reference loop's best time on the host whose figures README.md gives,
# a 2-vCPU VM with Python 3.11; every end-to-end time is scaled to this speed.
REFERENCE_S = 0.75e-3
# Before each job the reference work runs back to back, at least 5 times and
# once per 150 ms of the job's last wall time, so that a run takes about the
# same number of reference timings (some 250) on every workload.
REFERENCE_REPEATS = 5
REFERENCE_EVERY_S = 0.15


class BenchError(RuntimeError):
    """No result: the package or its data is missing, or a worker failed."""


# -- worker processes ----------------------------------------------------------


def spawn(spec: dict, timeout: float) -> tuple[dict | None, float, str | None]:
    """Run one job in a fresh process: (result, wall seconds, error)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "jobs.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
        start_new_session=True,  # lets a timeout kill the job's own workers too
    )
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, time.perf_counter() - started, f"{spec['job']} timed out"
    wall = time.perf_counter() - started
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return None, wall, f"{spec['job']} failed: {tail[0]}"
    return json.loads(lines[-1]), wall, None


# -- host speed ----------------------------------------------------------------


def reference_work() -> int:
    """Fixed pure-Python work, independent of the package, that times the host."""
    d = {}
    for i in range(6000):
        d[(i * 7919) % 10007] = i
    return sum(k * v for k, v in d.items())


def reference_times(repeats: int) -> list[float]:
    """Back-to-back timings of the reference work: the host's speed at this
    moment."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t)
    return times


# -- statistics ----------------------------------------------------------------


def percentile(samples: list[float], p: float) -> float:
    """Mean of the samples ranked within a few points of the p-th percentile:
    5 on either side, or less near 0 and 100.

    Requests come in classes (a job, or a bit length in one mode) whose
    latencies lie apart, so a single order statistic jumps between
    neighbouring classes from run to run; the window averages over them.
    For a handful of samples this is the usual interpolated percentile.
    """
    xs = sorted(samples)
    w = min(5, p / 2, (100 - p) / 2)
    lo = round((p - w) / 100 * (len(xs) - 1))
    hi = round((p + w) / 100 * (len(xs) - 1))
    return sum(xs[lo : hi + 1]) / (hi - lo + 1)


def median(samples: list[float]) -> float:
    return percentile(samples, 50)


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


class Report:
    """Named measurements of one run, each with unit and sample count."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, str, float, int]] = []

    def add(self, name: str, unit: str, value: float, n: int) -> None:
        self.rows.append((name, unit, value, n))

    def add_latency(self, stem: str, seconds: list[float]) -> None:
        """p50, p90 and the highest percentile with ten samples beyond it."""
        tail = tail_percentile(len(seconds))
        for p in sorted({50, 90} | ({tail} if tail and tail > 90 else set())):
            self.add(f"{stem}_p{p:g}_ms", "ms", 1000 * percentile(seconds, p), len(seconds))

    def lines(self) -> list[str]:
        return [f"  {name:<26} {value:>14.6g} {unit:<7} n={n}" for name, unit, value, n in self.rows]


# -- workloads -----------------------------------------------------------------


class Run:
    """State shared by the workload functions for one (workload, seed) run."""

    def __init__(self, args, config: jobs.Config) -> None:
        self.args = args
        self.config = config
        self.trace = bool(args.trace)
        self.baselines = json.loads((HERE / "baselines.json").read_text())
        self.attempted = 0
        self.failures: list[str] = []
        self.drift: list[str] = []
        self.report = Report()
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.spans: list[list[dict]] = []  # one list per traced worker process
        self.setups: list[float] = []
        self.reference: list[float] = []  # reference timings before every job
        self.walls: dict[str, float] = {}  # each job's last wall time
        self.deadline = 0.0
        self.inputs: dict = {}
        self.overhead = 0.0
        self.traced_passes = 0

    def check_count(self, name: str, got, want) -> None:
        """Flag an exact-repeat count that moved from its baseline."""
        if want is not None and got != want:
            self.drift.append(f"{name}: {got} (baseline {want})")

    def fits(self, key: str) -> bool:
        """Whether job ``key``, at its last wall time, ends before the deadline."""
        return time.perf_counter() + self.walls[key] <= self.deadline

    def job(self, spec: dict, key: str) -> tuple[dict | None, float]:
        """One worker process: (result, wall seconds).  Its set-up time joins
        the run's samples; a failed job is counted and gives None."""
        last = self.walls.get(key, 0.0)
        self.reference += reference_times(max(REFERENCE_REPEATS, round(last / REFERENCE_EVERY_S)))
        result, wall, error = spawn(spec, JOB_TIMEOUT)
        self.walls[key] = wall
        if error:
            self.failures.append(error)
            return None, wall
        self.setups.append(result["setup_s"])
        if spec.get("trace"):
            self.spans.append(result["spans"])
        return result, wall

    def pass_spec(self, job: str, traced: bool) -> dict:
        return {
            "job": job,
            "seed": self.args.seed,
            "trace": traced,
            "smoke": self.config.smoke,
            "golden": {k: str(v) for k, v in GOLDEN.items()},
        }


def closed_loop(run: Run, run_pass) -> list[dict]:
    """Run passes while the next one is predicted to end before the deadline.

    ``run_pass(traced, fill)`` runs one pass and returns its request times
    as ``{"times": {request: seconds}}``; they are scaled to the reference
    speed here.  There is always at least one pass, and in a traced run at
    least two, untraced and traced in turn, so that the tracing overhead can
    be measured.  Each pass's ``busy`` time is the sum of its request times.

    The time left when a whole pass no longer fits goes to one last, untraced
    ``fill`` pass, which runs only the jobs that still fit (``Run.fits``).
    On ``prove``, whose pass takes over a third of a run, that gives the
    short jobs a third timing.  A fill pass joins the best times but not
    the pass statistics.
    """
    run.deadline = time.perf_counter() + run.args.seconds
    passes: list[dict] = []
    fill = False
    while True:
        traced = run.trace and len(passes) % 2 == 1 and not fill
        t = time.perf_counter()
        result = run_pass(traced, fill)
        wall = time.perf_counter() - t
        result.update(traced=traced, fill=fill, busy=sum(result["times"].values()))
        if result["times"]:
            passes.append(result)
        if fill:
            break
        fill = len(passes) >= (2 if run.trace else 1) and time.perf_counter() + wall > run.deadline
    # A slow stretch of the host can outlast a run. The reference work's best
    # time over the run moves with it, so request and set-up times are scaled
    # by the ratio of REFERENCE_S to that best time.
    run.reference += reference_times(REFERENCE_REPEATS)
    scale = REFERENCE_S / min(run.reference)
    for p in passes:
        p["times"] = {request: seconds * scale for request, seconds in p["times"].items()}
    run.setups = [seconds * scale for seconds in run.setups]
    return passes


def best_times(passes: list[dict]) -> dict[str, float]:
    """Each request's shortest time over the untraced passes.

    Every pass repeats the same requests (on certify, the same request
    classes), each pass (each prove job) in a fresh process, so the
    request's work is the same every time and only
    the host's speed varies: on a shared host, whose speed swings by half
    over seconds, the shortest time is the steady estimate of it.
    """
    best: dict[str, float] = {}
    for p in passes:
        if not p["traced"]:
            for request, seconds in p["times"].items():
                best[request] = min(seconds, best.get(request, seconds))
    return best


def untraced(passes: list[dict]) -> int:
    return sum(not p["traced"] for p in passes)


def run_prove(run: Run) -> None:
    base = run.baselines["prove"]
    orders = jobs.prove_order(run.args.seed, run.config)
    order_log = []

    def run_pass(traced: bool, fill: bool) -> dict:
        order = next(orders)
        if fill:  # shortest first, so that the most jobs get one more timing
            order = sorted(order, key=run.walls.__getitem__)
        times = {}
        for case in order:
            if fill and not run.fits(case):
                continue
            if case in jobs.REFUTATIONS:
                spec = {"job": "refute", "case": case, "trace": traced}
            else:
                spec = {"job": "verify", "target": case, "trace": traced}
            run.attempted += 1
            result, times[case] = run.job(spec, case)
            if result is None:
                continue
            if spec["job"] == "verify":
                record = result["record"] or {}
                if result["exit"] != 0 or record.get("holds") is not True:
                    run.failures.append(f"verify {case}: assertion does not hold")
                run.check_count(f"explored {case}", record.get("explored"), base["explored"][case])
                run.check_count(f"union_states {case}", record.get("states"), base["union_states"][case])
                run.check_count(
                    f"union_transitions {case}",
                    record.get("transitions"),
                    base["union_transitions"][case],
                )
                run.layers[f"lemma_machines.union_states.{case}"] = record.get("states", 0)
                run.layers[f"lemma_machines.union_transitions.{case}"] = record.get("transitions", 0)
            else:
                if result["holds"] or not result["word_ok"]:
                    run.failures.append(f"{case}: no separating counterexample")
                run.check_count(f"explored {case}", result["explored"], base["explored"][case])
                run.check_count(f"counterexample {case}", result["value"], base["counterexample"][case])
        order_log.append(list(times))
        return {"times": times}

    passes = closed_loop(run, run_pass)
    best = best_times(passes)
    run.inputs = {"jobs_per_pass": len(order_log[0]), "order": order_log}
    run.report.add("prove_s", "s", sum(best[c] for c in run.config.targets), untraced(passes))
    run.report.add("refute_s", "s", sum(best[c] for c in run.config.refutations), untraced(passes))
    run.report.add_latency("request", list(best.values()))
    finish(run, passes, best, list(best.values()))


def run_certify(run: Run) -> None:
    requests = jobs.certify_requests(run.args.seed, run.config)
    bits = [v.bit_length() for _, v in requests]
    run.inputs = {
        "requests_per_pass": len(requests) * jobs.CERTIFY_ROUNDS,
        "mix": sorted({f"{mode}/{v.bit_length()}" for mode, v in requests}),
        "values_digest": jobs.digest(v for _, v in requests),
    }
    # states_visited of the fixed first round must repeat exactly: across
    # passes and against the seed baseline
    want = None if run.config.smoke else run.baselines["certify"]["states_visited"].get(str(run.args.seed))
    runtimes = []

    def run_pass(traced: bool, fill: bool) -> dict:
        if fill and not run.fits("certify"):
            return {"times": {}}
        spec = run.pass_spec("certify", traced)
        spec["pass"] = len(runtimes)  # passes so far; each draws its own values
        result, _ = run.job(spec, "certify")
        if result is None:
            raise BenchError(run.failures[-1])
        run.attempted += len(result["latencies"])
        run.failures += result["failures"]
        first = run.inputs.setdefault("states_visited", result["states"])
        ref = want or first
        moved = [i for i, (a, b) in enumerate(zip(result["states"], ref)) if a != b]
        if moved or len(result["states"]) != len(ref):
            run.drift.append(f"states_visited moved on {len(moved)} of {len(ref)} certify inputs")
        runtimes.append(result["runtime_s"])
        times: dict[str, float] = {}
        for key, x in result["latencies"]:  # a (mode, bit length) class, once a round
            times[key] = min(x, times.get(key, x))
        return {"times": times}

    passes = closed_loop(run, run_pass)
    best = best_times(passes)
    latencies = list(best.values())
    run.report.add_latency("certify", latencies)
    run.report.add("certify_bits_per_s", "bits/s", sum(bits) / sum(latencies), untraced(passes))
    for family in runtimes[0]:
        run.layers[f"witness.runtime_s.{family}"] = median([rt[family] for rt in runtimes])
    finish(run, passes, best, latencies)


def run_tables(run: Run) -> None:
    expected = None if run.config.smoke else jobs.DENSITY_2_18

    def run_pass(traced: bool, fill: bool) -> dict:
        times: dict[str, float] = {}
        for job in TABLES_JOBS:
            if fill and not run.fits(job):
                continue
            result, _ = run.job(run.pass_spec(job, traced), job)
            if result is None:
                raise BenchError(run.failures[-1])
            if job == "small":
                run.attempted += len(result["latencies"])
                run.failures += result["failures"]
                times.update((f"small:{i}", x) for i, x in enumerate(result["latencies"]))
            elif job == "sweeps":
                run.attempted += result["operations"]
                run.failures += result["failures"]
                times["sweep"] = result["sweep_s"]
            else:
                run.attempted += 1
                if expected is not None and result["density"] != expected:
                    run.failures.append(f"density at 2**18 is {result['density']}, expected {expected}")
                times["density"] = result["density_s"]
        return {"times": times}

    passes = closed_loop(run, run_pass)
    best = best_times(passes)
    run.inputs = {
        "jobs_per_pass": TABLES_JOBS,
        "sweep_bound": jobs.SWEEP_BOUND,
        "density_bound": run.config.density_bound,
        "small_values": run.config.small_values,
        "small_values_digest": jobs.digest(jobs.small_values(run.args.seed, run.config.small_values)),
    }
    latencies = [x for request, x in best.items() if request.startswith("small:")]
    run.report.add("density_s", "s", best["density"], untraced(passes))
    run.report.add("sweep_s", "s", best["sweep"], untraced(passes))
    run.report.add_latency("small", latencies)
    finish(run, passes, best, latencies)


def finish(run: Run, passes: list[dict], best: dict[str, float], latencies: list[float]) -> None:
    """End-to-end metrics from the untraced passes, and the tracing overhead."""
    plain = [p["busy"] for p in passes if not p["traced"] and not p["fill"]]
    traced = [p["busy"] for p in passes if p["traced"]]
    # the largest worker process: a prove job with its pool workers, or one
    # certify or tables pass (KiB on Linux, so /1024 gives MiB)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    run.e2e = {
        "setup_s": median(run.setups),
        "pass_s": sum(best.values()),
        "p50_ms": 1000 * median(latencies),
        "peak_rss_mb": rss_mb,
    }
    run.report.add("pass_s", "s", run.e2e["pass_s"], len(plain))
    run.report.add("setup_s", "s", run.e2e["setup_s"], len(run.setups))
    run.report.add("peak_rss_mb", "MB", rss_mb, 1)
    run.report.add("reference_ms", "ms", 1000 * min(run.reference), len(run.reference))
    run.inputs["pass_busy_s"] = plain
    run.inputs["best_s"] = best
    run.traced_passes = len(traced)
    if traced:
        run.overhead = 100 * (median(traced) / median(plain) - 1)


WORKLOADS = {"prove": run_prove, "certify": run_certify, "tables": run_tables}


# -- per-layer metrics from spans ----------------------------------------------

# spans whose total time is a metric <name>_s; counted ones also give <name>_calls
_TIMED = (
    "folding.syntax_checker",
    "oracle.lower_density_estimate",
    "oracle.two_squares_density",
    "oracle.exceptions",
    "oracle.density_floor_holds",
    "oracle.sumset_uniqueness",
)
_COUNTED = ("folding.fold", "oracle.sumset_table", "oracle.decompose_brute", "numberforms.ground_set_upto")
CASES = jobs.VERIFY_TARGETS + tuple(jobs.REFUTATIONS)
FAMILIES = ("a-odd", "a-even", "square-power-odd", "square-power-even", "generalized-odd", "generalized-even")


def layer_metrics(run: Run) -> dict[str, float]:
    """Per-layer values per traced pass, from the spans of every worker."""
    sums: dict[str, float] = defaultdict(float)  # summed over traced passes
    exact: dict[str, int] = {}  # counts that repeat exactly, one per case
    for spans in run.spans:
        case = {s["request"]: s["attrs"].get("target", s["attrs"].get("case")) for s in spans if s["parent"] is None}
        for s, own in zip(spans, self_times(spans)):
            name, attrs, d = s["name"], s["attrs"], s["end"] - s["start"]
            if name == "cli.verify":
                sums[f"cli.verify_s.{attrs['target']}"] += d
                # outside includes and syntax_checker: generation, pool, union, trim
                sums[f"lemma_machines.build_s.{attrs['target']}"] += own
            elif name == "automata.includes":
                sums[f"automata.includes_s.{case[s['request']]}"] += d
                exact[f"automata.explored.{case[s['request']]}"] = attrs["explored"]
            elif name == "witness.decompose":
                sums[f"witness.decompose_s.{attrs['mode']}"] += d
                sums[f"witness.self_s.{attrs['mode']}"] += own
                sums[f"witness.states_visited.{attrs['mode']}"] += attrs.get("states_visited", 0)
            elif name == "witness.verify":
                mode = spans[s["parent"]]["attrs"].get("mode")
                if mode:
                    sums[f"witness.verify_s.{mode}"] += d
            elif name in _TIMED:
                sums[f"{name}_s"] += d
            elif name in _COUNTED:
                sums[f"{name}_s"] += d
                sums[f"{name}_calls"] += 1

    m: dict[str, float] = {}
    for t in jobs.VERIFY_TARGETS:
        for stem in ("cli.verify_s", "lemma_machines.build_s", "lemma_machines.union_states", "lemma_machines.union_transitions"):
            m[f"{stem}.{t}"] = 0
    for c in CASES:
        m[f"automata.includes_s.{c}"] = m[f"automata.explored.{c}"] = 0
    for name in _TIMED + _COUNTED:
        m[f"{name}_s"] = 0
    for name in _COUNTED:
        m[f"{name}_calls"] = 0
    for mode in jobs.MODES:
        for stem in ("decompose_s", "self_s", "verify_s", "states_visited"):
            m[f"witness.{stem}.{mode}"] = 0
    for family in FAMILIES:
        m[f"witness.runtime_s.{family}"] = 0
    n = max(run.traced_passes, 1)
    m.update({name: total / n for name, total in sums.items()})
    m.update(exact)
    m.update(run.layers)  # counts from verify records, runtimes from set-up
    for c in CASES:
        busy = m[f"automata.includes_s.{c}"]
        m[f"automata.pairs_per_s.{c}"] = m[f"automata.explored.{c}"] / busy if busy else 0
    for mode in jobs.MODES:
        busy = m[f"witness.self_s.{mode}"]
        m[f"witness.states_per_s.{mode}"] = m[f"witness.states_visited.{mode}"] / busy if busy else 0
    m["bench.tracing_overhead_pct"] = run.overhead
    m["bench.baseline_drift"] = len(run.drift)
    return m


# -- output --------------------------------------------------------------------


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or None
    sha = hashlib.sha256()
    for path in sorted((SRC / "binsquares").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),  # the CLI's default --parallel pool size
        "commit": commit,
        "src_sha256": sha.hexdigest()[:16],
    }


def metric_specs() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run_workload(workload: str, args, config: jobs.Config) -> dict:
    """One run: returns the result object whose JSON is the last output line."""
    run = Run(args, config)
    WORKLOADS[workload](run)
    end_to_end, per_layer = metric_specs()
    if run.trace:
        values = layer_metrics(run)
        specs = per_layer
    else:
        values = run.e2e
        specs = end_to_end
    failed = len(run.failures)
    run.report.add("error_rate", "share", failed / run.attempted, run.attempted)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  attempted {run.attempted}  failed {failed}")
    print("\n".join(run.report.lines()))
    if run.trace:
        print(f"  tracing overhead {run.overhead:+.2f}% over {run.traced_passes} traced pass(es)")
        if any(run.spans):
            print(_self_time_table(run.spans))
    for line in run.failures[:20]:
        print(f"  FAILED {line}")
    for line in run.drift:
        print(f"  DRIFT  {line}")
    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": run.inputs,
        "report": [{"name": n, "unit": u, "value": v, "samples": k} for n, u, v, k in run.report.rows],
        "failures": run.failures,
        "drift": run.drift,
        "result": result,
        "spans": run.spans,
    }
    path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1))
    print(f"  report {path.relative_to(ROOT)}")
    return result


def _self_time_table(span_lists: list[list[dict]]) -> str:
    total: dict[str, list[float]] = {}
    for spans in span_lists:
        for s, own in zip(spans, self_times(spans)):
            row = total.setdefault(s["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s["end"] - s["start"]
            row[2] += own
    lines = ["  span                           calls      total_s       self_s"]
    for name, (calls, dur, own) in sorted(total.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:<28} {calls:>7} {dur:>12.4f} {own:>12.4f}")
    return "\n".join(lines)


def schema_problems(result: dict, trace: int) -> list[str]:
    """Differences between a result object and the contract in BENCHMARK.json."""
    end_to_end, per_layer = metric_specs()
    specs = per_layer if trace else end_to_end
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is not a positive whole number")
    want = {s["name"]: s["unit"] for s in specs}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, entry in got.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != want.get(name):
            problems.append(f"{name}: {entry}")
        elif not isinstance(entry["value"], (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def smoke(args) -> int:
    """Tiny configuration of every workload, untraced and traced."""
    config = jobs.Config(smoke=True)
    args.seconds = 1
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.trace = trace
            result = run_workload(workload, args, config)
            problems += [f"{workload} trace {trace}: {p}" for p in schema_problems(result, trace)]
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: incorrect output")
    for p in problems:
        print(f"SMOKE {p}")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def run_separately(workload: str, args) -> dict:
    """Run one workload in its own process, so peak memory is its own."""
    argv = [sys.executable, __file__, "--workload", workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if done.returncode != 0 or not lines:
        raise BenchError(f"workload {workload} exited with {done.returncode}")
    return json.loads(lines[-1])


def check_checkout() -> None:
    needed = [SRC / "binsquares" / "__init__.py", ROOT / "BENCHMARK.json", *GOLDEN.values()]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a binsquares checkout, missing {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configuration, schema check")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.smoke:
            return smoke(args)
        config = jobs.Config()
        if args.workload != "all":
            result = run_workload(args.workload, args, config)
        else:
            results = {w: run_separately(w, args) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{w}.{name}": entry for w, r in results.items() for name, entry in r["metrics"].items()
                },
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
