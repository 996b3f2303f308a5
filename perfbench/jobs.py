"""Worker side of the benchmark: one job per process.

``run.py`` starts ``python3 perfbench/jobs.py`` with ``PYTHONPATH=src``,
writes a JSON job spec to its standard input and reads one JSON result from
the last line of its standard output.  A fresh process per job keeps every
``prove`` verdict cold, exactly as a CLI invocation is, and lets every
``certify`` and ``tables`` pass repeat the same inputs without meeting an
earlier pass's caches, whatever caches the package keeps.  The input
generators live here too, so that run.py can record the input mix without
importing the package.

Outputs are checked after each timed interval, by code that shares nothing
with the package (``check_parts``) or, for refutations, with ``Nfa.accepts``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import time
from contextlib import nullcontext, redirect_stdout
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer  # noqa: E402

VERIFY_TARGETS = (
    "odd-squares",
    "even-squares",
    "square-power-odd",
    "square-power-even",
    "generalized-odd",
    "generalized-even",
)
# case -> (family, checker parity, checker's shortest source length)
REFUTATIONS = {
    "refute-a-odd-11": ("a-odd", "odd", 11),
    "refute-a-even-16": ("a-even", "even", 16),
}
MODES = ("squares4", "square-power", "generalized")
CERTIFY_BITS = (64, 65, 300, 301, 1000, 1001, 4000, 4001)
# Request rounds per certify process.  Building the family runtimes takes
# about as long as one round, so three rounds a process give a run about half
# again as many timings of each request as one round a process did.
CERTIFY_ROUNDS = 3
# one warm-up value per parity builds every family runtime in all three modes
WARMUP_VALUES = ((1 << 64) - 1, (1 << 65) - 1)
SMALL_LOW, SMALL_HIGH = 687, 1 << 17  # squares4 answers from the tables here
SMALL_VALUES = 200
SWEEP_BOUND = 1 << 17
COUNTS_2_17 = [256, 19542, 95422, 131016]
# `density --bound 2**18`: pointwise and window-minimum ratios as [num, den],
# the same as a direct count over all pairs of binary squares gives
DENSITY_2_18 = [[31259, 131072], [20616, 141551]]


class Config:
    """Sizes of one benchmark configuration: full, or the smoke test's."""

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        self.targets = ("generalized-odd",) if smoke else VERIFY_TARGETS
        self.refutations = ("refute-a-odd-11",) if smoke else tuple(REFUTATIONS)
        self.certify_bits = (64, 65) if smoke else CERTIFY_BITS
        self.density_bound = (1 << 12) if smoke else (1 << 18)
        self.small_values = 10 if smoke else SMALL_VALUES


# -- seeded inputs -------------------------------------------------------------


def prove_order(seed: int, config: Config):
    """Endless seeded job orders, one per prove pass: the verify targets and
    the refutations."""
    rng = random.Random(f"prove:{seed}")
    jobs = list(config.targets) + list(config.refutations)
    while True:
        rng.shuffle(jobs)
        yield list(jobs)


def certify_requests(seed: int, config: Config, draw: int = 0) -> list[tuple[str, int]]:
    """(mode, value) requests of one certify round, in a seeded order: one
    value of each bit length, in every mode.

    Draw 0 is the seed's fixed set, whose ``states_visited`` counts are
    baselines; every other draw gives fresh values.  At a given bit length
    and mode the work hardly depends on the value (``states_visited`` moves
    by about 1 %), so a request is timed by its (mode, bit length) class.
    """
    rng = random.Random(f"certify:{seed}" if draw == 0 else f"certify:{seed}:{draw}")
    values = [rng.getrandbits(bits - 1) | 1 << (bits - 1) for bits in config.certify_bits]
    requests = [(mode, v) for v in values for mode in MODES]
    rng.shuffle(requests)
    return requests


def small_values(seed: int, count: int) -> list[int]:
    """Seeded squares4 targets in (686, 2**17): one from each of ``count``
    equal slices of the range, in a seeded order.

    Latency grows steeply with the value, so an even cover keeps the latency
    percentiles from depending on which values a seed happens to draw.
    """
    rng = random.Random(f"tables:{seed}")
    width = (SMALL_HIGH - SMALL_LOW) / count
    values = [SMALL_LOW + int(width * k + rng.random() * width) for k in range(count)]
    rng.shuffle(values)
    return values


def digest(values) -> str:
    text = ",".join(str(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- independent output checks -------------------------------------------------


def is_square(v: int) -> bool:
    """0, or a canonical binary word of the form xx."""
    if v == 0:
        return True
    n = v.bit_length()
    return n % 2 == 0 and v >> n // 2 == v & ((1 << n // 2) - 1)


def is_generalized_square(v: int) -> bool:
    """v = a(2**p + 1) with 0 <= a < 2**p for some p."""
    if v == 0:
        return True
    n = v.bit_length()
    return any(v >> p == v & ((1 << p) - 1) for p in range(max(1, (n + 1) // 2), n))


def is_power(v: int) -> bool:
    return v > 0 and v & (v - 1) == 0


def check_parts(mode: str, target: int, parts) -> str | None:
    """Why a decomposition is wrong, or None when it is right."""
    if sum(v for v, _ in parts) != target:
        return "parts do not sum to the target"
    roles = [role for _, role in parts]
    if mode == "squares4":
        shape = len(parts) == 4 and set(roles) <= {"BinarySquare"}
    elif mode == "square-power":
        shape = (
            roles.count("BinarySquare") <= 2
            and roles.count("PowerOfTwo") <= 2
            and set(roles) <= {"BinarySquare", "PowerOfTwo"}
        )
    else:
        shape = len(parts) == 3 and set(roles) <= {"GeneralizedBinarySquare"}
    if not shape:
        return f"wrong shape {roles}"
    predicate = {
        "BinarySquare": is_square,
        "GeneralizedBinarySquare": is_generalized_square,
        "PowerOfTwo": is_power,
    }
    for v, role in parts:
        if not predicate[role](v):
            return f"part fails its {role} predicate"
    return None


# -- jobs ----------------------------------------------------------------------


def _span(tracer: Tracer | None, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer else nullcontext({})


def _tracer(spec: dict, request: str) -> Tracer | None:
    """A tracer with its patch points installed, when the spec asks for one."""
    if not spec["trace"]:
        return None
    tracer = Tracer()
    tracer.install()
    tracer.request = request
    return tracer


def _spans(tracer: Tracer | None) -> list[dict]:
    return tracer.spans if tracer else []


def _cli(main, argv: list[str]) -> tuple[int, list[dict]]:
    """Run the CLI in-process, returning its exit code and JSON records."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def job_verify(spec: dict, started: float) -> dict:
    from binsquares import cli

    setup_s = time.perf_counter() - started
    tracer = _tracer(spec, spec["target"])
    with _span(tracer, "cli.verify", target=spec["target"]):
        code, records = _cli(cli.main, ["--json", "verify", spec["target"]])
    return {
        "setup_s": setup_s,
        "exit": code,
        "record": records[0] if records else None,
        "spans": _spans(tracer),
    }


def job_refute(spec: dict, started: float) -> dict:
    from binsquares.automata import includes
    from binsquares.folding import render_word, syntax_checker, unfold
    from binsquares.lemma_machines import family_union

    setup_s = time.perf_counter() - started
    family, parity, length = REFUTATIONS[spec["case"]]
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.request = spec["case"]
    with _span(tracer, "prove.refute", case=spec["case"]):
        container = family_union(family)
        with _span(tracer, "folding.syntax_checker"):
            checker = syntax_checker(parity, length)
        with _span(tracer, "automata.includes") as attrs:
            result = includes(container, checker)
            attrs["explored"] = result.explored
    word = result.counterexample
    return {
        "setup_s": setup_s,
        "holds": result.holds,
        "explored": result.explored,
        "value": unfold(word) if word else None,
        "word": render_word(word) if word else None,
        # the word must separate the two languages
        "word_ok": bool(word) and checker.accepts(word) and not container.accepts(word),
        "spans": _spans(tracer),
    }


def _warm_certify() -> dict[str, float]:
    """Build every family runtime; returns seconds per family."""
    from binsquares.witness import decompose, decompose_generalized, decompose_square_power

    runtime_s = {}
    for value in WARMUP_VALUES:
        parity = "odd" if value.bit_length() % 2 else "even"
        for family, fn in (
            ("a-" + parity, decompose),
            ("square-power-" + parity, decompose_square_power),
            ("generalized-" + parity, decompose_generalized),
        ):
            t = time.perf_counter()
            fn(value)
            runtime_s[family] = time.perf_counter() - t
    return runtime_s


def _setup_tables() -> None:
    """Import and warm up, the same in every tables job."""
    from binsquares import cli  # noqa: F401
    from binsquares.oracle import four_squares_counts
    from binsquares.witness import decompose

    decompose(SMALL_LOW)
    four_squares_counts(1 << 10)


def job_certify(spec: dict, started: float) -> dict:
    """One pass: build the family runtimes, then ``CERTIFY_ROUNDS`` rounds.

    The first round is the seed's fixed set (draw 0), and every pass runs in
    a fresh process, so that set never meets a cache an earlier pass filled.
    Each later round draws values that no other round of the run uses.
    """
    from binsquares.witness import decompose, decompose_generalized, decompose_square_power

    runtime_s = _warm_certify()
    setup_s = time.perf_counter() - started
    fns = {
        "squares4": decompose,
        "square-power": decompose_square_power,
        "generalized": decompose_generalized,
    }
    tracer = _tracer(spec, "")
    config = Config(spec["smoke"])
    latencies, states, failures = [], [], []
    for r in range(CERTIFY_ROUNDS):
        draw = 0 if r == 0 else spec["pass"] * CERTIFY_ROUNDS + r
        for i, (mode, value) in enumerate(certify_requests(spec["seed"], config, draw)):
            key = f"{mode}/{value.bit_length()}"
            if tracer:
                tracer.request = f"{r}:{i}"
            t = time.perf_counter()
            try:
                with _span(tracer, "witness.decompose", mode=mode) as attrs:
                    dec = fns[mode](value)
                    attrs["states_visited"] = dec.states_visited
            except Exception as exc:  # a failed request is counted, not fatal
                latencies.append((key, time.perf_counter() - t))
                if draw == 0:
                    states.append(None)
                failures.append(f"{key}: {exc!r}")
                continue
            latencies.append((key, time.perf_counter() - t))
            if draw == 0:
                states.append(dec.states_visited)
            why = check_parts(mode, value, dec.parts)  # outside the timed interval
            if why:
                failures.append(f"{key}: {why}")
    return {
        "setup_s": setup_s,
        "runtime_s": runtime_s,
        "latencies": latencies,
        "states": states,
        "failures": failures,
        "spans": _spans(tracer),
    }


def job_small(spec: dict, started: float) -> dict:
    """The seed's small values through table-backed squares4 decompose.

    Every tables pass runs this job in a fresh process, so no pass answers
    a value from a cache an earlier pass filled.
    """
    from binsquares.witness import decompose

    _setup_tables()
    setup_s = time.perf_counter() - started
    tracer = _tracer(spec, "")
    values = small_values(spec["seed"], Config(spec["smoke"]).small_values)
    latencies, failures = [], []
    for i, v in enumerate(values):
        if tracer:
            tracer.request = str(i)
        t = time.perf_counter()
        try:
            with _span(tracer, "witness.decompose", mode="squares4") as attrs:
                dec = decompose(v)
                attrs["states_visited"] = dec.states_visited
        except Exception as exc:  # a failed request is counted, not fatal
            latencies.append(time.perf_counter() - t)
            failures.append(f"small {v}: {exc!r}")
            continue
        latencies.append(time.perf_counter() - t)
        why = check_parts("squares4", v, dec.parts)  # outside the timed interval
        if why:
            failures.append(f"small {v}: {why}")
    return {
        "setup_s": setup_s,
        "latencies": latencies,
        "failures": failures,
        "spans": _spans(tracer),
    }


def job_sweeps(spec: dict, started: float) -> dict:
    """The sweeps below 2**17, checked against the golden lists."""
    from binsquares import cli
    from binsquares.oracle import density_floor_holds, sumset_uniqueness

    _setup_tables()
    setup_s = time.perf_counter() - started
    sweep = str(SWEEP_BOUND)
    tracer = _tracer(spec, "")
    outputs: dict = {}

    def call(name, span, fn, *args):
        if tracer:
            tracer.request = name
        with _span(tracer, span):
            outputs[name] = fn(*args)

    t = time.perf_counter()
    call("exceptions", "tables.exceptions", _cli, cli.main, ["--json", "exceptions", "--bound", sweep])
    call(
        "exact_four_positive",
        "tables.exceptions",
        _cli,
        cli.main,
        ["--json", "exceptions", "--exact-four-positive", "--bound", sweep],
    )
    call("counts", "tables.counts", _cli, cli.main, ["--json", "counts", "--bound", sweep])
    call("floor", "oracle.density_floor_holds", density_floor_holds, 14, SWEEP_BOUND, Fraction(1, 40))
    call("uniqueness", "oracle.sumset_uniqueness", lambda: [sumset_uniqueness(n) for n in range(1, 11)])
    sweep_s = time.perf_counter() - t

    failures = []
    for name, path in spec["golden"].items():
        want = [int(line) for line in Path(path).read_text().split()]
        code, records = outputs[name]
        if code != 0 or [r["value"] for r in records] != want:
            failures.append(f"{name} differs from the golden list")
    code, records = outputs["counts"]
    if code != 0 or records[0]["counts"] != COUNTS_2_17:
        failures.append("counts differ from the known values")
    if outputs["floor"] is not True:
        failures.append("density floor 1/40 does not hold on [14, 2**17)")
    if outputs["uniqueness"] != [1 << (2 * n - 1) for n in range(1, 11)]:
        failures.append("cross-length square sums are not all distinct")
    return {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "operations": 5,  # two exceptions lists, counts, floor, uniqueness
        "failures": failures,
        "spans": _spans(tracer),
    }


def job_density(spec: dict, started: float) -> dict:
    """``density`` as the CLI runs it; run.py checks the ratios."""
    from binsquares import cli

    _setup_tables()
    setup_s = time.perf_counter() - started
    tracer = _tracer(spec, "density")
    t = time.perf_counter()
    with _span(tracer, "tables.density"):
        code, records = _cli(cli.main, ["--json", "density", "--bound", str(Config(spec["smoke"]).density_bound)])
    density_s = time.perf_counter() - t
    density = records[0] if code == 0 and records else {}
    return {
        "setup_s": setup_s,
        "density_s": density_s,
        "density": [density.get("pointwise"), density.get("window_min")],
        "spans": _spans(tracer),
    }


JOBS = {
    "verify": job_verify,
    "refute": job_refute,
    "certify": job_certify,
    "small": job_small,
    "sweeps": job_sweeps,
    "density": job_density,
}


def main() -> int:
    started = time.perf_counter()
    spec = json.loads(sys.stdin.read())
    result = JOBS[spec["job"]](spec, started)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
