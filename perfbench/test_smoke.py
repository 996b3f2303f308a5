"""Schema check of the benchmark in its tiny configuration.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_output_matches_benchmark_json():
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert json.loads(done.stdout.splitlines()[-1]) == {"smoke": "ok", "problems": 0}


def test_refuses_to_run_outside_a_checkout(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "baselines.json").write_text((RUN.parent / "baselines.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text((RUN.parent.parent / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "prove", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
