"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` lists exactly the metrics and units ``run.py`` reports.
2. Doctored outputs are counted as failed outcomes: a burst certificate with
   ``failures: 1``, a decode certificate with a wrong label, a stream result
   with a wrong label and tables that do not round-trip.
3. Every workload runs once at minimal size (``--seconds 1``: one pass),
   untraced and traced, and reports correct results and every metric.
4. In a directory that holds only ``BENCHMARK.json`` and the benchmark's
   files, ``run.py`` exits non-zero and prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
import stream

FAILURES: list = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def cli(*args: str) -> run.Proc:
    return run.run_proc(run.python("-c", run.CLI_CODE, *args), run.child_env())


def tally_of(check, code: int, out: bytes) -> run.Tally:
    tally = run.Tally()
    tally.add("doctored", check(code, out))
    return tally


def benchmark_json_matches() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect(layers == run.PER_LAYER, "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names match")


def doctored_outputs_fail() -> None:
    proc = cli("interleave", "verify", "--q", "7", "--n", "3", "--exhaustive")
    check = checks.burst(7, 3, None)
    expect(tally_of(check, proc.returncode, proc.stdout).failed == 0, "real burst certificate passes")
    cert = json.loads(proc.stdout)
    cert["counts"]["failures"] = 1
    doctored = json.dumps(cert).encode()
    expect(tally_of(check, 0, doctored).failed == 1, "burst certificate with failures: 1 is counted")

    point = (15, -4, 8)
    proc = cli("decode", "--q", "7", "--n", "3", "--point=" + ",".join(map(str, point)))
    check = checks.decode(7, point)
    expect(tally_of(check, proc.returncode, proc.stdout).failed == 0, "real decode certificate passes")
    cert = json.loads(proc.stdout)
    label = (cert["counts"]["offset_index"] + 1) % 7
    cert["counts"]["offset_index"] = cert["counts"]["cross_section"] = label
    expect(tally_of(check, 0, json.dumps(cert).encode()).failed == 1, "decode with a wrong label is counted")

    points = [(7, (1, 2, 3)), (9, (-5, 17, 0, 4)), (7, (20, -20, 6)), (9, (0, 0, 0, 1))]
    proc = run.run_proc(run.stream_argv(False), run.child_env(), stream.encode_points(points))
    tally = run.Tally()
    head = run.StreamChecker(points).check(tally, proc)
    expect(head is not None and (tally.attempted, tally.failed) == (4, 0), "real decode stream passes")
    header, _, payload = proc.stdout.partition(b"\n")
    wrong = bytearray(payload)
    wrong[3] = (wrong[3] + 1) % 7  # the label of the first (7,3) point
    tally = run.Tally()
    run.StreamChecker(points).check(tally, run.Proc(0, header + b"\n" + bytes(wrong), b"", proc.t0, 0, 0))
    expect((tally.attempted, tally.failed) == (4, 1), "stream result with a wrong label is counted")

    proc = cli("tables", "--format", "csv")
    check = checks.tables("csv", run._load_report)
    expect(tally_of(check, proc.returncode, proc.stdout).failed == 0, "real csv tables pass")
    doctored = proc.stdout.replace(b"0.00292", b"0.00293", 1)
    expect(tally_of(check, 0, doctored).failed == 1, "tables that do not round-trip are counted")


def workloads_run() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"] for m in spec[key]}
        for w in run.WORKLOADS:
            argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", w,
                    "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                result = {}
            ok = (
                proc.returncode == 0
                and result.get("correct") is True
                and result.get("failed") == 0
                and result.get("attempted", 0) >= 1
                and set(result.get("metrics", {})) == names
            )
            expect(ok, f"{w} --trace {trace} runs, is correct and reports every metric")


def bare_directory_fails() -> None:
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=run.ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, tmp / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "cert-7-3",
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=tmp, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(tmp)


def main() -> int:
    benchmark_json_matches()
    doctored_outputs_fail()
    bare_directory_fails()
    workloads_run()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
