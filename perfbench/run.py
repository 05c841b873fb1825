"""End-to-end and per-layer benchmark of the leetoric certificate tool.

    python3 perfbench/run.py --workload cert-9-4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Every command runs as a fresh process against this checkout's ``src/``: the
CLI as ``python -c`` calling ``leetoric.cli.main()``, with ``PYTHONPATH`` set
to ``src/`` and a check in the child that ``leetoric`` was imported from
there.  One client runs one command at a time (closed loop).  BLAS threads
are pinned (``THREADS``) and recorded with the rest of the environment.

Workloads (inputs derived from ``--seed``):

* ``cert-7-3`` and ``cert-9-4``: a fixed list of CLI certificate commands,
  run as one pass; passes repeat until ``--seconds`` is used up.  Set-up is a
  fresh ``import leetoric``, which every command pays, timed
  ``SETUP_REPEATS`` times.
* ``decode-stream``: fresh processes of ``stream.py``, each decoding the same
  seeded stream of ``STREAM_POINTS`` points, half (7,3) and half (9,4), with
  coordinates drawn from [-2q, 2q].  Set-up is import, ``certified_code`` for
  both instances and the first decode of each.

Every measured process is followed by a fixed host-speed probe process,
and its times are scaled to the probe's reference speed (``PROBE_CODE``).
The summary prints the raw pass time and the host speed next to them.

End-to-end metrics (``--trace 0``), each the median over the run:

* ``setup_s``: set-up time as above.
* ``wall_s``: one pass (cert) or one stream process, spawn to exit (decode).
  For a pass it is the sum over its commands of each one's median time.
* ``ops_per_s``: work completed per second.  On ``cert-*`` it is
  certificates per second of pass time (commands per pass / ``wall_s``); on
  ``decode-stream`` it is warm decodes per second after set-up.
* ``peak_rss_mb``: the largest peak RSS of any one process, from its own
  ``os.wait4`` rusage (not scaled).

Every output is checked after the timed region (``checks.py``).  Each
process is one outcome, and each decode of a stream is one outcome;
``failed`` / ``attempted`` in the result line is the failed ratio and its
base.  The summary also prints the per-command times ``short_cmds_s``,
``stabilizers_s`` and ``burst_s`` of the cert workloads.

``--trace 1`` prints the per-layer metrics instead: interpreter start-up and
``python -X importtime`` figures, then untraced and traced passes in turn
(``cmd.*`` are the untraced per-command-group times).
Traced children wrap the public functions of each module (``tracer.py``);
self time is a span minus its wrapped children.  Layer figures are summed
over the processes of one traced pass, then the median over traced passes
is taken; ``trace.overhead_s`` is traced minus untraced ``wall_s``.  A layer
a workload never calls reads 0.

The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable, Optional

import checks
import stream
from tracer import MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

THREADS = "1"
SETUP_REPEATS = 5
STREAM_POINTS = 100_000
CHILD_TIMEOUT_S = 150

# The host's speed drifts by up to 1.7x within seconds to minutes, and
# interpreter-bound work (start-up, imports, Python loops: most of this
# program's time) slows with it.  So each measured process is followed by a
# fixed pure-Python probe process, and its times are scaled by
# PROBE_NOMINAL_S / probe time: they read as seconds on a host where the
# probe takes PROBE_NOMINAL_S (about its median on a 2-core 2.0 GHz Xeon VM).
# numpy kernels slow less than the probe, so the burst sweeps keep more spread.
PROBE_CODE = "t = 0\nfor i in range(1_000_000):\n    t += i * i % 7\n"
PROBE_NOMINAL_S = 0.18

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Figures printed in the summary but not reported to the result line.
EXTRA_UNITS = {
    "short_cmds_s": "s",
    "stabilizers_s": "s",
    "burst_s": "s",
    "decode_per_s": "1/s",
    "raw_wall_s": "s",
    "host_speed": "x",
}

PER_LAYER = {
    "process.startup_s": "s",
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "cmd.short_cmds_s": "s",
    "cmd.stabilizers_s": "s",
    "cmd.burst_s": "s",
    "trace.overhead_s": "s",
    "cli.run_cli_s": "s",
    "cli.self_s": "s",
    "lattices.verify_chain_s": "s",
    "lattices.coset_count_s": "s",
    "instances.certified_code_s": "s",
    "instances.certified_code_calls": "count",
    "lee.enumerate_codewords_s": "s",
    "lee.tiling_check_s": "s",
    "lee.tiling_check_calls": "count",
    "lee.minimum_distance_s": "s",
    "lee.decode_first_s": "s",
    "lee.decode_warm_us": "us",
    "lee.decode_calls": "count",
    "toric.commutation_check_s": "s",
    "toric.star_support_calls": "count",
    "toric.boundary_support_calls": "count",
    "toric.support_calls_s": "s",
    "toric.self_s": "s",
    "toric.peak_mb": "MB",
    "interleave.build_interleaver_s": "s",
    "interleave.sweep_self_s": "s",
    "interleave.patterns_checked": "count",
    "interleave.sweep_patterns_per_s": "1/s",
    "interleave.peak_mb": "MB",
    "report.make_certificate_s": "s",
    "report.emit_tables_s": "s",
    "report.certificate_bytes": "bytes",
}

_PRELUDE = (
    "import os, sys\n"
    "import leetoric\n"
    "src = os.environ['PERFBENCH_SRC']\n"
    "if os.path.realpath(leetoric.__file__) != os.path.join(src, 'leetoric', '__init__.py'):\n"
    "    sys.stderr.write('leetoric imported from %s, not %s\\n' % (leetoric.__file__, src))\n"
    "    raise SystemExit(3)\n"
)
IMPORT_CODE = _PRELUDE
CLI_CODE = _PRELUDE + "import leetoric.cli\nleetoric.cli.main()\n"
TRACED_CLI_CODE = _PRELUDE + (
    "import leetoric.cli\n"
    "sys.path.insert(0, os.environ['PERFBENCH_DIR'])\n"
    "import tracer\n"
    "tracer.install()\n"
    "try:\n"
    "    leetoric.cli.main()\n"
    "finally:\n"
    "    tracer.dump()\n"
)


# ---------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PERFBENCH_SRC=str(SRC),
        PERFBENCH_DIR=str(BENCH),
        OPENBLAS_NUM_THREADS=THREADS,
        OMP_NUM_THREADS=THREADS,
        MKL_NUM_THREADS=THREADS,
        PYTHONHASHSEED="0",
    )
    return env


@dataclass
class Proc:
    returncode: int
    stdout: bytes
    stderr: bytes
    t0: float  # CLOCK_MONOTONIC just before spawn
    wall_s: float
    peak_rss_mb: float
    scale: float = 1.0  # PROBE_NOMINAL_S / the probe's time just after this run

    @property
    def norm_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s * self.scale


def run_proc(argv: list, env: dict, stdin: bytes = b"") -> Proc:
    """Run one child to completion; its rusage comes from its own wait4."""
    err: list = []
    t0 = time.monotonic()
    p = subprocess.Popen(
        argv, env=env, cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    drain = threading.Thread(target=lambda: err.append(p.stderr.read()))
    try:
        watchdog.start()
        drain.start()
        try:
            p.stdin.write(stdin)
            p.stdin.close()
        except BrokenPipeError:
            pass
        out = p.stdout.read()
        drain.join()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.monotonic() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if p.returncode is None:
            p.kill()
            p.wait()
        for f in (p.stdin, p.stdout, p.stderr):
            f.close()
    return Proc(p.returncode, out, err[0] if err else b"", t0, wall, usage.ru_maxrss / 1024)


def python(*args: str) -> list:
    return [sys.executable, *args]


def run_probed(argv: list, env: dict, stdin: bytes = b"") -> Proc:
    """Run the child, then the host-speed probe, and scale the child by it.

    The probe runs after the child because a stream's decoding, its longest
    timed part, comes at the end of the process.
    """
    proc = run_proc(argv, env, stdin)
    probe = run_proc(python("-c", PROBE_CODE), env)
    if probe.returncode != 0:
        raise RuntimeError("host-speed probe failed")
    proc.scale = PROBE_NOMINAL_S / probe.wall_s
    return proc


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Command:
    args: tuple
    group: str  # "short", "stabilizers" or "burst"
    check: Callable = field(compare=False)

    @property
    def name(self) -> str:
        return " ".join(self.args)


def _load_report():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import leetoric.report as report

    if not Path(report.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"leetoric imported from {report.__file__}, not {SRC}")
    return report


def cert_commands(q: int, seed: int) -> list:
    n = checks.dimension(q)
    rng = random.Random(seed)
    point = tuple(rng.randint(-2 * q, 2 * q) for _ in range(n))
    qs, ns = str(q), str(n)
    cmds = [
        Command(("verify", "chain", "--q", qs), "short", checks.chain(q)),
        Command(("verify", "tiling", "--q", qs, "--n", ns), "short", checks.tiling(q, n)),
    ]
    if q == 7:
        cmds.append(Command(
            ("verify", "tiling", "--q", qs, "--n", ns, "--generators", checks.FAILING_GENERATORS),
            "short", checks.tiling_fails(),
        ))
    cmds += [
        Command(("mindist", "--q", qs, "--n", ns), "short", checks.mindist(q, n)),
        Command(
            ("decode", "--q", qs, "--n", ns, "--point=" + ",".join(map(str, point))),
            "short", checks.decode(q, point),
        ),
        Command(("verify", "stabilizers", "--q", qs, "--n", ns), "stabilizers", checks.stabilizers()),
    ]
    if q == 7:
        cmds.append(Command(
            ("interleave", "verify", "--q", qs, "--n", ns, "--exhaustive"),
            "burst", checks.burst(q, n, None),
        ))
        cmds += [
            Command(("tables", "--format", fmt), "short", checks.tables(fmt, _load_report))
            for fmt in ("markdown", "csv", "json-lines")
        ]
    else:
        sweep_seed = rng.randrange(2**32)
        cmds.append(Command(
            ("interleave", "verify", "--q", qs, "--n", ns,
             "--samples", str(checks.SAMPLES), "--seed", str(sweep_seed)),
            "burst", checks.burst(q, n, sweep_seed),
        ))
    return cmds


def stream_points(seed: int) -> list:
    rng = random.Random(seed)
    qs = [7, 9] * (STREAM_POINTS // 2)
    rng.shuffle(qs)
    return [(q, tuple(rng.randint(-2 * q, 2 * q) for _ in range(checks.dimension(q)))) for q in qs]


# ---------------------------------------------------------------- outcomes


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, what: str, problems: list, outcomes: int = 1, failed: Optional[int] = None) -> None:
        self.attempted += outcomes
        self.failed += (1 if problems else 0) if failed is None else failed
        self.problems += [f"{what}: {p}" for p in problems]


def check_import(tally: Tally, proc: Proc) -> None:
    problems = [] if proc.returncode == 0 and not proc.stdout else [
        f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-300:]}"
    ]
    tally.add("import leetoric", problems)


def check_command(tally: Tally, cmd: Command, proc: Proc) -> None:
    problems = cmd.check(proc.returncode, proc.stdout)
    if problems and proc.stderr:
        problems.append("stderr: " + proc.stderr.decode(errors="replace").strip()[-300:])
    tally.add(cmd.name, problems)


class StreamChecker:
    """Checks stream outputs; an output identical to a checked one reuses its verdict."""

    def __init__(self, points: list):
        self.points = points
        self.verdicts: dict = {}

    def check(self, tally: Tally, proc: Proc) -> Optional[dict]:
        header, _, payload = proc.stdout.partition(b"\n")
        n = len(self.points)
        try:
            head = json.loads(header)
        except ValueError:
            head = None
        if proc.returncode != 0 or not isinstance(head, dict):
            err = proc.stderr.decode(errors="replace").strip()[-300:]
            tally.add("decode stream", [f"exit {proc.returncode}: {err}"], n, n)
            return None
        if payload not in self.verdicts:
            try:
                results = stream.decode_results(payload, self.points)
            except (ValueError, IndexError):
                self.verdicts[payload] = (n, ["result payload does not match the points"])
            else:
                problems = []
                for (q, p), (cw, label) in zip(self.points, results):
                    bad = checks.decode_problem(q, p, cw, label)
                    if bad:
                        problems.append(bad)
                self.verdicts[payload] = (len(problems), problems[:5])
        bad, problems = self.verdicts[payload]
        tally.add("decode stream", problems, n, bad)
        return head


# ---------------------------------------------------------------- measuring


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def repeat(seconds: float, body: Callable) -> list:
    """Call body() once, then again while a typical call still fits in seconds."""
    out, took, t_start = [], [], time.monotonic()
    while not out or time.monotonic() - t_start + median(took) <= seconds:
        t0 = time.monotonic()
        out.append(body())
        took.append(time.monotonic() - t0)
    return out


def cli_argv(cmd: Command, traced: bool) -> list:
    return python("-c", TRACED_CLI_CODE if traced else CLI_CODE, *cmd.args)


def stream_argv(traced: bool) -> list:
    return python(str(BENCH / "stream.py"), *(["--trace"] if traced else []))


@dataclass
class Pass:
    procs: list  # (Command or None, Proc)

    @property
    def raw_s(self) -> float:
        return sum(p.wall_s for _, p in self.procs)


def run_cert_pass(cmds: list, env: dict, traced: bool) -> Pass:
    return Pass([(cmd, run_probed(cli_argv(cmd, traced), env)) for cmd in cmds])


def run_stream_pass(payload: bytes, env: dict, traced: bool) -> Pass:
    return Pass([(None, run_probed(stream_argv(traced), env, payload))])


def stream_figures(proc: Proc, head: dict, decodes: int) -> tuple:
    """Set-up seconds and warm decodes per second, at the reference speed."""
    setup = head["t_setup"] - proc.t0 - head["parse_s"]
    return setup * proc.scale, decodes / head["decode_s"] / proc.scale


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced run: returns (metrics, extras, tally)."""
    env = child_env()
    tally = Tally()
    run_proc(python("-c", IMPORT_CODE), env)  # warm the bytecode and file caches
    if workload == "decode-stream":
        points = stream_points(seed)
        payload = stream.encode_points(points)
        checker = StreamChecker(points)
        passes = repeat(seconds, lambda: run_stream_pass(payload, env, False))
        procs = [ps.procs[0][1] for ps in passes]
        setups, rates = [], []
        for proc in procs:
            head = checker.check(tally, proc)
            if head is not None:
                s, r = stream_figures(proc, head, len(points))
                setups.append(s)
                rates.append(r)
        metrics = {
            "setup_s": median(setups),
            "wall_s": typical_pass(passes),
            "ops_per_s": median(rates),
            "peak_rss_mb": max(p.peak_rss_mb for p in procs),
        }
        extras = {
            "decode_per_s": metrics["ops_per_s"],
            "processes": len(passes),
            "points_per_process": len(points),
        }
    else:
        cmds = cert_commands(7 if workload == "cert-7-3" else 9, seed)
        run_proc(cli_argv(cmds[0], False), env)  # warm the CLI's bytecode
        setups = [run_probed(python("-c", IMPORT_CODE), env) for _ in range(SETUP_REPEATS)]
        passes = repeat(seconds, lambda: run_cert_pass(cmds, env, False))
        for proc in setups:
            check_import(tally, proc)
        for ps in passes:
            for cmd, proc in ps.procs:
                check_command(tally, cmd, proc)
        procs = setups + [proc for ps in passes for _, proc in ps.procs]
        wall = typical_pass(passes)
        metrics = {
            "setup_s": median([p.norm_s for p in setups]),
            "wall_s": wall,
            "ops_per_s": len(cmds) / wall,
            "peak_rss_mb": max(p.peak_rss_mb for p in procs),
        }
        extras = {
            **group_times(passes),
            "passes": len(passes),
            "commands_per_pass": len(cmds),
        }
    extras["raw_wall_s"] = median([p.raw_s for p in passes])
    extras["host_speed"] = median([p.scale for p in procs])
    return metrics, extras, tally


def typical_pass(passes: list, group: Optional[str] = None) -> float:
    """Wall time of a typical pass: the sum over its commands of each one's
    median over the passes, for the commands of one group or all of them."""
    return sum(
        median([ps.procs[i][1].norm_s for ps in passes])
        for i, (cmd, _) in enumerate(passes[0].procs)
        if group is None or (cmd is not None and cmd.group == group)
    )


def group_times(passes: list) -> dict:
    return {
        "short_cmds_s": typical_pass(passes, "short"),
        "stabilizers_s": typical_pass(passes, "stabilizers"),
        "burst_s": typical_pass(passes, "burst"),
    }


# ---------------------------------------------------------------- tracing


def importtime(env: dict) -> dict:
    proc = run_probed(python("-X", "importtime", "-c", IMPORT_CODE), env)
    self_us, total_us = Counter(), 0
    for line in proc.stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        top = name.split(".")[0]
        self_us[top] += own
        if name == "leetoric":
            total_us = cumulative
    return {
        "import.total_s": total_us / 1e6 * proc.scale,
        "import.numpy_s": self_us["numpy"] / 1e6 * proc.scale,
        "import.scipy_s": self_us["scipy"] / 1e6 * proc.scale,
    }


def span_record(proc: Proc) -> Optional[dict]:
    for line in reversed(proc.stderr.decode(errors="replace").splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return None


@dataclass
class SpanTotals:
    total_ns: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    peak_bytes: Counter = field(default_factory=Counter)

    def add(self, record: dict, scale: float) -> None:
        """Add one process's spans, its times scaled to the reference speed."""
        spans, leaves = record["spans"], record["leaves"]
        child_ns = [0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for name, parent, calls, total in leaves:
            if parent >= 0:
                child_ns[parent] += total
            self.total_ns[name] += total * scale
            self.self_ns[name] += total * scale
            self.calls[name] += calls
        for i, (name, parent, start, end, rise) in enumerate(spans):
            self.total_ns[name] += (end - start) * scale
            self.self_ns[name] += (end - start - child_ns[i]) * scale
            self.calls[name] += 1
            if rise is not None:
                self.peak_bytes[name] = max(self.peak_bytes[name], rise)


def layer_metrics(ps: Pass) -> tuple:
    """Per-layer figures of one traced pass, summed over its processes."""
    t = SpanTotals()
    patterns = cert_bytes = 0
    for cmd, proc in ps.procs:
        record = span_record(proc)
        if record is not None:
            t.add(record, proc.scale)
        if cmd is not None and cmd.args[0] != "tables":
            cert_bytes += len(proc.stdout)
        if cmd is not None and cmd.group == "burst":
            try:
                patterns += json.loads(proc.stdout)["counts"]["patterns_checked"]
            except (ValueError, KeyError, TypeError):
                pass
    s = lambda name: t.total_ns[name] / 1e9  # noqa: E731
    own = lambda name: t.self_ns[name] / 1e9  # noqa: E731
    warm = "lee.decode_nearest.warm"
    sweep_self = own("interleave.verify_burst_correction")
    m = {
        "cli.run_cli_s": s("cli.run_cli"),
        "cli.self_s": own("cli.run_cli"),
        "lattices.verify_chain_s": s("lattices.verify_chain"),
        "lattices.coset_count_s": s("lattices.coset_count"),
        "instances.certified_code_s": s("instances.certified_code"),
        "instances.certified_code_calls": t.calls["instances.certified_code"],
        "lee.enumerate_codewords_s": s("lee.enumerate_codewords"),
        "lee.tiling_check_s": s("lee.tiling_check"),
        "lee.tiling_check_calls": t.calls["lee.tiling_check"],
        "lee.minimum_distance_s": s("lee.minimum_distance"),
        "lee.decode_first_s": s("lee.decode_nearest.first"),
        "lee.decode_warm_us": t.total_ns[warm] / t.calls[warm] / 1e3 if t.calls[warm] else 0.0,
        "lee.decode_calls": t.calls["lee.decode_nearest.first"] + t.calls[warm],
        "toric.commutation_check_s": s("toric.commutation_check"),
        "toric.star_support_calls": t.calls["toric.star_support"],
        "toric.boundary_support_calls": t.calls["toric.boundary_support"],
        "toric.support_calls_s": s("toric.star_support") + s("toric.boundary_support"),
        "toric.self_s": own("toric.commutation_check"),
        "toric.peak_mb": t.peak_bytes["toric.commutation_check"] / 2**20,
        "interleave.build_interleaver_s": s("interleave.build_interleaver"),
        "interleave.sweep_self_s": sweep_self,
        "interleave.patterns_checked": patterns,
        "interleave.sweep_patterns_per_s": patterns / sweep_self if sweep_self else 0.0,
        "interleave.peak_mb": t.peak_bytes["interleave.verify_burst_correction"] / 2**20,
        "report.make_certificate_s": s("report.make_certificate"),
        "report.emit_tables_s": s("report.emit_tables"),
        "report.certificate_bytes": cert_bytes,
    }
    return m, t


def measure_traced(workload: str, seed: int, seconds: float) -> tuple:
    """Traced run: returns (metrics, extras, tally, span table)."""
    env = child_env()
    tally = Tally()
    run_proc(python("-c", IMPORT_CODE), env)  # warm the bytecode and file caches
    startup = [run_probed(python("-c", "pass"), env).norm_s for _ in range(SETUP_REPEATS)]
    imports = [importtime(env) for _ in range(3)]
    metrics = {"process.startup_s": median(startup)}
    for key in imports[0]:
        metrics[key] = median([d[key] for d in imports])

    if workload == "decode-stream":
        points = stream_points(seed)
        payload = stream.encode_points(points)
        checker = StreamChecker(points)
        run = lambda traced: run_stream_pass(payload, env, traced)  # noqa: E731
        check = lambda cmd, proc: checker.check(tally, proc)  # noqa: E731
    else:
        cmds = cert_commands(7 if workload == "cert-7-3" else 9, seed)
        run = lambda traced: run_cert_pass(cmds, env, traced)  # noqa: E731
        check = lambda cmd, proc: check_command(tally, cmd, proc)  # noqa: E731

    pairs = repeat(seconds, lambda: (run(False), run(True)))
    plain = [a for a, _ in pairs]
    traced = [b for _, b in pairs]
    for ps in plain + traced:
        for cmd, proc in ps.procs:
            check(cmd, proc)

    per_pass = [layer_metrics(ps) for ps in traced]
    for key in per_pass[0][0]:
        metrics[key] = median([m[key] for m, _ in per_pass])
    groups = group_times(plain)
    metrics["cmd.short_cmds_s"] = groups["short_cmds_s"]
    metrics["cmd.stabilizers_s"] = groups["stabilizers_s"]
    metrics["cmd.burst_s"] = groups["burst_s"]
    metrics["trace.overhead_s"] = typical_pass(traced) - typical_pass(plain)
    extras = {"untraced_passes": len(plain), "traced_passes": len(traced)}
    return metrics, extras, tally, per_pass[0][1]


# ---------------------------------------------------------------- reporting


def environment(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(THREADS),
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units.get(name, '')}")


def print_spans(t: SpanTotals) -> None:
    print("spans of the first traced pass (calls, total s, self s):")
    for name in sorted(t.total_ns):
        print(f"  {name:40s} {t.calls[name]:>9d} {t.total_ns[name] / 1e9:>10.4f} {t.self_ns[name] / 1e9:>10.4f}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        metrics, extras, tally, spans = measure_traced(workload, seed, seconds)
        print_spans(spans)
        units = PER_LAYER
        metrics = {k: metrics[k] for k in PER_LAYER}
        print_metrics(f"workload {workload}, traced", metrics, units)
    else:
        metrics, extras, tally = measure(workload, seed, seconds)
        units = END_TO_END
        print_metrics(f"workload {workload}", metrics, units)
    print_metrics("  more figures of this run", {k: v for k, v in extras.items() if k in EXTRA_UNITS}, EXTRA_UNITS)
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  failed_ratio {ratio:.6g} ({tally.failed} of {tally.attempted} outcomes)")
    print("  " + json.dumps({k: v for k, v in extras.items() if k not in EXTRA_UNITS}))
    for problem in tally.problems[:20]:
        print("  FAILED " + problem)
    print("env " + json.dumps(environment(seed)))
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


WORKLOADS = ("cert-7-3", "cert-9-4", "decode-stream")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "leetoric" / "__init__.py").is_file():
        print(f"error: no leetoric package under {SRC}", file=sys.stderr)
        return 2
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(w, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
