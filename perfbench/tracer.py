"""Span recorder installed inside a traced child process.

``install()`` replaces the public functions each leetoric module calls with
wrappers that record a span per call: name, parent span, start and end (ns).
Every module that imported a wrapped function by name gets the wrapper too,
so calls between modules are seen.  Spans stay in memory; ``dump()`` writes
them as one line on standard error when the process ends, after the
program's own output.

Hot leaf functions (the per-cell support builders and warm decodes) are
aggregated into a count and a total per parent instead of one span each.
The first ``decode_nearest`` call per code object is a span of its own,
because it builds the decode table.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

MARKER = "PERFBENCH_SPANS "

# (module, function, kind): "span" records each call, "leaf" aggregates,
# "mem" is a span that also records the rise in peak RSS during the call.
TARGETS = (
    ("cli", "run_cli", "span"),
    ("instances", "certified_code", "span"),
    ("lattices", "verify_chain", "span"),
    ("lattices", "coset_count", "span"),
    ("lee", "enumerate_codewords", "span"),
    ("lee", "tiling_check", "span"),
    ("lee", "minimum_distance", "span"),
    ("lee", "decode_nearest", "decode"),
    ("toric", "commutation_check", "mem"),
    ("toric", "star_support", "leaf"),
    ("toric", "boundary_support", "leaf"),
    ("interleave", "build_interleaver", "span"),
    ("interleave", "verify_burst_correction", "mem"),
    ("report", "make_certificate", "span"),
    ("report", "emit_tables", "span"),
)

_ns = time.perf_counter_ns
_PAGE = os.sysconf("SC_PAGE_SIZE")

_spans: list = []  # [name, parent, start_ns, end_ns, peak_rise_bytes]
_leaves: dict = {}  # (name, parent) -> [calls, total_ns]
_stack: list = []
_decoded: set = set()


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


def _peak_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _span(name: str, fn, mem: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(_spans)
        rec = [name, _stack[-1] if _stack else -1, 0, 0, None]
        _spans.append(rec)
        _stack.append(idx)
        if mem:
            before = _rss_bytes()
        rec[2] = _ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = _ns()
            _stack.pop()
            if mem:
                rec[4] = max(0, _peak_bytes() - before)
    return wrapper


def _leaf(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = _ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _ns() - t0
            slot = _leaves.setdefault((name, _stack[-1] if _stack else -1), [0, 0])
            slot[0] += 1
            slot[1] += dt
    return wrapper


def _decode(name: str, fn):
    first = _span(name + ".first", fn, False)
    warm = _leaf(name + ".warm", fn)

    @functools.wraps(fn)
    def wrapper(point, code):
        if id(code) in _decoded:
            return warm(point, code)
        _decoded.add(id(code))
        return first(point, code)
    return wrapper


def install() -> None:
    """Wrap every target in every loaded leetoric module that refers to it."""
    modules = [m for k, m in list(sys.modules.items()) if k == "leetoric" or k.startswith("leetoric.")]
    for mod_name, fn_name, kind in TARGETS:
        home = sys.modules.get("leetoric." + mod_name)
        original = getattr(home, fn_name, None)
        if original is None:
            continue
        name = f"{mod_name}.{fn_name}"
        if kind == "leaf":
            wrapped = _leaf(name, original)
        elif kind == "decode":
            wrapped = _decode(name, original)
        else:
            wrapped = _span(name, original, kind == "mem")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def dump() -> None:
    """Write the recorded spans and leaf totals as one stderr line."""
    sys.stdout.flush()
    record = {
        "spans": _spans,
        "leaves": [[name, parent, calls, total] for (name, parent), (calls, total) in _leaves.items()],
    }
    sys.stderr.write(MARKER + json.dumps(record) + "\n")
    sys.stderr.flush()
