"""Expected outputs of the benchmark's commands, derived here, and the checks.

The expected values do not come from the program under test.  They follow
from the paper's parameters: each certified instance has q = 2n + 1, its
perfect radius-1 Lee code has q^n / (2n + 1) codewords and distance
2t + 1 = 3, the lattice chain has index q^n / det M = q^(n-1), and each
hypercube owns alpha = C(n, 2) qubit 2-cells, so a burst sweep checks
(alpha + 1)^(2n + 1) patterns per anchor when exhaustive and
ceil(samples / q^n) + alpha (the alpha extremal patterns) when sampled.
The codes themselves are the additive closures of the paper's generator
vectors, pinned below.

Every check returns a list of problems; an empty list means the output is
correct.  Certificate fields ``generated_at`` and ``version`` are ignored.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import ceil, comb
from typing import Callable, Optional, Sequence

Check = Callable[[int, bytes], list]

GENERATORS = {
    (7, 3): ((0, 1, 4), (1, 0, 2)),
    (9, 4): ((0, 0, 1, 6), (0, 1, 1, 1), (1, 0, 0, 2)),
}

# The README's forced-failure generator set: its spheres overlap.
FAILING_GENERATORS = "1,1,0;0,1,1"

DISTANCE = 3
SAMPLES = 1_000_000


def dimension(q: int) -> int:
    return (q - 1) // 2


def alpha(n: int) -> int:
    """Qubit cells owned per hypercube: the 2-cells, one per axis pair."""
    return comb(n, 2)


def lee_offsets(n: int) -> tuple:
    """Radius-1 sphere offsets in label order: 0, +e1, -e1, +e2, -e2, ..."""
    offs = [(0,) * n]
    for i in range(n):
        for s in (1, -1):
            offs.append(tuple(s if j == i else 0 for j in range(n)))
    return tuple(offs)


@lru_cache(maxsize=None)
def codewords(q: int, n: int) -> frozenset:
    """Additive closure mod q of the pinned generators."""
    gens = GENERATORS[(q, n)]
    seen = {(0,) * n}
    todo = [(0,) * n]
    while todo:
        p = todo.pop()
        for g in gens:
            s = tuple((a + b) % q for a, b in zip(p, g))
            if s not in seen:
                seen.add(s)
                todo.append(s)
    if len(seen) != q**n // (2 * n + 1):
        raise RuntimeError(f"pinned generators of ({q},{n}) do not give a perfect code")
    return frozenset(seen)


def exhaustive_patterns(q: int, n: int) -> int:
    return (alpha(n) + 1) ** (2 * n + 1) * q**n


def sampled_patterns(q: int, n: int, samples: int) -> int:
    return q**n * (ceil(samples / q**n) + alpha(n))


def decode_problem(q: int, point: Sequence[int], codeword: Sequence[int], label: int) -> Optional[str]:
    """Why (codeword, label) is not the decoding of point, or None if it is.

    In a perfect code every point lies in exactly one sphere, so a codeword
    of the code plus the labelled offset that lands on the point is the
    only correct answer.
    """
    n = len(point)
    offsets = lee_offsets(n)
    cw = tuple(int(x) % q for x in codeword)
    if len(codeword) != n or cw not in codewords(q, n):
        return f"{list(codeword)} is not a codeword of ({q},{n})"
    if not 0 <= label < len(offsets):
        return f"label {label} out of range"
    if any((c + o - p) % q for c, o, p in zip(cw, offsets[label], point)):
        return f"{list(point)} is not {list(codeword)} + offset {label} mod {q}"
    return None


def _certificate(code: int, out: bytes, want_code: int, claim: str) -> tuple[Optional[dict], list]:
    if code != want_code:
        return None, [f"exit code {code}, expected {want_code}"]
    try:
        cert = json.loads(out)
    except ValueError:
        return None, ["stdout is not one JSON certificate"]
    if not isinstance(cert, dict):
        return None, ["stdout is not one JSON certificate"]
    problems = []
    if cert.get("claim") != claim:
        problems.append(f"claim {cert.get('claim')!r}, expected {claim!r}")
    if cert.get("passed") is not (want_code == 0):
        problems.append(f"passed is {cert.get('passed')!r}")
    return cert, problems


def _fields(cert: dict, section: str, want: dict) -> list:
    got = cert.get(section) or {}
    return [
        f"{section}.{k} = {got.get(k)!r}, expected {v!r}"
        for k, v in want.items()
        if got.get(k) != v
    ]


def chain(q: int) -> Check:
    n = dimension(q)
    index = q**n // (2 * n + 1)

    def check(code: int, out: bytes) -> list:
        cert, problems = _certificate(code, out, 0, "nested-chain")
        if cert is None:
            return problems
        return problems + _fields(cert, "counts", {
            "det_abs": q**n // index,
            "ambient_index": q**n // index,
            "scaled_index": index,
            "coset_count": index,
            "inclusion_holds": True,
        })
    return check


def tiling(q: int, n: int) -> Check:
    def check(code: int, out: bytes) -> list:
        cert, problems = _certificate(code, out, 0, "perfect-tiling")
        if cert is None:
            return problems
        return problems + _fields(cert, "counts", {
            "codewords": len(codewords(q, n)), "points": q**n,
        })
    return check


def tiling_fails() -> Check:
    def check(code: int, out: bytes) -> list:
        return _certificate(code, out, 1, "perfect-tiling")[1]
    return check


def mindist(q: int, n: int) -> Check:
    def check(code: int, out: bytes) -> list:
        cert, problems = _certificate(code, out, 0, "minimum-distance")
        if cert is None:
            return problems
        return problems + _fields(cert, "counts", {"distance": DISTANCE, "expected": DISTANCE})
    return check


def decode(q: int, point: Sequence[int]) -> Check:
    def check(code: int, out: bytes) -> list:
        cert, problems = _certificate(code, out, 0, "decode")
        if cert is None:
            return problems
        problems += _fields(cert, "inputs", {"point": list(point)})
        counts = cert.get("counts") or {}
        label = counts.get("offset_index")
        if counts.get("cross_section") != label:
            problems.append("cross_section differs from offset_index")
        try:
            bad = decode_problem(q, point, counts.get("codeword"), label)
        except TypeError:
            bad = "codeword or label missing"
        return problems + ([bad] if bad else [])
    return check


def stabilizers() -> Check:
    def check(code: int, out: bytes) -> list:
        return _certificate(code, out, 0, "stabilizer-commutation")[1]
    return check


def burst(q: int, n: int, seed: Optional[int]) -> Check:
    """Exhaustive sweep when seed is None, else the default-size sampled one."""
    if seed is None:
        want = {"mode": "exhaustive", "patterns_checked": exhaustive_patterns(q, n)}
    else:
        want = {
            "mode": "sampled",
            "samples": SAMPLES,
            "seed": seed,
            "patterns_checked": sampled_patterns(q, n, SAMPLES),
        }
    want.update(q=q, n=n, translates=q**n, failures=0, max_block_errors=1)

    def check(code: int, out: bytes) -> list:
        cert, problems = _certificate(code, out, 0, "burst-correction")
        if cert is None:
            return problems
        return problems + _fields(cert, "counts", want)
    return check


def _markdown_rows(text: str) -> list:
    rows, table = [], 0
    for line in text.splitlines():
        if line.startswith("## Table "):
            table = int(line.split()[2].rstrip(":"))
        elif line.startswith("| ") and not line.startswith(("| code ", "| ---")):
            label, rate, gain = (c.strip() for c in line.strip("|").split("|"))
            rows.append((table, label, rate, gain))
    return rows


def tables(fmt: str, load_report: Callable) -> Check:
    """The tables round-trip to ``table_rows()``.

    ``load_report()`` returns the program's ``leetoric.report`` module: the
    machine formats go back through its ``parse_tables``, markdown through
    the table/label/rate/gain columns it prints.
    """
    def check(code: int, out: bytes) -> list:
        if code != 0:
            return [f"exit code {code}, expected 0"]
        report = load_report()
        want = report.table_rows()
        text = out.decode("utf-8", "replace")
        try:
            if fmt == "markdown":
                got = _markdown_rows(text)
                want = [(r.table, r.label, r.rate_printed, r.gain_printed) for r in want]
            else:
                got = report.parse_tables(text, fmt)
        except (ValueError, KeyError, IndexError):
            return [f"{fmt} tables do not parse"]
        return [] if tuple(got) == tuple(want) else [f"{fmt} tables differ from table_rows()"]
    return check
