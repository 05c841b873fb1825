"""Decode-stream child: one process decodes a stream of points.

    PYTHONPATH=<checkout>/src python perfbench/stream.py [--trace] < points

Standard input holds the points (``encode_points``); the child reads them
first and reports how long that took.  It then imports leetoric, builds
``certified_code`` for both instances and decodes the first point of each,
which builds the decode tables: that is set-up.  Then it decodes every point
of the stream, timing the whole loop.  Standard output is one JSON header
line (CLOCK_MONOTONIC stamps, read and decode times) followed by the results
(``decode_results``).
"""

from __future__ import annotations

import array
import json
import os
import sys
import time


def encode_points(points) -> bytes:
    """Points as int16 records: q, then the n = (q - 1) / 2 coordinates."""
    flat = array.array("h")
    for q, p in points:
        flat.append(q)
        flat.extend(p)
    return flat.tobytes()


def parse_points(raw: bytes) -> list:
    flat = array.array("h")
    flat.frombytes(raw)
    out, i = [], 0
    while i < len(flat):
        q = flat[i]
        n = (q - 1) // 2
        out.append((q, tuple(flat[i + 1:i + 1 + n])))
        i += 1 + n
    return out


def decode_results(payload: bytes, points) -> list:
    """Inverse of the child's output encoding: (codeword, label) per point."""
    flat = array.array("b")
    flat.frombytes(payload)
    out, i = [], 0
    for q, p in points:
        n = len(p)
        out.append((tuple(flat[i:i + n]), flat[i + n]))
        i += n + 1
    if i != len(flat):
        raise ValueError("result payload does not match the points")
    return out


def main() -> None:
    t0 = time.monotonic()
    points = parse_points(sys.stdin.buffer.read())
    parse_s = time.monotonic() - t0
    src = os.environ["PERFBENCH_SRC"]
    import leetoric

    if os.path.realpath(leetoric.__file__) != os.path.join(src, "leetoric", "__init__.py"):
        sys.stderr.write(f"leetoric imported from {leetoric.__file__}, not {src}\n")
        raise SystemExit(3)
    traced = "--trace" in sys.argv[1:]
    if traced:
        import tracer

        tracer.install()
    try:
        _run(points, parse_s)
    finally:
        if traced:
            tracer.dump()


def _run(points, parse_s: float) -> None:
    from leetoric import certified_code, decode_nearest

    codes = {7: certified_code(7, 3), 9: certified_code(9, 4)}
    first = {}
    for q, p in points:
        if q not in first:
            first[q] = p
    for q, p in first.items():
        decode_nearest(p, codes[q])
    t_setup = time.monotonic()

    work = [(p, codes[q]) for q, p in points]
    t0 = time.perf_counter()
    results = [decode_nearest(p, c) for p, c in work]
    decode_s = time.perf_counter() - t0

    flat = array.array("b")
    for r in results:
        flat.extend(r.codeword)
        flat.append(r.offset_index)
    header = {"parse_s": parse_s, "t_setup": t_setup, "decode_s": decode_s}
    sys.stdout.buffer.write(json.dumps(header).encode() + b"\n" + flat.tobytes())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
