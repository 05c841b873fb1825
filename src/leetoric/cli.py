"""Command-line verification front end.

Every verification subcommand prints a JSON certificate to standard output
and exits 0 when the claim holds, 1 when a verification fails, and 2 on
usage or domain errors (diagnostics go to standard error).  COMMANDS is the
whole grammar: the command words, then options as `--opt value` or
`--opt=value`; -h or --help prints the usage it implies.  A verification
handler prints nothing: it returns its claim as (claim, inputs, passed,
counts), and run_cli alone stamps it as a VerificationCertificate, prints it
and sets the exit code.  certificate_json writes the line itself, the bytes
json.dumps would write, so a certificate process never loads json; it
accepts only the value types a certificate holds and raises TypeError on
any other rather than fall back to json.

A process executes only the modules its command calls.  Importing this
module executes `instances`, whose CERTIFIED the grammar reads, and binds
`interleave`, `lattices`, `lee`, `report` and `toric` as the package
registers them, unexecuted (leetoric._load); each executes on its first
attribute read, so handlers call through the module.  perfbench's tracer,
installed after this import, still finds every module in sys.modules and
wraps its functions: its first read of one executes it.
"""

from __future__ import annotations

import sys
import time
from itertools import takewhile
from typing import Iterator, NamedTuple, Optional, Sequence

from . import __version__, interleave, lattices, lee, report, toric
from .instances import CERTIFIED, certified_code, code_generators, scaling_matrix

FORMATS = ("markdown", "csv", "json-lines")  # what report.emit_tables writes


class VerificationCertificate(NamedTuple):
    """Machine-readable outcome of one verification command.

    The result fields are a pure function of claim, inputs, and seed; only
    generated_at varies between reruns.
    """

    claim: str
    inputs: dict
    passed: bool
    counts: dict
    version: str
    generated_at: str


def make_certificate(
    claim: str, inputs: dict, passed: bool, counts: Optional[dict] = None
) -> VerificationCertificate:
    # the UTC stamp datetime.now(timezone.utc).isoformat() gives, without datetime
    seconds, micros = divmod(time.time_ns() // 1000, 10**6)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return VerificationCertificate(
        claim=claim,
        inputs=inputs,
        passed=bool(passed),
        counts=counts or {},
        version=__version__,
        generated_at=stamp + (f".{micros:06d}" if micros else "") + "+00:00",
    )


def certificate_json(cert: VerificationCertificate) -> str:
    """The certificate as one line, byte for byte what json.dumps writes.

    A certificate holds only dicts with str keys, lists, strs, ints, bools
    and None, so this short encoder writes it and a certificate process
    never loads json (about 2 ms of regex compiling at its import).  Any
    other value raises TypeError, a str that json would escape included
    (a quote, a backslash, a control character or non-ASCII text): there is
    no fallback to json, so no second path writes a certificate.
    """
    return _encode(cert._asdict())


def _encode(value) -> str:
    kind = type(value)
    if kind is str:
        # json.dumps writes printable ASCII verbatim, except '"' and '\\'
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
    elif kind is int:
        return repr(value)
    elif kind is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    elif kind is list:
        return f"[{', '.join(map(_encode, value))}]"
    elif kind is dict and all(type(key) is str for key in value):
        return "{" + ", ".join(f"{_encode(k)}: {_encode(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"not a certificate value: {value!r}")


def _parse_int(text: str) -> int:
    # a sign and ASCII digits only: int() alone also takes 7_0, " 7" and "\uff17"
    try:
        if text.isascii() and text.lstrip("+-").isdigit():
            return int(text)
    except ValueError:  # two signs, or past int's digit limit
        pass
    raise ValueError(f"not an integer: {text!r}")


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_parse_int, text.split(",")))
    except ValueError:
        raise ValueError(f"not a comma-separated integer vector: {text!r}") from None


def _parse_generators(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        return tuple(
            tuple(map(_parse_int, chunk.split(","))) for chunk in text.split(";")
        )
    except ValueError:
        raise ValueError(f"not a semicolon-separated vector list: {text!r}") from None


def _one_of(choices: Sequence, convert=str):
    def parse(text: str):
        if convert(text) in choices:
            return convert(text)
        raise ValueError(f"invalid choice {text!r} (choose from {', '.join(map(str, choices))})")
    return parse


def _cmd_chain(q: int) -> tuple:
    """certify the nested lattice chain"""
    n = dict(CERTIFIED)[q]
    matrix = scaling_matrix(q, n)
    rep = lattices.verify_chain(matrix, q)
    scaled = lattices.IntMatrix.scalar(q, n)
    cosets = lattices.coset_count(matrix, scaled) if rep.inclusion_holds else None
    passed = rep.strictly_nested and cosets == rep.scaled_index
    counts = {
        "det_abs": rep.det_abs,
        "ambient_index": rep.ambient_index,
        "scaled_index": rep.scaled_index,
        "coset_count": cosets,
        "inclusion_holds": rep.inclusion_holds,
    }
    inputs = {"q": q, "n": n, "matrix": [list(r) for r in matrix.rows]}
    return "nested-chain", inputs, passed, counts


def _cmd_tiling(q: int, n: int, generators=None) -> tuple:
    """certify the perfect Lee-sphere tiling (--generators e.g. '0,1,4;1,0,2')"""
    if generators is None:
        code, generators = certified_code(q, n), code_generators(q, n)
    else:
        code = lee.enumerate_codewords(generators, q, n)
    inputs = {"q": q, "n": n, "generators": [list(g) for g in generators]}
    counts = {"codewords": len(code.codewords), "points": q**n}
    return "perfect-tiling", inputs, lee.tiling_check(code), counts


def _cmd_mindist(q: int, n: int) -> tuple:
    """verify the minimum Mannheim distance"""
    code = certified_code(q, n)
    # a perfect radius-1 tiling forces d = 3: its spheres are disjoint, and a
    # point at distance 2 from a codeword lies in another codeword's sphere
    expected = 3 if lee.tiling_check(code) else None
    d = lee.minimum_distance(code)
    counts = {"distance": d, "expected": expected}
    return "minimum-distance", {"q": q, "n": n}, d == expected, counts


def _cmd_stabilizers(q: int, n: int) -> tuple:
    """check X/Z overlap parity"""
    ok = toric.commutation_check(q, n)
    return "stabilizer-commutation", {"q": q, "n": n}, ok, toric.stabilizer_counts(q, n)


def _cmd_interleave_verify(q: int, n: int, exhaustive=None, samples=None, seed=None) -> tuple:
    """sweep Lee-sphere bursts, exhaustively unless --samples is given"""
    summary = interleave.verify_burst_correction(
        q, n, exhaustive=exhaustive, samples=samples, seed=seed
    )
    passed = summary.failures == 0 and summary.max_block_errors <= 1
    inputs = {"q": q, "n": n, "mode": summary.mode, "samples": summary.samples}
    inputs["seed"] = summary.seed
    return "burst-correction", inputs, passed, summary._asdict()


def _cmd_tables(format: str) -> None:
    """emit the rate/gain tables"""
    sys.stdout.write(report.emit_tables(format))


def _cmd_decode(q: int, n: int, point: tuple[int, ...]) -> tuple:
    """decode a point of a certified code"""
    res = lee.decode_nearest(point, certified_code(q, n))
    counts = {
        "codeword": list(res.codeword),
        "offset_index": res.offset_index,
        "cross_section": res.offset_index,
    }
    return "decode", {"q": q, "n": n, "point": list(point)}, True, counts


_Q_N = {"--q": _parse_int, "--n": _parse_int}

# command words -> (handler, option -> converter or None for a bare flag,
# required options); each option reaches the handler as a keyword
COMMANDS = {
    ("verify", "chain"): (
        _cmd_chain, {"--q": _one_of([q for q, _ in CERTIFIED], _parse_int)}, ("--q",)
    ),
    ("verify", "tiling"): (_cmd_tiling, {**_Q_N, "--generators": _parse_generators}, ("--q", "--n")),
    ("verify", "stabilizers"): (_cmd_stabilizers, _Q_N, ("--q", "--n")),
    ("mindist",): (_cmd_mindist, _Q_N, ("--q", "--n")),
    ("interleave", "verify"): (
        _cmd_interleave_verify,
        {**_Q_N, "--exhaustive": None, "--samples": _parse_int, "--seed": _parse_int},
        ("--q", "--n"),
    ),
    ("tables",): (_cmd_tables, {"--format": _one_of(FORMATS)}, ("--format",)),
    ("decode",): (_cmd_decode, {**_Q_N, "--point": _parse_vector}, ("--q", "--n", "--point")),
}


def _usage(words: tuple) -> str:
    lines = ["usage: leetoric COMMAND [--option value | --option=value ...]"]
    for key, (handler, options, required) in COMMANDS.items():
        if key[: len(words)] == words:
            spec = (o if options[o] is None else f"{o} {o[2:].upper()}" for o in options)
            spec = (s if s.split()[0] in required else f"[{s}]" for s in spec)
            lines += [f"  leetoric {' '.join((*key, *spec))}", f"      {handler.__doc__}"]
    if len(lines) == 1:
        raise ValueError(f"unknown command {' '.join(words)!r}; see leetoric --help")
    return "\n".join(lines)


def _parse(words: tuple, rest: Iterator[str]) -> tuple:
    """The handler COMMANDS gives for words, and the keywords the options in rest name."""
    if words not in COMMANDS:
        what = f"unknown command {' '.join(words)!r}" if words else "missing command"
        raise ValueError(f"{what}; see leetoric --help")
    handler, options, required = COMMANDS[words]
    kwargs = {}
    for arg in rest:
        opt, eq, value = arg.partition("=")
        if opt not in options or (eq and options[opt] is None):
            raise ValueError(f"unrecognized argument {arg!r}")
        if opt[2:] in kwargs:
            raise ValueError(f"{opt} given more than once")
        if options[opt] is None:
            kwargs[opt[2:]] = True
            continue
        if not eq and (value := next(rest, None)) is None:
            raise ValueError(f"{opt} expects a value")
        try:
            kwargs[opt[2:]] = options[opt](value)
        except ValueError as exc:
            raise ValueError(f"{opt}: {exc}") from None
    missing = [opt for opt in required if opt[2:] not in kwargs]
    if missing:
        raise ValueError(f"missing required {', '.join(missing)}")
    return handler, kwargs


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    words = tuple(takewhile(lambda arg: not arg.startswith("-"), argv))
    try:
        if "-h" in argv or "--help" in argv:
            print(_usage(words))
            return 0
        handler, kwargs = _parse(words, iter(argv[len(words):]))
        claim = handler(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if claim is None:
        return 0
    cert = make_certificate(*claim)
    print(certificate_json(cert))
    return 0 if cert.passed else 1


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
