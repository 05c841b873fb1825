"""Command-line verification front end.

Every verification subcommand prints a JSON certificate to standard output
and exits 0 when the claim holds, 1 when a verification fails, and 2 on
usage or domain errors (diagnostics go to standard error).  COMMANDS is the
whole grammar: the command words, then options as `--opt value` or
`--opt=value`; -h or --help prints the usage it implies.
"""

from __future__ import annotations

import sys
from itertools import takewhile
from typing import Iterator, Optional, Sequence

from .instances import CERTIFIED, certified_code, code_generators, scaling_matrix
from .interleave import verify_burst_correction
from .lattices import IntMatrix, coset_count, verify_chain
from .lee import decode_nearest, enumerate_codewords, minimum_distance, tiling_check
from .report import FORMATS, certificate_json, emit_tables, make_certificate
from .toric import commutation_check, new_code_params, stabilizer_counts


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"not a comma-separated integer vector: {text!r}") from None


def _parse_generators(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        return tuple(
            tuple(int(x) for x in chunk.split(",")) for chunk in text.split(";")
        )
    except ValueError:
        raise ValueError(f"not a semicolon-separated vector list: {text!r}") from None


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise ValueError(f"not an integer seed: {text!r}") from None
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


def _one_of(choices: Sequence, convert=str):
    def parse(text: str):
        if convert(text) in choices:
            return convert(text)
        raise ValueError(f"invalid choice {text!r} (choose from {', '.join(map(str, choices))})")
    return parse


def _emit(cert) -> int:
    print(certificate_json(cert))
    return 0 if cert.passed else 1


def _cmd_chain(q: int) -> int:
    """certify the nested lattice chain"""
    n = dict(CERTIFIED)[q]
    matrix = scaling_matrix(q, n)
    rep = verify_chain(matrix, q)
    cosets = coset_count(matrix, IntMatrix.scalar(q, n)) if rep.inclusion_holds else None
    passed = (
        rep.inclusion_holds
        and rep.strictly_nested
        and cosets == rep.scaled_index
    )
    cert = make_certificate(
        claim="nested-chain",
        inputs={"q": q, "n": n, "matrix": [list(r) for r in matrix.rows]},
        passed=passed,
        counts={
            "det_abs": rep.det_abs,
            "ambient_index": rep.ambient_index,
            "scaled_index": rep.scaled_index,
            "coset_count": cosets,
            "inclusion_holds": rep.inclusion_holds,
        },
    )
    return _emit(cert)


def _cmd_tiling(q: int, n: int, generators=None) -> int:
    """certify the perfect Lee-sphere tiling (--generators e.g. '0,1,4;1,0,2')"""
    if generators is None:
        code, generators = certified_code(q, n), code_generators(q, n)
    else:
        code = enumerate_codewords(generators, q, n)
    ok = tiling_check(code)
    cert = make_certificate(
        claim="perfect-tiling",
        inputs={"q": q, "n": n, "generators": [list(g) for g in generators]},
        passed=ok,
        counts={"codewords": len(code.codewords), "points": q**n},
    )
    return _emit(cert)


def _cmd_mindist(q: int, n: int) -> int:
    """verify the minimum Mannheim distance"""
    code = certified_code(q, n)
    d = minimum_distance(code)
    expected = new_code_params(q, n).d
    cert = make_certificate(
        claim="minimum-distance",
        inputs={"q": q, "n": n},
        passed=d == expected,
        counts={"distance": d, "expected": expected},
    )
    return _emit(cert)


def _cmd_stabilizers(q: int, n: int) -> int:
    """check X/Z overlap parity"""
    ok = commutation_check(q, n)
    cert = make_certificate(
        claim="stabilizer-commutation",
        inputs={"q": q, "n": n},
        passed=ok,
        counts=stabilizer_counts(q, n),
    )
    return _emit(cert)


def _cmd_interleave_verify(q: int, n: int, exhaustive=None, samples=None, seed=None) -> int:
    """sweep Lee-sphere bursts, exhaustively unless --samples is given"""
    summary = verify_burst_correction(q, n, exhaustive=exhaustive, samples=samples, seed=seed)
    passed = summary.failures == 0 and summary.max_block_errors <= 1
    cert = make_certificate(
        claim="burst-correction",
        inputs={
            "q": q,
            "n": n,
            "mode": summary.mode,
            "samples": summary.samples,
            "seed": summary.seed,
        },
        passed=passed,
        counts=summary._asdict(),
    )
    return _emit(cert)


def _cmd_tables(format: str) -> int:
    """emit the rate/gain tables"""
    sys.stdout.write(emit_tables(format))
    return 0


def _cmd_decode(q: int, n: int, point: tuple[int, ...]) -> int:
    """decode a point of a certified code"""
    code = certified_code(q, n)
    res = decode_nearest(point, code)
    cert = make_certificate(
        claim="decode",
        inputs={"q": q, "n": n, "point": list(point)},
        passed=True,
        counts={
            "codeword": list(res.codeword),
            "offset_index": res.offset_index,
            "cross_section": res.offset_index,
        },
    )
    return _emit(cert)


_Q_N = {"--q": int, "--n": int}

# command words -> (handler, option -> converter or None for a bare flag,
# required options); each option reaches the handler as a keyword
COMMANDS = {
    ("verify", "chain"): (_cmd_chain, {"--q": _one_of([q for q, _ in CERTIFIED], int)}, ("--q",)),
    ("verify", "tiling"): (_cmd_tiling, {**_Q_N, "--generators": _parse_generators}, ("--q", "--n")),
    ("verify", "stabilizers"): (_cmd_stabilizers, _Q_N, ("--q", "--n")),
    ("mindist",): (_cmd_mindist, _Q_N, ("--q", "--n")),
    ("interleave", "verify"): (
        _cmd_interleave_verify,
        {**_Q_N, "--exhaustive": None, "--samples": int, "--seed": _parse_seed},
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
        raise ValueError(f"unknown command {' '.join(words)!r}; see leetoric --help")
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
        return handler(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
