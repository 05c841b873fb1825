"""Command-line verification front end.

Every verification subcommand prints a JSON certificate to standard output
and exits 0 when the claim holds, 1 when a verification fails, and 2 on
usage or domain errors (diagnostics go to standard error).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

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
        raise argparse.ArgumentTypeError(f"not a comma-separated integer vector: {text!r}")


def _parse_generators(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        return tuple(
            tuple(int(x) for x in chunk.split(",")) for chunk in text.split(";")
        )
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a semicolon-separated vector list: {text!r}")


def _parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer seed: {text!r}")
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return seed


def _with_q_n(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    return parser


def _emit(cert) -> int:
    print(certificate_json(cert))
    return 0 if cert.passed else 1


def _cmd_chain(args: argparse.Namespace) -> int:
    q = args.q
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


def _code_for(args: argparse.Namespace):
    gens = getattr(args, "generators", None)
    if gens is None:
        return certified_code(args.q, args.n), code_generators(args.q, args.n)
    return enumerate_codewords(gens, args.q, args.n), gens


def _cmd_tiling(args: argparse.Namespace) -> int:
    code, gens = _code_for(args)
    ok = tiling_check(code)
    cert = make_certificate(
        claim="perfect-tiling",
        inputs={"q": args.q, "n": args.n, "generators": [list(g) for g in gens]},
        passed=ok,
        counts={"codewords": len(code.codewords), "points": args.q**args.n},
    )
    return _emit(cert)


def _cmd_mindist(args: argparse.Namespace) -> int:
    code = certified_code(args.q, args.n)
    d = minimum_distance(code)
    expected = new_code_params(args.q, args.n).d
    cert = make_certificate(
        claim="minimum-distance",
        inputs={"q": args.q, "n": args.n},
        passed=d == expected,
        counts={"distance": d, "expected": expected},
    )
    return _emit(cert)


def _cmd_stabilizers(args: argparse.Namespace) -> int:
    ok = commutation_check(args.q, args.n)
    cert = make_certificate(
        claim="stabilizer-commutation",
        inputs={"q": args.q, "n": args.n},
        passed=ok,
        counts=stabilizer_counts(args.q, args.n),
    )
    return _emit(cert)


def _cmd_interleave_verify(args: argparse.Namespace) -> int:
    # --exhaustive names the default mode; argparse keeps it apart from --samples
    summary = verify_burst_correction(args.q, args.n, samples=args.samples, seed=args.seed)
    passed = summary.failures == 0 and summary.max_block_errors <= 1
    cert = make_certificate(
        claim="burst-correction",
        inputs={
            "q": args.q,
            "n": args.n,
            "mode": summary.mode,
            "samples": summary.samples,
            "seed": summary.seed,
        },
        passed=passed,
        counts=summary._asdict(),
    )
    return _emit(cert)


def _cmd_tables(args: argparse.Namespace) -> int:
    sys.stdout.write(emit_tables(args.format))
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    code = certified_code(args.q, args.n)
    res = decode_nearest(args.point, code)
    cert = make_certificate(
        claim="decode",
        inputs={"q": args.q, "n": args.n, "point": list(args.point)},
        passed=True,
        counts={
            "codeword": list(res.codeword),
            "offset_index": res.offset_index,
            "cross_section": res.offset_index,
        },
    )
    return _emit(cert)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leetoric",
        description="Verify toric quantum codes built from perfect Lee-sphere codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification claim")
    vsub = verify.add_subparsers(dest="claim", required=True)

    chain = vsub.add_parser("chain", help="certify the nested lattice chain")
    chain.add_argument("--q", type=int, choices=[q for q, _ in CERTIFIED], required=True)
    chain.set_defaults(func=_cmd_chain)

    tiling = _with_q_n(vsub.add_parser("tiling", help="certify the perfect Lee-sphere tiling"))
    tiling.add_argument(
        "--generators",
        type=_parse_generators,
        default=None,
        help="override generator vectors, e.g. '0,1,4;1,0,2'",
    )
    tiling.set_defaults(func=_cmd_tiling)

    stab = _with_q_n(vsub.add_parser("stabilizers", help="check X/Z overlap parity"))
    stab.set_defaults(func=_cmd_stabilizers)

    mindist = _with_q_n(sub.add_parser("mindist", help="verify the minimum Mannheim distance"))
    mindist.set_defaults(func=_cmd_mindist)

    inter = sub.add_parser("interleave", help="interleaver verification")
    isub = inter.add_subparsers(dest="claim", required=True)
    iverify = _with_q_n(isub.add_parser("verify", help="sweep Lee-sphere bursts"))
    group = iverify.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--samples", type=int, default=None)
    iverify.add_argument("--seed", type=_parse_seed, default=None)
    iverify.set_defaults(func=_cmd_interleave_verify)

    tables = sub.add_parser("tables", help="emit the rate/gain tables")
    tables.add_argument("--format", choices=FORMATS, required=True)
    tables.set_defaults(func=_cmd_tables)

    decode = _with_q_n(sub.add_parser("decode", help="decode a point of a certified code"))
    decode.add_argument("--point", type=_parse_vector, required=True)
    decode.set_defaults(func=_cmd_decode)

    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
