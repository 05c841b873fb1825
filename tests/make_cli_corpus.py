"""Print the CLI certificate corpus, tests/cli_corpus.json, to standard output.

Run it from the repository root with the package importable; it takes no
options:

    PYTHONPATH=src python tests/make_cli_corpus.py > tests/cli_corpus.json

Each record is one argv run through leetoric.cli.run_cli in this process:
the argv, its exit code, its stdout with each generated_at value blanked
(the key stays) and its stderr.  tests/test_cli_corpus.py replays every
record.  The argvs cover every command at both certified instances, the
commands' other documented forms, and every refusal with exit 2 that
tests/test_cli.py runs; each refusal is made by a guard before any large
allocation, so each runs for real.  It uses only the standard library and
leetoric, so any supported Python, with or without numpy, prints the same
corpus.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

from leetoric.cli import run_cli

_SWEEP = ["interleave", "verify"]
_SAMPLED_9_4 = [*_SWEEP, "--q", "9", "--n", "4", "--samples"]
_HAMMING_7_4 = "1,1,0,1,0,0,0;0,1,1,0,1,0,0;0,0,1,1,0,1,0;0,0,0,1,1,0,1"

ARGVS = [
    # every command at both instances, and the forms the README documents
    ["verify", "chain", "--q", "7"],
    ["verify", "chain", "--q", "9"],
    ["verify", "tiling", "--q", "7", "--n", "3"],
    ["verify", "tiling", "--q", "9", "--n", "4"],
    ["verify", "tiling", "--q", "5", "--n", "2", "--generators", "1,2"],
    ["verify", "tiling", "--q", "7", "--n", "3", "--generators", "1,1,0;0,1,1"],
    ["verify", "tiling", "--q", "10", "--n", "2", "--generators", "8,1;5,0"],
    ["verify", "stabilizers", "--q", "5", "--n", "2"],
    ["verify", "stabilizers", "--q", "7", "--n", "3"],
    ["verify", "stabilizers", "--q", "3", "--n", "4"],
    ["verify", "stabilizers", "--q", "9", "--n", "4"],
    ["mindist", "--q", "7", "--n", "3"],
    ["mindist", "--q", "9", "--n", "4"],
    [*_SWEEP, "--q", "7", "--n", "3"],
    [*_SWEEP, "--q", "7", "--n", "3", "--exhaustive"],
    [*_SWEEP, "--q", "7", "--n", "3", "--samples", "1000", "--seed", "3"],
    [*_SWEEP, "--q", "7", "--n", "3", "--samples", "1000000", "--seed", "0"],
    [*_SWEEP, "--q", "9", "--n", "4"],
    [*_SAMPLED_9_4, "1000000", "--seed", "0"],
    ["tables", "--format", "markdown"],
    ["tables", "--format", "csv"],
    ["tables", "--format", "json-lines"],
    ["decode", "--q", "7", "--n", "3", "--point", "1,1,1"],
    ["decode", "--q", "7", "--n", "3", "--point=-1,-2,-3"],
    ["decode", "--q", "7", "--n", "3", "--point", "-1,-2,-3"],
    ["decode", "--q", "9", "--n", "4", "--point", "1,2,3,4"],
    ["--help"],
    ["verify", "--help"],
    ["interleave", "--help"],
    # refusals with exit 2: the command line
    [],
    ["--q", "7"],
    ["bogus"],
    ["bogus", "--help"],
    ["verify"],
    ["verify", "chain"],
    ["verify", "chain", "--q", "5"],
    ["verify", "chain", "--q", "x"],
    ["verify", "stabilizers", "--q", "7_0", "--n", "3"],
    ["mindist", "--q", " 7", "--n", "3"],
    ["verify", "chain", "--q", "7", "--q", "9"],
    ["verify", "tiling", "--q", "7", "--n", "3", "--gen", "1,1,0;0,1,1"],
    ["verify", "tiling", "--q", "7", "--n", "3", "--generators", "1,x"],
    ["mindist", "--q", "7", "--n", "3", "--bogus", "1"],
    ["mindist", "--q", "7", "--n", "3", "extra"],
    ["mindist", "--q", "7"],
    ["tables", "--format", "yaml"],
    ["tables", "--format=csv", "--format", "markdown"],
    ["decode", "--q", "7", "--n", "3", "--point"],
    ["decode", "--q", "7", "--n", "3", "--point", "1,1"],
    ["decode", "--q", "7", "--n", "3", "--point", "a,b,c"],
    ["decode", "--q", "7", "--n", "3", "--point=1_0,2,3"],
    [*_SWEEP, "--q", "7", "--n", "3", "--exhaustive=yes"],
    [*_SWEEP, "--q", "7", "--n", "3", "--exhaustive", "--exhaustive"],
    # refusals with exit 2: the domain
    ["mindist", "--q", "5", "--n", "3"],
    *(
        ["verify", "tiling", "--q", "50", "--n", str(n), "--generators", ",".join(["1"] + ["0"] * (c - 1))]
        for n, c in ((4, 4), (40, 40), (10**7, 1))
    ),
    ["verify", "tiling", "--q", "7", "--n", "0", "--generators", "1"],
    # the [7,4] Hamming code: a radius-1 Lee sphere needs q >= 3
    ["verify", "tiling", "--q", "2", "--n", "7", "--generators", _HAMMING_7_4],
    *(["verify", "stabilizers", "--q", "50", "--n", n] for n in ("4", "40", "100000", "10000000")),
    [*_SAMPLED_9_4, str(10**14)],
    [*_SWEEP, "--q", "7", "--n", "3", "--exhaustive", "--samples", "5"],
    *([*_SAMPLED_9_4, "10", "--seed", seed] for seed in ("-1", str(2**64), "notanumber")),
    [*_SWEEP, "--q", "7", "--n", "3", "--seed", "5"],
    [*_SWEEP, "--q", "7", "--n", "3", "--seed", "5", "--exhaustive"],
]


def record(argv: list) -> dict:
    """argv's exit code, blanked stdout and stderr from one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    stdout = re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', out.getvalue())
    return {"argv": argv, "exit": code, "stdout": stdout, "stderr": err.getvalue()}


if __name__ == "__main__":
    print(json.dumps([record(argv) for argv in ARGVS], indent=1))
