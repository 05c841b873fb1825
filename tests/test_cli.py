from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import leetoric
from leetoric import emit_tables, interleave, lattices, lee, toric
from leetoric.cli import COMMANDS, main, run_cli
from leetoric.report import FORMATS

SRC = str(Path(leetoric.__file__).resolve().parents[1])


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def run_and_parse(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_verify_chain_passes(capsys):
    code, cert = run_and_parse(capsys, ["verify", "chain", "--q", "7"])
    assert code == 0
    assert cert["passed"] is True
    assert cert["counts"]["det_abs"] == 7
    assert cert["counts"]["scaled_index"] == 49
    assert cert["counts"]["coset_count"] == 49

    code, cert = run_and_parse(capsys, ["verify", "chain", "--q", "9"])
    assert code == 0
    assert cert["counts"]["det_abs"] == 9
    assert cert["counts"]["scaled_index"] == 729


def test_verify_chain_fails_on_a_wrong_determinant(capsys, monkeypatch):
    # The coset count must not share the determinant's arithmetic: with the
    # Bareiss determinant of M(7,3) reported 7x too large, the two ways of
    # computing the index disagree and the chain certificate fails.
    true_determinant = lattices.determinant
    m73 = leetoric.scaling_matrix(7, 3)

    def doctored(m):
        return 7 * true_determinant(m) if m == m73 else true_determinant(m)

    monkeypatch.setattr(lattices, "determinant", doctored)
    code, cert = run_and_parse(capsys, ["verify", "chain", "--q", "7"])
    assert code == 1
    assert cert["passed"] is False
    assert cert["counts"]["det_abs"] == 49
    assert cert["counts"]["scaled_index"] == 7
    assert cert["counts"]["coset_count"] == 49


def test_verify_tiling_pass_and_forced_failure(capsys):
    code, cert = run_and_parse(capsys, ["verify", "tiling", "--q", "7", "--n", "3"])
    assert code == 0
    assert cert["counts"] == {"codewords": 49, "points": 343}

    code, cert = run_and_parse(
        capsys,
        ["verify", "tiling", "--q", "7", "--n", "3", "--generators", "1,1,0;0,1,1"],
    )
    assert code == 1
    assert cert["passed"] is False


@pytest.mark.parametrize("n, coords", [(4, 4), (40, 40), (10**7, 1)], ids=["4", "40", "1e7"])
def test_verify_tiling_refuses_oversized_space(capsys, n, coords):
    generators = ",".join(["1"] + ["0"] * (coords - 1))
    argv = ["verify", "tiling", "--q", "50", "--n", str(n), "--generators", generators]
    t0 = time.monotonic()
    assert run_cli(argv) == 2
    assert time.monotonic() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"over the limit of {lee.MAX_POINTS}" in captured.err


def test_mindist_certified(capsys):
    code, cert = run_and_parse(capsys, ["mindist", "--q", "9", "--n", "4"])
    assert code == 0
    assert cert["counts"] == {"distance": 3, "expected": 3}


def test_mindist_uncertified_is_usage_error(capsys):
    assert run_cli(["mindist", "--q", "5", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert "not certified" in err


def test_verify_stabilizers(capsys):
    for q, n, qubits, generators, incidences in [
        (5, 2, 50, 25, 200),
        (9, 4, 39366, 26244, 629856),
    ]:
        argv = ["verify", "stabilizers", "--q", str(q), "--n", str(n)]
        code, cert = run_and_parse(capsys, argv)
        assert code == 0
        assert cert["passed"] is True
        assert cert["counts"] == {
            "qubits": qubits,
            "x_generators": generators,
            "z_generators": generators,
            "incidences_checked": incidences,
        }


@pytest.mark.parametrize("n", ["4", "40", "100000", "10000000"])
def test_verify_stabilizers_refuses_oversized_torus(capsys, monkeypatch, n):
    def no_allocation(*args):
        raise AssertionError("support rows built past the work limit")

    monkeypatch.setattr(toric, "boundary_columns", no_allocation)
    t0 = time.monotonic()
    assert run_cli(["verify", "stabilizers", "--q", "50", "--n", n]) == 2
    assert time.monotonic() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"over the limit of {toric.MAX_INCIDENCES}" in captured.err


def test_interleave_verify_exhaustive(capsys):
    code, cert = run_and_parse(
        capsys, ["interleave", "verify", "--q", "7", "--n", "3", "--exhaustive"]
    )
    assert code == 0
    assert cert["counts"]["patterns_checked"] == 5_619_712
    assert cert["counts"]["failures"] == 0
    assert cert["counts"]["method"] == "block-product"
    assert "masks_checked" not in cert["counts"]


def test_interleave_verify_exhaustive_4d(capsys):
    for flags in (["--exhaustive"], []):
        code, cert = run_and_parse(capsys, ["interleave", "verify", "--q", "9", "--n", "4", *flags])
        assert code == 0
        assert cert["inputs"]["mode"] == "exhaustive"
        assert cert["counts"]["patterns_checked"] == 6561 * 7**9 == 264_760_015_527
        assert cert["counts"]["failures"] == 0
        assert cert["counts"]["max_block_errors"] == 1
        assert cert["counts"]["method"] == "block-product"
        assert "masks_checked" not in cert["counts"]


def test_interleave_verify_sampled(capsys):
    argv = [
        "interleave", "verify", "--q", "9", "--n", "4",
        "--samples", "7000", "--seed", "11",
    ]
    code, cert = run_and_parse(capsys, argv)
    assert code == 0
    assert cert["inputs"]["mode"] == "sampled"
    assert cert["counts"]["failures"] == 0
    assert cert["counts"]["rng_algorithm"] == "numpy-pcg64"
    assert cert["counts"]["method"] == "sampled-masks"
    assert "masks_checked" not in cert["counts"]


def test_interleave_verify_refuses_oversized_sample(capsys, monkeypatch):
    def no_allocation(*args):
        raise AssertionError("interleaver built past the sample limit")

    monkeypatch.setattr(interleave, "build_interleaver", no_allocation)
    argv = ["interleave", "verify", "--q", "9", "--n", "4", "--samples", str(10**14)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"over the limit of {interleave.MAX_SAMPLES}" in captured.err


def test_interleave_verify_mutually_exclusive_modes():
    argv = [
        "interleave", "verify", "--q", "7", "--n", "3",
        "--exhaustive", "--samples", "5",
    ]
    assert run_cli(argv) == 2


def test_seed_validation():
    base = ["interleave", "verify", "--q", "9", "--n", "4", "--samples", "10"]
    assert run_cli(base + ["--seed", "-1"]) == 2
    assert run_cli(base + ["--seed", str(2**64)]) == 2
    assert run_cli(base + ["--seed", "notanumber"]) == 2


@pytest.mark.parametrize("mode", [[], ["--exhaustive"]])
def test_seed_without_samples_is_a_usage_error(capsys, mode):
    argv = ["interleave", "verify", "--q", "7", "--n", "3", "--seed", "5", *mode]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--samples" in captured.err


def test_sampled_sweep_seed_defaults_to_zero(capsys):
    base = ["interleave", "verify", "--q", "7", "--n", "3", "--samples", "1000"]
    code, cert = run_and_parse(capsys, base)
    assert code == 0 and cert["inputs"]["seed"] == cert["counts"]["seed"] == 0
    assert cert["counts"] == run_and_parse(capsys, base + ["--seed", "0"])[1]["counts"]


def test_decode_command(capsys):
    code, cert = run_and_parse(
        capsys, ["decode", "--q", "7", "--n", "3", "--point", "1,1,1"]
    )
    assert code == 0
    assert cert["counts"]["codeword"] == [2, 1, 1]
    assert cert["counts"]["cross_section"] == 2


def test_decode_usage_errors(capsys):
    assert run_cli(["decode", "--q", "7", "--n", "3", "--point", "1,1"]) == 2
    capsys.readouterr()
    assert run_cli(["decode", "--q", "7", "--n", "3", "--point", "a,b,c"]) == 2


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json-lines"])
def test_tables_formats_match_library(capsys, fmt):
    assert run_cli(["tables", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out == emit_tables(fmt)


def test_tables_unknown_format():
    assert run_cli(["tables", "--format", "yaml"]) == 2


def test_usage_errors_exit_2():
    assert run_cli([]) == 2
    assert run_cli(["bogus"]) == 2
    assert run_cli(["verify"]) == 2
    assert run_cli(["verify", "chain"]) == 2
    assert run_cli(["verify", "chain", "--q", "5"]) == 2


def test_help_exits_zero():
    assert run_cli(["--help"]) == 0


def test_point_value_forms_decode_alike(capsys):
    # a value may follow its option as the next word even when it starts with
    # a minus sign, or be joined to it by "="
    base = ["decode", "--q", "7", "--n", "3"]
    joined = run_and_parse(capsys, [*base, "--point=-1,-2,-3"])
    spaced = run_and_parse(capsys, [*base, "--point", "-1,-2,-3"])
    assert joined[0] == spaced[0] == 0
    assert joined[1]["inputs"] == spaced[1]["inputs"]
    assert joined[1]["counts"] == spaced[1]["counts"] == {
        "codeword": [6, 5, 4], "offset_index": 0, "cross_section": 0,
    }


# each names its option once too often; an option given twice is refused,
# not read last-wins
REPEATED_OPTIONS = {
    "--q": ["verify", "chain", "--q", "7", "--q", "9"],
    "--format": ["tables", "--format=csv", "--format", "markdown"],
    "--exhaustive": ["interleave", "verify", "--q", "7", "--n", "3", *["--exhaustive"] * 2],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["mindist", "--q", "7", "--n", "3", "--bogus", "1"],
        ["mindist", "--q", "7", "--n", "3", "extra"],
        ["mindist", "--q", "7"],
        ["verify", "chain", "--q", "5"],
        ["tables", "--format", "yaml"],
        ["decode", "--q", "7", "--n", "3", "--point"],
        ["verify", "chain", "--q", "x"],
        ["verify", "tiling", "--q", "7", "--n", "3", "--gen", "1,1,0;0,1,1"],
        ["interleave", "verify", "--q", "7", "--n", "3", "--exhaustive=yes"],
        ["verify"],
        [],
        *REPEATED_OPTIONS.values(),
    ],
    ids=[
        "unknown-option", "stray-word", "missing-n", "bad-q-choice", "bad-format",
        "no-value", "bad-int", "abbreviation", "flag-with-value", "partial-command", "empty",
        "repeated-option", "repeated-joined-option", "repeated-flag",
    ],
)
def test_parser_refusals_are_one_error_line(capsys, argv):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_a_repeated_option_is_named(capsys):
    for opt, argv in REPEATED_OPTIONS.items():
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: {opt} given more than once\n"


@pytest.mark.parametrize("words", [(), *COMMANDS], ids=lambda w: " ".join(w) or "top")
def test_help_names_every_option(capsys, words):
    for flag in ("--help", "-h"):
        assert run_cli([*words, flag]) == 0
        out = capsys.readouterr().out
        for key, (_, options, _) in COMMANDS.items():
            line = [x for x in out.splitlines() if x.strip().startswith(f"leetoric {' '.join(key)} ")]
            if key[: len(words)] != words:
                assert line == []
                continue
            assert len(line) == 1 and re.findall(r"--[a-z]+", line[0]) == list(options)


def test_main_raises_system_exit():
    with pytest.raises(SystemExit):
        main()


@pytest.mark.parametrize("module", ["leetoric", "leetoric.cli"])
def test_python_dash_m(module):
    proc = run_python("-m", module, "tables", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == emit_tables("csv")
    proc = run_python("-m", module, "bogus")
    assert proc.returncode == 2
    assert proc.stdout == ""


# Runs in a fresh interpreter, because this test module has numpy loaded.
# After importing the package and the CLI, and after each command given as
# JSON in argv[1], it prints [exit code, heavy modules loaded, leetoric
# submodules loaded, deferred stdlib loaded].  `dataclasses` and `inspect`
# (which it imports, with ast, dis and tokenize) cost every process about
# 25 ms; numpy loads inspect and datetime.  The CLI parses without argparse
# (and the gettext and locale it loads) and stamps without datetime.
BOUNDARY_PROBE = """
import contextlib, io, json, sys
import leetoric, leetoric.cli

def state(code):
    loaded = set(sys.modules) | {m.split('.')[0] for m in sys.modules}
    heavy = loaded & {'numpy', 'scipy', 'importlib.metadata', 'dataclasses', 'inspect',
                      'argparse', 'gettext', 'locale', 'datetime'}
    deferred = loaded & {'csv', 'decimal', 'fractions', 'datetime'}
    return [code, sorted(heavy), sorted(m for m in loaded if m.startswith('leetoric.')),
            sorted(deferred)]

out = [state(None)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        out.append(state(leetoric.cli.run_cli(argv)))
print(json.dumps(out))
"""

# `import leetoric.cli` loads every submodule: cli imports each module it
# dispatches to at its top, because the perfbench tracer, installed after
# that import, wraps only the functions of modules already loaded.
SUBMODULES = [
    f"leetoric.{m}"
    for m in ("_version", "cli", "instances", "interleave", "lattices", "lee", "report", "toric")
]

NUMPY_FREE_COMMANDS = [
    (["verify", "chain", "--q", "9"], 0),
    (["verify", "tiling", "--q", "7", "--n", "3"], 0),
    (["verify", "tiling", "--q", "7", "--n", "3", "--generators", "1,1,0;0,1,1"], 1),
    (["mindist", "--q", "9", "--n", "4"], 0),
    (["decode", "--q", "9", "--n", "4", "--point", "1,2,3,4"], 0),
    (["verify", "stabilizers", "--q", "5", "--n", "2"], 0),
    (["verify", "stabilizers", "--q", "7", "--n", "3"], 0),
    (["interleave", "verify", "--q", "7", "--n", "3", "--exhaustive"], 0),
    (["interleave", "verify", "--q", "9", "--n", "4"], 0),
    *((["tables", "--format", fmt], 0) for fmt in FORMATS),
]

# only the sampled sweep draws, with numpy's PCG64
NUMPY_COMMANDS = [
    ["interleave", "verify", "--q", "7", "--n", "3", "--samples", "1000", "--seed", "3"],
]


def run_boundary_probe(commands: list) -> list:
    proc = run_python("-c", BOUNDARY_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _deferred_after(argv: list, before: list) -> list:
    # the table-only stdlib a command adds: the tables need decimal and
    # fractions, and csv for csv; a certificate adds none
    added = {"decimal", "fractions"} if argv[0] == "tables" else set()
    return sorted({*before, *added, *(["csv"] if "csv" in argv else [])})


def test_import_pulls_in_no_scipy_or_dist_metadata():
    # numpy (and with it inspect and datetime) is loaded only by the sampled
    # sweep; no import or command loads dataclasses, argparse, gettext,
    # locale or datetime.  `import leetoric` loads none of csv, decimal or
    # fractions; each loads with the first command that prints what needs it.
    after_import, *runs = run_boundary_probe([argv for argv, _ in NUMPY_FREE_COMMANDS])
    assert after_import == [None, [], SUBMODULES, []]
    deferred, want = [], []
    for argv, code in NUMPY_FREE_COMMANDS:
        deferred = _deferred_after(argv, deferred)
        want.append([code, [], SUBMODULES, deferred])
    assert runs == want
    assert deferred == ["csv", "decimal", "fractions"]
    tables = ["tables", "--format", "csv"]
    assert run_boundary_probe([tables])[1] == [0, [], SUBMODULES, ["csv", "decimal", "fractions"]]
    for argv in NUMPY_COMMANDS:
        # numpy's own import loads datetime
        want = [0, ["datetime", "inspect", "numpy"], SUBMODULES, ["datetime"]]
        assert run_boundary_probe([argv])[1] == want, argv


# Runs in a fresh interpreter and prints what loads when: `import leetoric`
# alone, then `dir`, an unknown name and `verify_chain`; then the public
# names whose attribute, `from leetoric import` value and home module's
# object (CERTIFIED, a tuple, has no __module__ and lives in instances) are
# not one object.  json loads only to print the result.
LAZY_PROBE = """
import sys
import leetoric

def submodules():
    return sorted(m[len('leetoric.'):] for m in sys.modules if m.startswith('leetoric.'))

out = {'import': submodules(), 'stdlib': sorted({'json', 'numpy'} & set(sys.modules))}
out['dir'] = sorted(set(leetoric.__all__) - set(dir(leetoric)))
out['unknown'] = not hasattr(leetoric, 'no_such_name') and submodules()
leetoric.verify_chain
out['verify_chain'] = submodules()
out['differ'] = []
for name in leetoric.__all__:
    ns = {}
    exec(f'from leetoric import {name} as value', ns)
    attr = getattr(leetoric, name)
    home = getattr(attr, '__module__', 'leetoric.instances')
    if not (home.startswith('leetoric.')
            and attr is ns['value'] is getattr(sys.modules[home], name)):
        out['differ'].append(name)
import json
print(json.dumps(out))
"""


def test_import_leetoric_loads_only_the_code_layer():
    # a decoding process compiles no claim engine: each loads with the first
    # public name read from it, and the tracer's swaps by identity still hold
    proc = run_python("-c", LAZY_PROBE)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["import"] == ["_version", "instances", "lee"]
    assert out["stdlib"] == []
    assert out["dir"] == []
    assert out["unknown"] == ["_version", "instances", "lee"]
    assert out["verify_chain"] == ["_version", "instances", "lattices", "lee"]
    assert out["differ"] == [] and len(leetoric.__all__) == 39


# Runs each command given as JSON in argv[1] in one interpreter where
# `import numpy` raises ImportError, and prints [[exit code, stdout], ...].
NO_NUMPY_PROBE = """
import contextlib, io, json, sys
sys.modules['numpy'] = None
import leetoric.cli

out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = leetoric.cli.run_cli(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def _without_timestamp(out: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', out)


def test_numpy_free_commands_run_without_numpy(capsys):
    proc = run_python("-c", NO_NUMPY_PROBE, json.dumps([argv for argv, _ in NUMPY_FREE_COMMANDS]))
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert len(blocked) == len(NUMPY_FREE_COMMANDS)
    for (argv, want), (code, out) in zip(NUMPY_FREE_COMMANDS, blocked):
        assert run_cli(argv) == code == want, argv
        normal = capsys.readouterr().out
        assert out and _without_timestamp(out) == _without_timestamp(normal), argv


def test_sampled_sweep_without_numpy_is_a_usage_error():
    # the sampled sweep refuses before any sweep work: exit 2, one stderr
    # line naming numpy, nothing on stdout
    proc = run_python("-c", NO_NUMPY_PROBE, json.dumps(NUMPY_COMMANDS))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[2, ""]] * len(NUMPY_COMMANDS)
    lines = proc.stderr.splitlines()
    assert len(lines) == len(NUMPY_COMMANDS)
    assert all(line.startswith("error: ") and "numpy" in line for line in lines)
