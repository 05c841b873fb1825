from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import leetoric
from leetoric import cli, emit_tables, interleave, lattices, lee, toric
from leetoric.cli import COMMANDS, FORMATS, certificate_json, main, make_certificate, run_cli

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


def test_mindist_grades_the_lee_distance_against_the_tiling(capsys, monkeypatch):
    # the expected 3 is what a perfect radius-1 tiling forces, not the
    # printed quantum record: a record of d = 5 moves nothing
    def record(q, n):
        return leetoric.CodeParams(n_code=6 * q, k=6, d=5, t=2)

    holders = [
        module for name, module in list(sys.modules.items())
        if name.split(".")[0] == "leetoric" and "new_code_params" in vars(module)
    ]
    assert holders
    for module in holders:
        monkeypatch.setattr(module, "new_code_params", record)
    code, cert = run_and_parse(capsys, ["mindist", "--q", "9", "--n", "4"])
    assert code == 0
    assert cert["counts"] == {"distance": 3, "expected": 3}


def test_mindist_of_a_code_that_does_not_tile_expects_nothing(capsys, monkeypatch):
    code = lee.enumerate_codewords(((1, 1, 0), (0, 1, 1)), 7, 3)
    monkeypatch.setattr(cli, "certified_code", lambda q, n: code)
    exit_code, cert = run_and_parse(capsys, ["mindist", "--q", "7", "--n", "3"])
    assert exit_code == 1
    assert cert["passed"] is False
    assert cert["counts"] == {"distance": 2, "expected": None}


def test_mindist_uncertified_is_usage_error(capsys):
    assert run_cli(["mindist", "--q", "5", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert "not certified" in err


def test_verify_stabilizers(capsys):
    for q, n, qubits, generators, incidences in [
        (5, 2, 50, 25, 200),
        (9, 4, 39366, 26244, 629856),
        (2, 2, 8, 4, 32),  # the tiling refuses q = 2; the stabilizer check does not
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
    assert cert["counts"]["method"] == "block-product"
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


@pytest.mark.parametrize("text,value", [("7", 7), ("+7", 7), ("-3", -3), ("007", 7)])
def test_integers_read_a_sign_and_ascii_digits(text, value):
    assert cli._parse_int(text) == value and type(cli._parse_int(text)) is int


@pytest.mark.parametrize(
    "text", ["7_0", " 7", "7 ", "\uff17", "\u0667", "\u00b2", "++7", "+-7", "0x7", "7.0", "", "-"]
)
def test_integers_refuse_what_int_alone_would_read(text):
    with pytest.raises(ValueError, match="^not an integer: "):
        cli._parse_int(text)
    with pytest.raises(ValueError, match="^not a comma-separated integer vector: "):
        cli._parse_vector(f"1,{text},3")
    with pytest.raises(ValueError, match="^not a semicolon-separated vector list: "):
        cli._parse_generators(f"1,2;{text}")


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


def test_usage_errors_exit_2(capsys):
    # no command word names the missing command, not an empty unknown one
    for argv in ([], ["--q", "7"]):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == "error: missing command; see leetoric --help\n"
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


# one argv per command, each tables format, and the claim each certificate
# pins (None: the tables print text, not a certificate)
RERUNS = [
    (["verify", "chain", "--q", "9"], "nested-chain"),
    (["verify", "tiling", "--q", "7", "--n", "3"], "perfect-tiling"),
    (["verify", "stabilizers", "--q", "7", "--n", "3"], "stabilizer-commutation"),
    (["mindist", "--q", "9", "--n", "4"], "minimum-distance"),
    (["interleave", "verify", "--q", "7", "--n", "3", "--samples", "1000", "--seed", "7"],
     "burst-correction"),
    *((["tables", "--format", fmt], None) for fmt in FORMATS),
    (["decode", "--q", "9", "--n", "4", "--point", "1,2,3,4"], "decode"),
]


def test_reruns_are_deterministic(capsys):
    covered = {key for key in COMMANDS for argv, _ in RERUNS if tuple(argv[: len(key)]) == key}
    assert covered == set(COMMANDS)
    assert {argv[-1] for argv, _ in RERUNS if argv[0] == "tables"} == set(FORMATS)
    for argv, claim in RERUNS:
        runs = []
        for _ in range(2):
            code = run_cli(argv)
            runs.append((code, _without_timestamp(capsys.readouterr().out)))
        assert runs[0] == runs[1], argv
        assert runs[0][0] == 0, argv
        if claim is not None:
            assert json.loads(runs[0][1])["claim"] == claim, argv


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
# submodules executed, deferred stdlib loaded].  A claim engine `cli` has
# registered but not yet executed is a LazyLoader module, not a ModuleType.
# `dataclasses` and `inspect` (which it imports, with ast, dis and tokenize)
# cost every process about 25 ms; numpy loads inspect and datetime.  The CLI
# parses without argparse (and the gettext and locale it loads) and stamps
# without datetime.
BOUNDARY_PROBE = """
import contextlib, io, json, sys, types
import leetoric, leetoric.cli

def state(code):
    loaded = set(sys.modules) | {m.split('.')[0] for m in sys.modules}
    heavy = loaded & {'numpy', 'scipy', 'importlib.metadata', 'dataclasses', 'inspect',
                      'argparse', 'gettext', 'locale', 'datetime'}
    deferred = loaded & {'csv', 'decimal', 'fractions', 'datetime'}
    executed = (m for m, mod in sys.modules.items()
                if m.startswith('leetoric.') and type(mod) is types.ModuleType)
    return [code, sorted(heavy), sorted(executed), sorted(deferred)]

out = [state(None)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        out.append(state(leetoric.cli.run_cli(argv)))
print(json.dumps(out))
"""

# `import leetoric.cli` executes cli and `instances`, whose CERTIFIED the
# grammar reads.  Every other submodule is registered lazily, so each
# executes only when a command calls it: a process pays the import of what
# its command runs, and the perfbench tracer, installed after that import,
# still finds every module in sys.modules
# (test_tracer_wraps_every_engine_phase).
CLI_MODULES = [f"leetoric.{m}" for m in ("cli", "instances")]

# command words -> the modules its command executes
EXECUTES = {
    ("verify", "chain"): {"lattices"},
    ("verify", "tiling"): {"lee"},
    ("verify", "stabilizers"): {"lee", "toric"},
    ("mindist",): {"lee"},
    ("interleave", "verify"): {"interleave", "lee"},
    ("tables",): {"report"},
    ("decode",): {"lee"},
}

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
    # the sampled sweep is the block product too: no tile of a certified map
    # has two cells in one block, so no seeded pattern can fail
    (["interleave", "verify", "--q", "7", "--n", "3", "--samples", "1000", "--seed", "3"], 0),
    (["interleave", "verify", "--q", "9", "--n", "4", "--samples", "1000000", "--seed", "0"], 0),
    *((["tables", "--format", fmt], 0) for fmt in FORMATS),
]


def run_boundary_probe(commands: list) -> list:
    proc = run_python("-c", BOUNDARY_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _executed_after(argv: list, before: list) -> list:
    key = next(key for key in EXECUTES if tuple(argv[: len(key)]) == key)
    return sorted({*before, *(f"leetoric.{m}" for m in EXECUTES[key])})


def _deferred_after(argv: list, before: list) -> list:
    # the table-only stdlib a command adds: the tables need decimal and
    # fractions, and csv for csv; a certificate adds none
    added = {"decimal", "fractions"} if argv[0] == "tables" else set()
    return sorted({*before, *added, *(["csv"] if "csv" in argv else [])})


def test_import_pulls_in_no_scipy_or_dist_metadata():
    # no import or command loads numpy, dataclasses, argparse, gettext,
    # locale or datetime, the certified sampled sweep included.  `import
    # leetoric` loads none of csv, decimal or fractions; each loads with the
    # first command that prints what needs it.
    after_import, *runs = run_boundary_probe([argv for argv, _ in NUMPY_FREE_COMMANDS])
    assert after_import == [None, [], CLI_MODULES, []]
    executed, deferred, want = CLI_MODULES, [], []
    for argv, code in NUMPY_FREE_COMMANDS:
        executed = _executed_after(argv, executed)
        deferred = _deferred_after(argv, deferred)
        want.append([code, [], executed, deferred])
    assert runs == want
    assert deferred == ["csv", "decimal", "fractions"]
    tables = ["tables", "--format", "csv"]
    executed = _executed_after(tables, CLI_MODULES)
    assert run_boundary_probe([tables])[1] == [0, [], executed, ["csv", "decimal", "fractions"]]


@pytest.mark.parametrize("key", COMMANDS, ids=" ".join)
def test_each_command_executes_only_the_engines_it_calls(key):
    # each command in its own fresh interpreter: the code layer, cli and the
    # claim engines EXECUTES names, nothing else
    argv = next(argv for argv, _ in NUMPY_FREE_COMMANDS if tuple(argv[: len(key)]) == key)
    code, _, executed, _ = run_boundary_probe([argv])[1]
    assert code == 0
    assert executed == _executed_after(argv, CLI_MODULES)


# Runs in a fresh interpreter.  `import leetoric.cli` registers each claim
# engine unexecuted, in sys.modules and on the package as an import binds a
# submodule; an import statement then finds that module object, which its
# first attribute read executes.  Prints [engines left unexecuted by the
# CLI's import, engines whose package attribute is not their sys.modules
# entry, the commutation verdict read through the package].
PARENT_PROBE = """
import json, sys, types
import leetoric.cli
names = ('interleave', 'lattices', 'report', 'toric')
lazy = [m for m in names if type(sys.modules[f'leetoric.{m}']) is not types.ModuleType]
unbound = [m for m in names if getattr(leetoric, m) is not sys.modules[f'leetoric.{m}']]
import leetoric.toric
print(json.dumps([lazy, unbound, leetoric.toric.commutation_check(5, 2)]))
"""


def test_lazy_engines_are_bound_on_the_package():
    proc = run_python("-c", PARENT_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["interleave", "lattices", "report", "toric"], [], True]


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Runs in a fresh interpreter as a traced perfbench child does: import the
# CLI, then perfbench/tracer.py by path, install it, run each argv given as
# JSON in argv[2] and dump the spans, a marker and JSON, on stderr.
TRACER_PROBE = """
import contextlib, importlib.util, io, json, sys
import leetoric.cli
spec = importlib.util.spec_from_file_location('tracer', sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.install()
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        if leetoric.cli.run_cli(argv) != 0:
            raise SystemExit(f'{argv} did not pass')
tracer.dump()
"""


def test_tracer_wraps_every_engine_phase():
    # the tracer installs before any command has executed an engine, and
    # still times each phase the roadmap names
    commands = [
        ["verify", "chain", "--q", "7"],
        ["verify", "tiling", "--q", "7", "--n", "3"],
        ["mindist", "--q", "7", "--n", "3"],
        ["decode", "--q", "7", "--n", "3", "--point", "1,2,3"],
        ["verify", "stabilizers", "--q", "7", "--n", "3"],
        ["interleave", "verify", "--q", "7", "--n", "3"],
        ["tables", "--format", "csv"],
    ]
    proc = run_python("-c", TRACER_PROBE, str(TRACER), json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stderr.splitlines()[-1].partition(" ")[2])
    spans = {span[0] for span in record["spans"]}
    assert spans >= {
        "lattices.verify_chain", "lattices.coset_count", "lee.tiling_check",
        "lee.minimum_distance", "toric.commutation_check",
        "interleave.build_interleaver", "interleave.verify_burst_correction",
        "report.emit_tables",
    }


# Runs in a fresh interpreter as perfbench's decode-stream child does: a bare
# `import leetoric`, then perfbench/tracer.py by path, installed; then both
# certified codes built and a few points decoded through the package's names,
# and the spans dumped on stderr.
STREAM_TRACER_PROBE = """
import importlib.util, sys
import leetoric
spec = importlib.util.spec_from_file_location('tracer', sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.install()
from leetoric import certified_code, decode_nearest
codes = {7: certified_code(7, 3), 9: certified_code(9, 4)}
for point in ((1, 2, 3), (-1, 0, 5), (1, 2, 3, 4), (0, 0, 0, 9), (3, 3, 3)):
    decode_nearest(point, codes[9 if len(point) == 4 else 7])
tracer.dump()
"""


def test_tracer_wraps_the_code_layer_after_a_bare_import():
    # `import leetoric` registers instances and lee, unexecuted, so the tracer
    # finds them in sys.modules and the names read after it are its wrappers
    proc = run_python("-c", STREAM_TRACER_PROBE, str(TRACER))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stderr.splitlines()[-1].partition(" ")[2])
    spans = [span[0] for span in record["spans"]]
    assert spans.count("instances.certified_code") == 2
    assert spans.count("lee.enumerate_codewords") == 2
    assert spans.count("lee.decode_nearest.first") == 2
    leaves = {name: calls for name, _, calls, _ in record["leaves"]}
    assert leaves == {"lee.decode_nearest.warm": 3}


# Runs in a fresh interpreter and prints which submodules have executed
# when: `import leetoric` alone, then `dir`, an unknown name, `verify_chain`
# and `table_rows`; then the public names whose attribute, `from leetoric
# import` value and home module's object (CERTIFIED, a tuple, has no
# __module__ and lives in instances) are not one object.  A submodule
# registered but not yet executed is a LazyLoader module, not a ModuleType.
# json loads only to print the result.
LAZY_PROBE = """
import sys, types
import leetoric

def submodules():
    return sorted(m[len('leetoric.'):] for m, mod in sys.modules.items()
                  if m.startswith('leetoric.') and type(mod) is types.ModuleType)

out = {'import': submodules(), 'stdlib': sorted({'json', 'numpy'} & set(sys.modules))}
out['dir'] = sorted(set(leetoric.__all__) - set(dir(leetoric)))
out['unknown'] = not hasattr(leetoric, 'no_such_name') and submodules()
leetoric.verify_chain
out['verify_chain'] = submodules()
leetoric.table_rows
out['table_rows'] = submodules()
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
    # `import leetoric` executes no submodule: each executes with the first
    # public name read from it, and the tracer's swaps by identity still hold
    proc = run_python("-c", LAZY_PROBE)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["import"] == []
    assert out["stdlib"] == []
    assert out["dir"] == []
    assert out["unknown"] == []
    assert out["verify_chain"] == ["lattices"]
    # the tables read the paper's records from report, which takes the qubit
    # counts from instances and needs neither lee, toric nor the interleaver
    assert out["table_rows"] == ["instances", "lattices", "report"]
    assert out["differ"] == [] and len(leetoric.__all__) == 38


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


# Runs in a fresh interpreter where `import numpy` raises ImportError and
# prints, as a Python literal, each decode refusal as [exception type, text]:
# a float coordinate at (7,3) on a cold and then on a warm code, then two
# decodes of a code that does not tile, each with whether a record was stored.
DECODE_NO_NUMPY_PROBE = """
import sys
sys.modules['numpy'] = None
import leetoric

def refusal(point, code):
    try:
        leetoric.decode_nearest(point, code)
    except (TypeError, ValueError) as exc:
        return [type(exc).__name__, str(exc)]

code = leetoric.enumerate_codewords(leetoric.code_generators(7, 3), 7, 3)
out = [refusal((1, 1, 1.0), code)[0]]
leetoric.decode_nearest((1, 1, 1), code)
out.append(refusal((1, 1, 1.0), code)[0])
code = leetoric.enumerate_codewords(((1, 1, 0), (0, 1, 1)), 7, 3)
for _ in range(2):
    out.append(refusal((0, 0, 1), code) + ['_decoder' in vars(code)])
print(out)
"""


def test_decode_refusals_without_numpy():
    # a float coordinate is a TypeError, not a truncated rank; a code that
    # does not tile refuses every decode and stores no record
    proc = run_python("-c", DECODE_NO_NUMPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    cold, warm, *not_tiling = ast.literal_eval(proc.stdout)
    assert cold == warm == "TypeError"
    assert not_tiling == [["ValueError", "decoding not unique", False]] * 2


def certificate_commands() -> list:
    """Every COMMANDS certificate command at both certified instances, with its exit code."""
    commands = [(["verify", "tiling", "--q", "7", "--n", "3", "--generators", "1,1,0;0,1,1"], 1)]
    for q, n in leetoric.CERTIFIED:
        qn = ["--q", str(q), "--n", str(n)]
        commands += [
            (["verify", "chain", "--q", str(q)], 0),
            (["verify", "tiling", *qn], 0),
            (["verify", "stabilizers", *qn], 0),
            (["mindist", *qn], 0),
            (["interleave", "verify", *qn, "--exhaustive"], 0),
            (["interleave", "verify", *qn, "--samples", "1000", "--seed", "3"], 0),
            (["decode", *qn, "--point", ",".join(map(str, range(-2, n - 2)))], 0),
        ]
    keys = {key for key in COMMANDS for argv, _ in commands if tuple(argv[: len(key)]) == key}
    assert keys == set(COMMANDS) - {("tables",)}
    return commands


# Runs in a fresh interpreter that imports no json itself: runs each command
# given as one space-separated argv argument and prints, as a Python literal,
# whether json is loaded after `import leetoric.cli` and then [exit code,
# json loaded] after each command.
JSON_PROBE = """
import contextlib, io, sys
import leetoric.cli
out = ['json' in sys.modules]
for arg in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        out.append([leetoric.cli.run_cli(arg.split()), 'json' in sys.modules])
print(out)
"""


def test_no_command_loads_json():
    # certificates and the tables in every format, json-lines included, are
    # written by cli._encode, so json stays unloaded after every command
    commands = [
        *certificate_commands(),
        *((["tables", "--format", fmt], 0) for fmt in FORMATS),
    ]
    proc = run_python("-c", JSON_PROBE, *(" ".join(argv) for argv, _ in commands))
    assert proc.returncode == 0, proc.stderr
    after_import, *runs = ast.literal_eval(proc.stdout)
    assert after_import is False
    assert runs == [[code, False] for _, code in commands]


def test_certificate_json_is_json_dumps(capsys, monkeypatch):
    # json is the oracle: every printed certificate is json.dumps's bytes
    printed = []
    real = cli.certificate_json
    monkeypatch.setattr(cli, "certificate_json", lambda cert: printed.append(cert) or real(cert))
    commands = certificate_commands()
    for argv, code in commands:
        assert run_cli(argv) == code, argv
        line = capsys.readouterr().out
        assert line == json.dumps(printed[-1]._asdict()) + "\n", argv
    assert len(printed) == len(commands)


def test_certificate_json_crafted_values():
    counts = {
        "nested": [[1, [2, [], [[]]]], [{}], [{"a": [None]}]],
        "ints": [0, -1, -(2**70), 2**100, 10**30 + 7],
        "empty_list": [],
        "empty_dict": {},
        "none": None,
        "bools": [True, False],
        "str": " printable ASCII: ~!#$%&'()*+,-./09:;<=>?@AZ[]^_`az{|}",
        "": "",
    }
    cert = make_certificate("crafted", {"q": -3, "flag": False}, True, counts)
    assert certificate_json(cert) == json.dumps(cert._asdict())


@pytest.mark.parametrize(
    "value",
    [1.5, float("nan"), {1: 2}, {"a": {(0,): 1}}, "a\"b", "a\\b", "tab\there", "\x7f",
     "caf\u00e9", "\u2212", {"quo\"te": 1}, (1, 2), [1, b"x"], {"s": {1}}],
    ids=["float", "nan", "int-key", "tuple-key", "quote", "backslash", "control", "del",
         "latin", "non-latin", "escaped-key", "tuple", "bytes", "set"],
)
def test_certificate_json_refuses_other_values(value):
    # no fallback to json: a value json would write otherwise, or escape, is refused
    cert = make_certificate("crafted", {}, True, {"value": value})
    with pytest.raises(TypeError):
        certificate_json(cert)
