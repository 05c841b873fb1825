from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leetoric
from leetoric import emit_tables, interleave, lee, toric
from leetoric.cli import main, run_cli
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


@pytest.mark.parametrize("n", [4, 40])
def test_verify_tiling_refuses_oversized_space(capsys, n):
    generators = ",".join(["1"] + ["0"] * (n - 1))
    argv = ["verify", "tiling", "--q", "50", "--n", str(n), "--generators", generators]
    assert run_cli(argv) == 2
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


@pytest.mark.parametrize("n", ["4", "40"])
def test_verify_stabilizers_refuses_oversized_torus(capsys, monkeypatch, n):
    def no_allocation(*args):
        raise AssertionError("support rows built past the work limit")

    monkeypatch.setattr(toric, "support_rows", no_allocation)
    assert run_cli(["verify", "stabilizers", "--q", "50", "--n", n]) == 2
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
    assert cert["counts"]["method"] == "mask-quotient"
    assert cert["counts"]["masks_checked"] == 343 * 2**7 == 43_904


def test_interleave_verify_exhaustive_4d(capsys):
    code, cert = run_and_parse(
        capsys, ["interleave", "verify", "--q", "9", "--n", "4", "--exhaustive"]
    )
    assert code == 0
    assert cert["inputs"]["mode"] == "exhaustive"
    assert cert["counts"]["patterns_checked"] == 6561 * 7**9 == 264_760_015_527
    assert cert["counts"]["failures"] == 0
    assert cert["counts"]["max_block_errors"] == 1
    assert cert["counts"]["method"] == "mask-quotient"
    assert cert["counts"]["masks_checked"] == 6561 * 2**9 == 3_359_232


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
    assert cert["counts"]["masks_checked"] is None


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
# submodules loaded].
BOUNDARY_PROBE = """
import contextlib, io, json, sys
import leetoric, leetoric.cli

def state(code):
    loaded = set(sys.modules) | {m.split('.')[0] for m in sys.modules}
    heavy = loaded & {'numpy', 'scipy', 'importlib.metadata'}
    return [code, sorted(heavy), sorted(m for m in loaded if m.startswith('leetoric.'))]

out = [state(None)]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        out.append(state(leetoric.cli.run_cli(argv)))
print(json.dumps(out))
"""

# The perfbench tracer wraps functions of modules loaded by `import leetoric`.
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
    *((["tables", "--format", fmt], 0) for fmt in FORMATS),
]

NUMPY_COMMANDS = [
    ["verify", "stabilizers", "--q", "5", "--n", "2"],
    ["interleave", "verify", "--q", "7", "--n", "3", "--exhaustive"],
]


def run_boundary_probe(commands: list) -> list:
    proc = run_python("-c", BOUNDARY_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_pulls_in_no_scipy_or_dist_metadata():
    # numpy is loaded only by the commands that build arrays.
    after_import, *runs = run_boundary_probe([argv for argv, _ in NUMPY_FREE_COMMANDS])
    assert after_import == [None, [], SUBMODULES]
    assert runs == [[code, [], SUBMODULES] for _, code in NUMPY_FREE_COMMANDS]
    for argv in NUMPY_COMMANDS:
        assert run_boundary_probe([argv])[1] == [0, ["numpy"], SUBMODULES], argv
