"""Replay the committed CLI corpus, tests/cli_corpus.json.

Each record is an argv with the exit code, stdout and stderr that
leetoric.cli.run_cli gave for it when the corpus was made, each
generated_at value blanked; tests/make_cli_corpus.py prints it.  Every
record must replay byte for byte, in this process and as a fresh
`python -m leetoric` process, so a change that moves any certificate,
usage line or refusal shows here.  A change that alters a record
regenerates the corpus and names the record and the reason in CHANGES.md;
no record is edited to hide a gap.  This module uses the standard library,
pytest and leetoric only, so it also runs where numpy is absent.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import leetoric
from leetoric.cli import COMMANDS, FORMATS, run_cli

CORPUS_TEXT = Path(__file__).with_name("cli_corpus.json").read_text()
CORPUS = json.loads(CORPUS_TEXT)
SRC = str(Path(leetoric.__file__).resolve().parents[1])


def _blank(out: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', out)


@pytest.mark.parametrize("record", CORPUS, ids=lambda r: " ".join(r["argv"]) or "(no argument)")
def test_record_replays_in_process(capsys, record):
    code = run_cli(record["argv"])
    captured = capsys.readouterr()
    got = {"argv": record["argv"], "exit": code, "stdout": _blank(captured.out), "stderr": captured.err}
    assert got == record


# a certificate that passes, one that fails and a refusal, as the installed
# entry point runs them
FRESH = [
    ["mindist", "--q", "9", "--n", "4"],
    ["verify", "tiling", "--q", "7", "--n", "3", "--generators", "1,1,0;0,1,1"],
    [],
]


@pytest.mark.parametrize("argv", FRESH, ids=lambda argv: " ".join(argv) or "(no argument)")
def test_record_replays_as_a_fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "leetoric", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    record = next(r for r in CORPUS if r["argv"] == argv)
    assert (proc.returncode, _blank(proc.stdout), proc.stderr) == (
        record["exit"], record["stdout"], record["stderr"]
    )


def test_corpus_covers_every_command_at_both_instances():
    argvs = [tuple(r["argv"]) for r in CORPUS]
    assert len(set(argvs)) == len(argvs)
    passed = {}  # command words -> the (q, n) inputs of its passing certificates
    for r in CORPUS:
        key = next((k for k in COMMANDS if tuple(r["argv"][: len(k)]) == k), None)
        if r["exit"] == 0 and r["stdout"].startswith('{"claim"'):
            inputs = json.loads(r["stdout"])["inputs"]
            passed.setdefault(key, set()).add((inputs["q"], inputs["n"]))
    for key in COMMANDS:
        if key != ("tables",):
            assert passed[key] >= set(leetoric.CERTIFIED), key
    formats = {r["argv"][-1] for r in CORPUS if r["argv"][:1] == ["tables"] and r["exit"] == 0}
    assert formats == set(FORMATS)
    assert {r["exit"] for r in CORPUS} == {0, 1, 2}


def test_corpus_is_what_the_generator_prints():
    # with the in-process replay, this proves make_cli_corpus.py prints the file
    import make_cli_corpus

    assert [r["argv"] for r in CORPUS] == make_cli_corpus.ARGVS
    assert CORPUS_TEXT == json.dumps(CORPUS, indent=1) + "\n"
