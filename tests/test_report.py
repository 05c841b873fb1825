from __future__ import annotations

import json
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from leetoric import (
    CodeParams,
    __version__,
    emit_tables,
    interleaved_params,
    literature_params,
    new_code_params,
    parse_tables,
    rate_gain,
    table_rows,
)
from leetoric.cli import certificate_json, make_certificate
from leetoric.report import render_rate

GOLDEN_CELLS = [
    (1, "0.00292", "0.01168"),
    (1, "0.000152", "0.006232"),
    (1, "0.1429", "0.2858"),
    (1, "0.1111", "0.2222"),
    (2, "0.1429", "1.1432"),
    (2, "0.1111", "1.111"),
]


def test_render_rate_frozen_values():
    # each golden row's exact rate renders to its golden digits
    rendered = [render_rate(r.rate_exact) for r in table_rows()]
    assert rendered == [rate for _, rate, _ in GOLDEN_CELLS]


def test_render_rate_half_even_ties():
    # .11115 and .11125 both land on the even fourth digit
    assert render_rate(Fraction(11115, 100_000)) == "0.1112"
    assert render_rate(Fraction(11125, 100_000)) == "0.1112"


def test_render_rate_widens_until_significant():
    # two leading zeros force one extra place
    assert render_rate(Fraction(1, 1000)) == "0.00100"
    # short terminating rates keep their four places
    assert render_rate(Fraction(1, 2)) == "0.5000"
    with pytest.raises(ValueError):
        render_rate(Fraction(0, 5))


def test_render_rate_stays_fixed_point_below_a_millionth():
    # Decimal's str would write these as 1E-7 and 1E-13
    assert render_rate(Fraction(1, 10**7)) == "0.000000100"
    assert render_rate(Fraction(1, 10**13)) == "0.000000000000100"
    assert rate_gain(CodeParams(10**7, 1, None, 1)).gain_printed == "0.0000002"
    assert rate_gain(CodeParams(10**11, 1, None, 0)).rate_printed == "0.0000000000100"


def _significant(rendered: str) -> int:
    return len(rendered.replace(".", "").lstrip("0"))


def test_every_small_rate_renders_fixed_point_with_three_digits():
    # every k/N with k < 40 and N < 3000, then gains at every t <= 44 for a
    # stride of those N: no exponent, and the gain is the printed rate's
    # exact multiple
    for n_code in range(1, 3000):
        for k in range(1, min(n_code, 39) + 1):
            rendered = render_rate(Fraction(k, n_code))
            assert "E" not in rendered and _significant(rendered) >= 3, (k, n_code)
    for n_code in range(1, 3000, 97):
        for k in range(1, min(n_code, 39) + 1):
            for t in range(45):
                rg = rate_gain(CodeParams(n_code, k, None, t))
                assert "E" not in rg.gain_printed, (k, n_code, t)
                assert Decimal(rg.gain_printed) == Decimal(rg.rate_printed) * (t + 1)


# Runs in a fresh interpreter: setuptools reads the version attribute that
# pyproject.toml names from the source, without importing the package, and
# prints [the version, whether leetoric was imported].
READ_ATTR_PROBE = """
import json, sys
from setuptools.config.expand import read_attr
version = read_attr('leetoric.__version__', {'': 'src'}, sys.argv[1])
print(json.dumps([version, 'leetoric' in sys.modules]))
"""


def test_setuptools_reads_the_version_statically():
    pytest.importorskip("setuptools.config.expand")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", READ_ATTR_PROBE, str(root)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [__version__, False]
    assert 'attr = "leetoric.__version__"' in (root / "pyproject.toml").read_text()


def test_rate_gain_exact_invariants():
    for p in (
        literature_params(7, 3),
        literature_params(9, 4),
        new_code_params(7, 3),
        new_code_params(9, 4),
        interleaved_params(7, 3),
        interleaved_params(9, 4),
    ):
        rg = rate_gain(p)
        assert rg.rate == Fraction(p.k, p.n_code)
        assert rg.gain == rg.rate * (p.t + 1)


def test_gain_trailing_zeros_trimmed():
    synthetic = CodeParams(n_code=2, k=1, d=None, t=1)
    rg = rate_gain(synthetic)
    assert rg.rate_printed == "0.5000"
    assert rg.gain_printed == "1"


def test_table_rows_golden_cells():
    rows = table_rows()
    assert len(rows) == 6
    cells = [(r.table, r.rate_printed, r.gain_printed) for r in rows]
    assert cells == GOLDEN_CELLS


def test_table_rows_labels():
    labels = [r.label for r in table_rows()]
    assert labels == [
        "[[3q^3,3,t=3]] (q=7)",
        "[[6q^4,6,t=40]] (q=9)",
        "[[3q=21,k=3,t=1]] (q=7)",
        "[[6q=54,k=6,t=1]] (q=9)",
        "[[3q^3,3q^2,t_i=q]] (q=7)",
        "[[6q^4,6q^3,t_i=q]] (q=9)",
    ]


def test_markdown_contains_all_cells():
    text = emit_tables("markdown")
    for _, rate, gain in GOLDEN_CELLS:
        assert f" {rate} " in text
        assert f" {gain} " in text
    assert "Table 1" in text and "Table 2" in text


def test_csv_round_trip():
    rows = table_rows()
    text = emit_tables("csv")
    assert text.splitlines()[0].startswith("table,label,n,k,t,rate,gain")
    assert len(text.splitlines()) == 7
    assert parse_tables(text, "csv") == rows


def test_json_lines_round_trip():
    rows = table_rows()
    text = emit_tables("json-lines")
    lines = text.strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        record = json.loads(line)
        assert Fraction(record["rate_exact"]).denominator > 1
    assert parse_tables(text, "json-lines") == rows


def test_json_lines_tables_are_json_dumps():
    # json is the oracle, as for certificates: each line is json.dumps's bytes
    records = [
        {"table": r.table, "label": r.label, "n": r.n_code, "k": r.k, "t": r.t,
         "rate": r.rate_printed, "gain": r.gain_printed,
         "rate_exact": str(r.rate_exact), "gain_exact": str(r.gain_exact)}
        for r in table_rows()
    ]
    assert emit_tables("json-lines") == "".join(json.dumps(rec) + "\n" for rec in records)


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown format"):
        emit_tables("yaml")
    with pytest.raises(ValueError, match="unknown format"):
        parse_tables("", "markdown")
    with pytest.raises(ValueError):
        parse_tables("bad,header\n1,2", "csv")


_CSV_ROW = emit_tables("csv").splitlines()[1]
_JSON_RECORD = json.loads(emit_tables("json-lines").splitlines()[0])


@pytest.mark.parametrize(
    "text,fmt",
    [
        (emit_tables("csv") + _CSV_ROW + ",extra\n", "csv"),
        (emit_tables("csv") + _CSV_ROW.rsplit(",", 1)[0] + "\n", "csv"),
        (json.dumps({k: v for k, v in _JSON_RECORD.items() if k != "gain"}), "json-lines"),
        ("[1, 2, 3]\n", "json-lines"),
        ("", "csv"),
        (json.dumps({**_JSON_RECORD, "table": None}), "json-lines"),
        (json.dumps({**_JSON_RECORD, "k": True}), "json-lines"),
        (emit_tables("csv") + _CSV_ROW.rsplit(",", 1)[0] + ",1/0\n", "csv"),
        (json.dumps({**_JSON_RECORD, "rate_exact": "1/0"}), "json-lines"),
    ],
    ids=[
        "csv-extra-field", "csv-short-row", "json-missing-key", "json-not-object",
        "csv-empty", "json-null-field", "json-bool-count", "csv-zero-denominator",
        "json-zero-denominator",
    ],
)
def test_parse_tables_refuses_malformed_records(text, fmt):
    with pytest.raises(ValueError):
        parse_tables(text, fmt)


def test_certificate_fields_and_serialization():
    cert = make_certificate(
        "perfect-tiling", {"q": 7, "n": 3}, True, {"codewords": 49}
    )
    assert cert.passed is True
    assert cert.claim == "perfect-tiling"
    loaded = json.loads(certificate_json(cert))
    assert loaded["inputs"] == {"q": 7, "n": 3}
    assert loaded["counts"] == {"codewords": 49}
    assert loaded["version"] == __version__
    assert "generated_at" in loaded


def test_generated_at_is_the_utc_isoformat_stamp(monkeypatch):
    import time
    from datetime import datetime, timezone

    stamp = make_certificate("claim", {}, True).generated_at
    parsed = datetime.fromisoformat(stamp)
    assert stamp.endswith("+00:00") and parsed.utcoffset().total_seconds() == 0
    assert abs(datetime.now(timezone.utc) - parsed).total_seconds() < 1
    for ns, want in [
        (1_700_000_000_000_000_000, "2023-11-14T22:13:20+00:00"),
        (1_700_000_000_123_456_789, "2023-11-14T22:13:20.123456+00:00"),
        (1_700_000_000_000_001_000, "2023-11-14T22:13:20.000001+00:00"),
    ]:
        monkeypatch.setattr(time, "time_ns", lambda: ns)
        assert make_certificate("claim", {}, True).generated_at == want
        # what datetime gives for the same instant, at microsecond precision
        moment = datetime.fromtimestamp(ns // 10**9, timezone.utc)
        assert want == moment.replace(microsecond=ns // 1000 % 10**6).isoformat()


def test_report_records_are_immutable_tuples():
    cert = make_certificate("claim", {"q": 9}, True)
    row = table_rows()[0]
    rg = rate_gain(new_code_params(7, 3))
    for record, name in ((cert, "passed"), (row, "label"), (rg, "rate")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert rg == (rg.rate, rg.gain, rg.rate_printed, rg.gain_printed)
    assert json.loads(certificate_json(cert)) == cert._asdict()
    assert list(cert._asdict()) == [
        "claim", "inputs", "passed", "counts", "version", "generated_at",
    ]


def test_certificate_result_fields_reproducible():
    a = make_certificate("claim", {"q": 9}, False, {"x": 1})
    b = make_certificate("claim", {"q": 9}, False, {"x": 1})
    assert (a.claim, a.inputs, a.passed, a.counts, a.version) == (
        b.claim,
        b.inputs,
        b.passed,
        b.counts,
        b.version,
    )
