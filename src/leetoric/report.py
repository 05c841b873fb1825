"""The paper's code records and their rate/gain tables.

The quantum records are the paper's printed values, not derived here; only
the tables read them.  Rates are exact rationals R = k/n rendered half-even
at four decimal places, widened one place at a time until at least three
significant digits survive.  The printed gain is the exact decimal product
rounded-rate x (t+1), trailing zeros trimmed, with the exact G = R(t+1)
alongside; it is a plain ratio, not dB, and reproduces the printed digits.
"""

from __future__ import annotations

import json  # csv, decimal and fractions load where used (annotations are strings)
from operator import index
from typing import NamedTuple, Optional

from .instances import CERTIFIED, require_certified
from .toric import qubit_cell_dim, qubits_per_vertex


class CodeParams(
    NamedTuple("CodeParams", [("n_code", int), ("k", int), ("d", Optional[int]), ("t", int)])
):
    """Quantum code parameter record [[n_code, k, d]] with capability t.

    d may be None for records that claim a correction capability without
    claiming a minimum distance (the interleaved codes do exactly that);
    when d is present, t must be the derived floor((d-1)/2).
    """

    __slots__ = ()

    def __new__(cls, n_code: int, k: int, d: Optional[int], t: int) -> "CodeParams":
        if not (n_code >= k >= 1):
            raise ValueError("need n_code >= k >= 1")
        if d is not None:
            if d < 1:
                raise ValueError("distance must be positive")
            if t != (d - 1) // 2:
                raise ValueError("t must equal floor((d-1)/2)")
        elif t < 0:
            raise ValueError("capability must be nonnegative")
        return super().__new__(cls, n_code, k, d, t)

    # tuple's _make, and so _replace, would skip the checks in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))


def literature_params(q: int, n: int) -> CodeParams:
    """Parameter record of the standard toric code on the q^n torus.

    [[alpha q^n, alpha, q^min(c, n-c)]] for qubits on c-cells: there are
    alpha = C(n, c) = dim H_c(T^n) logical qubits, and the shortest logical
    operators are the c- and (n-c)-dimensional slices of the torus.
    """
    q, n = index(q), index(n)
    if q < 2:
        raise ValueError("need q >= 2")
    if not 2 <= n <= 4:
        raise ValueError("unsupported dimension")
    alpha, c = qubits_per_vertex(n), qubit_cell_dim(n)
    d = q ** min(c, n - c)
    return CodeParams(n_code=alpha * q**n, k=alpha, d=d, t=(d - 1) // 2)


def new_code_params(q: int, n: int) -> CodeParams:
    """Parameter record of the Lee-sphere-based code on the certified tori.

    alpha qubits on each of the q = |det M| vertices of Z^n / L(M); the
    distance 3 is the Lee code's.
    """
    q, n = require_certified(q, n)
    alpha = qubits_per_vertex(n)
    return CodeParams(n_code=alpha * q, k=alpha, d=3, t=1)


def interleaved_params(q: int, n: int) -> CodeParams:
    """Parameter record of the interleaved code on a certified instance.

    It is q^(n-1) = [L(M) : qZ^n] copies of the new code [[alpha q, alpha]].
    The capability t is the burst-correction capability q; no minimum
    distance is claimed, so the distance field stays empty.
    """
    q, n = require_certified(q, n)
    alpha = qubits_per_vertex(n)
    return CodeParams(n_code=alpha * q**n, k=alpha * q ** (n - 1), d=None, t=q)


class RateGain(NamedTuple):
    """Exact rate and gain of a code record, plus their printed renderings."""

    rate: Fraction
    gain: Fraction
    rate_printed: str
    gain_printed: str


class TableRow(NamedTuple):
    table: int
    label: str
    n_code: int
    k: int
    t: int
    rate_printed: str
    gain_printed: str
    rate_exact: Fraction
    gain_exact: Fraction


def _round_half_even(value: Fraction, places: int) -> Decimal:
    from decimal import Decimal
    scaled = value * 10**places
    quot, rem = divmod(scaled.numerator, scaled.denominator)
    twice = 2 * rem
    if twice > scaled.denominator or (twice == scaled.denominator and quot % 2):
        quot += 1
    return Decimal(quot).scaleb(-places)


def _significant_digits(rendered: str) -> int:
    return len(rendered.replace("-", "").replace(".", "").lstrip("0"))


_RATE_PLACES = 4
_MIN_SIGNIFICANT = 3


def render_rate(rate: Fraction) -> str:
    """Half-even decimal rendering, widened until enough digits survive.

    Starts at _RATE_PLACES places and widens, to at most twelve, until
    _MIN_SIGNIFICANT significant digits survive.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    for places in range(_RATE_PLACES, 13):
        s = str(_round_half_even(rate, places))
        if _significant_digits(s) >= _MIN_SIGNIFICANT:
            break
    return s


def _trim_zeros(rendered: str) -> str:
    if "." in rendered:
        rendered = rendered.rstrip("0").rstrip(".")
    return rendered


def rate_gain(p: CodeParams) -> RateGain:
    """Exact R = k/n and G = R(t+1), with the printed digit conventions."""
    from decimal import Decimal
    from fractions import Fraction
    rate = Fraction(p.k, p.n_code)
    gain = rate * (p.t + 1)
    rate_printed = render_rate(rate)
    gain_printed = _trim_zeros(str(Decimal(rate_printed) * (p.t + 1)))
    return RateGain(rate, gain, rate_printed, gain_printed)


def _row(table: int, label: str, p: CodeParams) -> TableRow:
    rg = rate_gain(p)
    return TableRow(
        table=table, label=label, n_code=p.n_code, k=p.k, t=p.t,
        rate_printed=rg.rate_printed, gain_printed=rg.gain_printed,
        rate_exact=rg.rate, gain_exact=rg.gain,
    )


def table_rows() -> tuple[TableRow, ...]:
    """The six golden rows: four comparison rows, then the two interleaved.

    Labels spell each record as its qubits per vertex times its vertex count.
    """
    rows = []
    for q, n in CERTIFIED:
        p = literature_params(q, n)
        rows.append(_row(1, f"[[{p.k}q^{n},{p.k},t={p.t}]] (q={q})", p))
    for q, n in CERTIFIED:
        p = new_code_params(q, n)
        rows.append(_row(1, f"[[{p.k}q={p.n_code},k={p.k},t={p.t}]] (q={q})", p))
    for q, n in CERTIFIED:
        p = interleaved_params(q, n)
        a = p.n_code // q**n
        rows.append(_row(2, f"[[{a}q^{n},{a}q^{n - 1},t_i=q]] (q={q})", p))
    return tuple(rows)


_TABLE_TITLES = {
    1: "Table 1: code rate and coding gain of the toric quantum codes",
    2: "Table 2: code rate and coding gain from the interleaving method",
}

_CSV_FIELDS = (
    "table", "label", "n", "k", "t", "rate", "gain", "rate_exact", "gain_exact",
)
# json-lines carries the counts as numbers and every other field as a string
_JSON_TYPES = [int if f in ("table", "n", "k", "t") else str for f in _CSV_FIELDS]


def _record(r: TableRow) -> tuple:
    """The row's _CSV_FIELDS values, typed as json-lines carries them."""
    return (
        r.table, r.label, r.n_code, r.k, r.t, r.rate_printed, r.gain_printed,
        str(r.rate_exact), str(r.gain_exact),
    )


def emit_tables(fmt: str) -> str:
    """Both golden tables in the requested format."""
    rows = table_rows()
    if fmt == "markdown":
        out = []
        for tbl in (1, 2):
            out.append(f"## {_TABLE_TITLES[tbl]}")
            out.append("")
            out.append("| code | rate R | gain G |")
            out.append("| --- | --- | --- |")
            for r in rows:
                if r.table == tbl:
                    out.append(f"| {r.label} | {r.rate_printed} | {r.gain_printed} |")
            out.append("")
        out.append("Gain column: plain ratio R(t+1) as printed; the dB label")
        out.append("customary for coding gain is ambiguous here and not applied.")
        return "\n".join(out) + "\n"
    if fmt == "csv":
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_FIELDS)
        writer.writerows(map(_record, rows))
        return buf.getvalue()
    if fmt == "json-lines":
        return "".join(
            json.dumps(dict(zip(_CSV_FIELDS, _record(r)))) + "\n" for r in rows
        )
    raise ValueError("unknown format")


def parse_tables(text: str, fmt: str) -> tuple[TableRow, ...]:
    """Inverse of emit_tables for the machine formats (csv, json-lines).

    Every record must carry exactly the emitted fields; a missing, extra or
    unparsable one raises ValueError.
    """
    import csv
    import io
    from fractions import Fraction
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        if tuple(next(reader, ())) != _CSV_FIELDS:
            raise ValueError("unexpected csv header")
        records = list(reader)
    elif fmt == "json-lines":
        records = []
        for line in filter(str.strip, text.splitlines()):
            rec = json.loads(line)
            if not isinstance(rec, dict) or rec.keys() != set(_CSV_FIELDS):
                raise ValueError(f"json-lines record must have the keys {_CSV_FIELDS}")
            values = [rec[key] for key in _CSV_FIELDS]
            if list(map(type, values)) != _JSON_TYPES:
                raise ValueError("json-lines record has a field of the wrong type")
            records.append(list(map(str, values)))
    else:
        raise ValueError("unknown format")
    rows = []
    for rec in records:
        if len(rec) != len(_CSV_FIELDS):
            raise ValueError(f"record has {len(rec)} fields, not {len(_CSV_FIELDS)}")
        table, label, n_code, k, t, rate, gain, rate_exact, gain_exact = rec
        try:
            rate_exact, gain_exact = Fraction(rate_exact), Fraction(gain_exact)
        except ZeroDivisionError:
            raise ValueError("record has a zero denominator") from None
        rows.append(TableRow(
            table=int(table), label=label, n_code=int(n_code), k=int(k), t=int(t),
            rate_printed=rate, gain_printed=gain,
            rate_exact=rate_exact, gain_exact=gain_exact,
        ))
    return tuple(rows)
