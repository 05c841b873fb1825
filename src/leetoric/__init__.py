"""Toric quantum codes from perfect Lee-sphere lattice codes.

The package certifies, by exact computation, the chain of constructions
behind a family of burst-error-correcting toric quantum codes: nested
integer lattices, perfect radius-1 Lee-sphere codes and their tilings,
stabilizer supports on periodic hypercubic complexes, a burst interleaver,
and the rate/gain tables of the resulting codes.

`import leetoric` loads the code layer only: `_version`, `instances` and
`lee`, which is all a decoding process calls.  The names of the claim
engines (`lattices`, `toric`, `interleave`, `report`) load their module on
first access and are then cached here.  `cli` still imports every module it
dispatches to at its top: perfbench's tracer wraps the functions of the
modules loaded when it installs, after `import leetoric.cli`, so a module a
command loaded later would go untimed.
"""

from ._version import __version__
from .instances import CERTIFIED, certified_code, code_generators, scaling_matrix
from .lee import (
    DecodeResult,
    LeeCode,
    LeeSphere,
    decode_nearest,
    enumerate_codewords,
    lee_sphere,
    mannheim_weight,
    minimum_distance,
    symmetric_residue,
    tiling_check,
)

# public name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(
        ("BurstSweepSummary", "InterleaverMap", "LogicalIndex", "PhysicalSlot",
         "all_burst_translates", "build_interleaver", "verify_burst_correction"),
        "interleave",
    ),
    **dict.fromkeys(
        ("ChainReport", "IntMatrix", "coset_count", "determinant", "hermite_form", "verify_chain"),
        "lattices",
    ),
    **dict.fromkeys(
        ("CodeParams", "RateGain", "TableRow", "VerificationCertificate", "emit_tables",
         "interleaved_params", "literature_params", "new_code_params", "parse_tables",
         "rate_gain", "table_rows"),
        "report",
    ),
    "commutation_check": "toric",
}

__all__ = [
    "BurstSweepSummary",
    "CERTIFIED",
    "ChainReport",
    "CodeParams",
    "DecodeResult",
    "IntMatrix",
    "InterleaverMap",
    "LeeCode",
    "LeeSphere",
    "LogicalIndex",
    "PhysicalSlot",
    "RateGain",
    "TableRow",
    "VerificationCertificate",
    "all_burst_translates",
    "build_interleaver",
    "certified_code",
    "code_generators",
    "commutation_check",
    "coset_count",
    "decode_nearest",
    "determinant",
    "emit_tables",
    "enumerate_codewords",
    "hermite_form",
    "interleaved_params",
    "lee_sphere",
    "literature_params",
    "mannheim_weight",
    "minimum_distance",
    "new_code_params",
    "parse_tables",
    "rate_gain",
    "scaling_matrix",
    "symmetric_residue",
    "table_rows",
    "tiling_check",
    "verify_burst_correction",
    "verify_chain",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
