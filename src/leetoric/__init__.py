"""Toric quantum codes from perfect Lee-sphere lattice codes.

The package certifies, by exact computation, the chain of constructions
behind a family of burst-error-correcting toric quantum codes: nested
integer lattices, perfect radius-1 Lee-sphere codes and their tilings,
stabilizer supports on periodic hypercubic complexes, a burst interleaver,
and the rate/gain tables of the resulting codes.

`import leetoric` loads the code layer only: `instances` and `lee`, which
is all a decoding process calls.  The names of the claim engines
(`lattices`, `toric`, `interleave`, `report`) and the certificate record
(`cli`) load their module on first access and are then cached here; _LAZY
names each with its module, and __all__ is the eager names and _LAZY's keys,
sorted.  `cli` registers the four claim engines as lazy modules, so a CLI
process executes only those its command calls.
"""

__version__ = "0.1.0"  # read by setuptools and stamped on every certificate

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
        ("CodeParams", "RateGain", "TableRow", "emit_tables", "interleaved_params",
         "literature_params", "new_code_params", "parse_tables", "rate_gain", "table_rows"),
        "report",
    ),
    "VerificationCertificate": "cli",
    "commutation_check": "toric",
}

__all__ = sorted([
    "CERTIFIED", "DecodeResult", "LeeCode", "LeeSphere", "certified_code", "code_generators",
    "decode_nearest", "enumerate_codewords", "lee_sphere", "mannheim_weight",
    "minimum_distance", "scaling_matrix", "symmetric_residue", "tiling_check", *_LAZY,
])


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
