"""Toric quantum codes from perfect Lee-sphere lattice codes.

The package certifies, by exact computation, the chain of constructions
behind a family of burst-error-correcting toric quantum codes: nested
integer lattices, perfect radius-1 Lee-sphere codes and their tilings,
stabilizer supports on periodic hypercubic complexes, a burst interleaver,
and the rate/gain tables of the resulting codes.
"""

from ._version import __version__
from .instances import CERTIFIED, certified_code, code_generators, scaling_matrix
from .interleave import (
    BurstSweepSummary,
    InterleaverMap,
    LogicalIndex,
    PhysicalSlot,
    all_burst_translates,
    build_interleaver,
    interleaved_params,
    verify_burst_correction,
)
from .lattices import (
    ChainReport,
    IntMatrix,
    coset_count,
    determinant,
    hermite_form,
    verify_chain,
)
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
from .report import (
    RateGain,
    TableRow,
    VerificationCertificate,
    emit_tables,
    parse_tables,
    rate_gain,
    table_rows,
)
from .toric import (
    CodeParams,
    commutation_check,
    literature_params,
    new_code_params,
)

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
