"""Toric quantum codes from perfect Lee-sphere lattice codes.

The package certifies, by exact computation, the chain of constructions
behind a family of burst-error-correcting toric quantum codes: nested
integer lattices, perfect radius-1 Lee-sphere codes and their tilings,
stabilizer supports on periodic hypercubic complexes, a burst interleaver,
and the rate/gain tables of the resulting codes.

`import leetoric` executes no submodule.  _load, the package's one loader,
registers leetoric.<name> in sys.modules through importlib's LazyLoader and
binds it here; it executes on its first attribute read.  The code layer,
`instances` and `lee`, is registered at import, so that a tracer installed
right after a bare `import leetoric` finds it in sys.modules; any other
submodule registers when its name is first read here.  _LAZY names each
public name with its module, read on first access and then cached here;
__all__ is its keys, sorted.
"""

__version__ = "0.1.0"  # read by setuptools and stamped on every certificate

# public name -> the submodule that defines it
_LAZY = {
    name: module
    for module, names in {
        "cli": "VerificationCertificate",
        "instances": "CERTIFIED certified_code code_generators scaling_matrix",
        "interleave": "BurstSweepSummary InterleaverMap LogicalIndex PhysicalSlot"
        " all_burst_translates build_interleaver verify_burst_correction",
        "lattices": "ChainReport IntMatrix coset_count determinant hermite_form verify_chain",
        "lee": "DecodeResult LeeCode LeeSphere decode_nearest enumerate_codewords lee_sphere"
        " mannheim_weight minimum_distance tiling_check",
        "report": "CodeParams RateGain TableRow emit_tables interleaved_params literature_params"
        " new_code_params parse_tables rate_gain table_rows",
        "toric": "commutation_check",
    }.items()
    for name in names.split()
}

__all__ = sorted(_LAZY)


def _load(name: str):
    """The submodule leetoric.<name>, registered to execute on its first attribute read."""
    import sys

    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        from importlib.util import LazyLoader, find_spec, module_from_spec

        spec = find_spec(fullname)
        spec.loader = LazyLoader(spec.loader)
        sys.modules[fullname] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    # bound here as an import binds a submodule, so `leetoric.lee` reads it
    module = globals()[name] = sys.modules[fullname]
    return module


_load("instances")
_load("lee")


def __getattr__(name: str):
    if name in _LAZY.values():
        return _load(name)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(_LAZY[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
