"""Two-bridge links in Conway form: combinatorial stable-map models,
singular-fiber censuses, and volume-based complexity certificates.

Importing the package loads none of its submodules.  A public name is
looked up in its submodule on first read (PEP 562), which imports that
submodule then, and is kept here, so every later read is a plain
attribute read."""

from importlib import import_module

__version__ = "0.1.0"

_NAMES = {
    "conway": (
        "ConwayWord",
        "FailureReport",
        "SchubertFraction",
        "all_b_even",
        "component_count",
        "even_b_normalize",
        "format_conway",
        "fraction_of",
        "is_reduced_alternating",
        "parse_conway",
        "schubert_equivalent",
        "transform",
        "twist_number",
    ),
    "curves": (
        "Column",
        "ImmersedCurve",
        "PlatDiagram",
        "Strip",
        "StripDecomposition",
        "bigon_reduce",
        "build_plat_diagram",
        "outer_smooth",
        "strip_decompose",
    ),
    "morse": (
        "BlockMap",
        "DefiniteFoldTrace",
        "FiberEvent",
        "SingularFiberCensus",
        "StableMapModel",
        "assemble_stable_map",
        "build_block",
        "fiber_census",
        "trace_definite_folds",
        "validate_model",
    ),
    "complexity": (
        "Certificate",
        "ComplexityBounds",
        "V_OCT",
        "VolumeRecord",
        "certify_smc",
        "ingest_volume_table",
        "smc_lower_bound_from_volume",
        "smc_upper_bound",
        "volume_upper_bound",
        "weighted_sum",
    ),
    "serialize": ("SCHEMA_VERSION", "export_json", "import_json"),
    "render": ("render_svg",),
    "errors": ("errors",),  # the submodule itself
}
_SUBMODULE = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    submodule = import_module(f".{module}", __name__)
    value = globals()[name] = submodule if name == module else getattr(submodule, name)
    return value


def __dir__() -> list[str]:
    return sorted({*__all__, *globals()})
