"""Staged diagonal construction of power-of-two basic sequences, with exact
Cantor-series, equidistribution, and non-normality tooling.

The package builds a strictly increasing position map against a registry of
effectively presented binary sequences (each with declared settling times),
derives from it a sequence of power-of-two bases, and certifies with exact
rational arithmetic that no registered sequence's real number distributes
uniformly mod 1 under those bases. General Cantor-series expansion, mod-1
orbit, and discrepancy tooling come along for the ride.
"""

__version__ = "0.1.0"

# each public name's defining module, imported on first access (PEP 562);
# the name is read from that module on every access, never copied here, so
# it always is what the module binds, also when a caller rebinds it there
_EXPORTS = {
    "records": ("DyadicValue", "shift", "value_of_bits"),
    "cantor": ("BasicSequence", "CantorDigits", "Ints", "cantor_digits",
               "cantor_value", "orbit"),
    "construction": ("BlockChoice", "BoundCheck", "BoundReport",
                     "LimitFunction", "StageFunction", "basic_sequence_from",
                     "block_of", "build_stage_function", "limit_function",
                     "stage_trace", "stages_covering", "verify_bound"),
    "errors": ("ConfigError", "ResourceLimitError"),
    "generators": ("BitGenerator", "ChampernowneBits", "ConstantBits",
                   "Oracle", "OracleBits", "PeriodicBits", "RationalBits",
                   "TableBits", "champernowne_bits", "champernowne_digit",
                   "generator_from_config", "periodic_bits", "rational_bits"),
    "normality": ("CheckpointRecord", "FrequencyReport", "NonNormalityReport",
                  "WitnessReport", "interval_frequency",
                  "non_normality_report", "star_discrepancy", "witness_check"),
    "programs": ("ConstantHalt", "HaltRule", "LinearHalt", "ProgramEntry",
                 "Registry", "TableHalt", "halt_from_config",
                 "load_oracle_file", "oracle_from_config"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # as `from .module import name` would, so `-X importtime` reports it
    module = __import__(_MODULE_OF[name], globals(), None, (name,), 1)
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
