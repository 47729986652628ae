"""Staged diagonal construction of power-of-two basic sequences, with exact
Cantor-series, equidistribution, and non-normality tooling.

The package builds a strictly increasing position map against a registry of
effectively presented binary sequences (each with declared settling times),
derives from it a sequence of power-of-two bases, and certifies with exact
rational arithmetic that no registered sequence's real number distributes
uniformly mod 1 under those bases. General Cantor-series expansion, mod-1
orbit, and discrepancy tooling come along for the ride.
"""

from .cantor import (BasicSequence, CantorDigits, DyadicValue, Ints,
                     cantor_digits, cantor_value, orbit, shift, value_of_bits)
from .construction import (BlockChoice, BoundCheck, BoundReport, LimitFunction,
                           StageFunction, basic_sequence_from, block_of,
                           build_stage_function, limit_function, stage_trace,
                           stages_covering, verify_bound)
from .errors import ConfigError, ResourceLimitError
from .generators import (BitGenerator, ChampernowneBits, ConstantBits, Oracle,
                         OracleBits, PeriodicBits, RationalBits, TableBits,
                         champernowne_bits, champernowne_digit,
                         generator_from_config, periodic_bits, rational_bits)
from .normality import (CheckpointRecord, FrequencyReport, NonNormalityReport,
                        WitnessReport, interval_frequency, non_normality_report,
                        star_discrepancy, witness_check)
from .programs import (ConstantHalt, HaltRule, LinearHalt, ProgramEntry,
                       Registry, TableHalt, halt_from_config, load_oracle_file,
                       oracle_from_config)

__version__ = "0.1.0"

__all__ = [
    "BasicSequence", "BitGenerator", "BlockChoice", "BoundCheck", "BoundReport",
    "CantorDigits", "ChampernowneBits", "CheckpointRecord", "ConfigError",
    "ConstantBits", "ConstantHalt", "DyadicValue", "FrequencyReport",
    "HaltRule", "Ints", "LimitFunction", "LinearHalt", "NonNormalityReport",
    "Oracle", "OracleBits", "PeriodicBits", "ProgramEntry", "RationalBits",
    "Registry", "ResourceLimitError", "StageFunction", "TableBits",
    "TableHalt", "WitnessReport", "basic_sequence_from", "block_of",
    "build_stage_function", "cantor_digits", "cantor_value",
    "champernowne_bits", "champernowne_digit", "generator_from_config",
    "halt_from_config", "interval_frequency", "limit_function",
    "load_oracle_file", "non_normality_report", "oracle_from_config", "orbit",
    "periodic_bits", "rational_bits", "shift", "stage_trace",
    "stages_covering", "star_discrepancy", "value_of_bits", "verify_bound",
    "witness_check",
]
