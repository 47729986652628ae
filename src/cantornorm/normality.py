"""Equidistribution statistics and diagonal non-normality certificates.

Fractions in and out are exact; the only floats anywhere are the decimal
renderings the CLI attaches for human readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .cantor import orbit_low_counts
from .construction import LimitFunction
from .errors import ConfigError
from .programs import Registry


@dataclass(frozen=True)
class FrequencyReport:
    n: int
    lo: Fraction
    hi: Fraction
    hits: int
    fraction: Fraction


def _common_denominator(points: Sequence) -> tuple[list, int]:
    """The sample as numerators over one denominator `den`, each point
    checked to lie in [0, 1).

    If every point's denominator divides the largest one, `den` is that one
    and the numerators are integers: for the orbit r_k/b of x = a/b, `den`
    is b or a divisor of b. Otherwise the numerators are the points
    themselves, over den = 1, since the lcm of unrelated denominators can
    make every numerator as long as the whole sample."""
    # a given Fraction is used as is; rebuilding it costs more than all below
    pts = [p if type(p) is Fraction else Fraction(p) for p in points]
    if not pts:
        raise ValueError("empty sample")
    denominators = {y.denominator for y in pts}
    den = max(denominators)
    if any(den % d for d in denominators):
        numerators, den = pts, 1
    else:
        # a point already over `den`, as most orbit points are, keeps its
        # own numerator rather than a copy
        numerators = [y.numerator if y.denominator == den
                      else y.numerator * (den // y.denominator) for y in pts]
    if min(numerators) < 0 or max(numerators) >= den:
        y = next(y for y in pts if not 0 <= y < 1)
        raise ValueError(f"points must lie in [0, 1), got {y}")
    return numerators, den


def interval_frequency(points: Sequence, lo, hi) -> FrequencyReport:
    """Exact frequency of points in [lo, hi)."""
    low, high = Fraction(lo), Fraction(hi)
    if not 0 <= low < high <= 1:
        raise ValueError(
            f"interval must satisfy 0 <= lo < hi <= 1, got [{low}, {high})")
    numerators, den = _common_denominator(points)
    first, end = low * den, high * den
    hits = sum(1 for r in numerators if first <= r < end)
    return FrequencyReport(len(numerators), low, high, hits,
                           Fraction(hits, len(numerators)))


def dyadic_frequencies(points: Sequence, depth: int) -> list[FrequencyReport]:
    """`interval_frequency` on every [j/2**k, (j+1)/2**k) for k = 1..depth and
    j ascending, binning each point r/den once, into bin (r * 2**depth) // den."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    numerators, den = _common_denominator(points)
    scale = 2 ** depth
    bins = [0] * scale
    for r in numerators:
        bins[r * scale // den] += 1
    n = len(numerators)
    reports = []
    for k in range(1, depth + 1):
        width = 2 ** (depth - k)
        for j in range(2 ** k):
            hits = sum(bins[j * width:(j + 1) * width])
            reports.append(FrequencyReport(n, Fraction(j, 2 ** k),
                                           Fraction(j + 1, 2 ** k), hits,
                                           Fraction(hits, n)))
    return reports


def star_discrepancy(points: Sequence) -> Fraction:
    """Worst deviation of empirical mass from length over anchored intervals
    [0, t): with the sample sorted, max over i of
    max(i/n - x_(i), x_(i) - (i-1)/n). On numerators x_(i) = r_i/den both
    terms share the denominator n*den: with d_i = i*den - n*r_i they are
    d_i and den - d_i."""
    numerators, den = _common_denominator(points)
    numerators.sort()
    n = len(numerators)
    gaps = [i * den - n * r for i, r in enumerate(numerators, start=1)]
    return Fraction(max(0, max(gaps), den - min(gaps)), n * den)


@dataclass(frozen=True)
class WitnessReport:
    """Certificate that one program's orbit positions pile onto one half of
    [0, 1]: among p < checkpoint, classified by the program's settled bit at
    value f(p), the chosen side holds at least two thirds."""

    program_index: int
    checkpoint: int
    chosen_bit: int
    low_count: int
    fraction_low: Fraction
    fraction_high: Fraction
    passed: bool

    @property
    def chosen_fraction(self) -> Fraction:
        return self.fraction_low if self.chosen_bit == 0 else self.fraction_high


def witness_check(registry: Registry, e: int, f: LimitFunction) -> WitnessReport:
    """Classify every p < 3**(e+1) by program e's settled bit at f(p).

    The block [3**e, 3**(e+1)) is homogeneous for the block's chosen bit by
    construction, so on a settled limit the chosen side always reaches 2/3.
    A bit of 0 puts the orbit point in [0, 1/2], a bit of 1 in [1/2, 1];
    a point exactly at 1/2 counts on the side its leading bit dictates.
    """
    checkpoint = 3 ** (e + 1)
    if f.settled_through < checkpoint - 1:
        raise ValueError(
            f"limit values are settled through position {f.settled_through}, "
            f"need {checkpoint - 1} for program {e}")
    chosen_bit = f.blocks[e].chosen_bit
    # one window through f(checkpoint - 1), read at the values f(p)
    window = registry.entry(e).generator.window(0, f.values[checkpoint - 1] + 1)
    low = checkpoint - sum(map(window.__getitem__, islice(f.values, checkpoint)))
    fraction_low = Fraction(low, checkpoint)
    fraction_high = Fraction(checkpoint - low, checkpoint)
    side = fraction_low if chosen_bit == 0 else fraction_high
    return WitnessReport(e, checkpoint, chosen_bit, low, fraction_low,
                         fraction_high, side >= Fraction(2, 3))


@dataclass(frozen=True)
class CheckpointRecord:
    index: int
    checkpoint: int
    chosen_bit: int
    fraction_low: Fraction
    deviation: Fraction
    witness_passed: bool
    orbit_fraction_low: Fraction | None
    orbit_agrees: bool | None


@dataclass(frozen=True)
class NonNormalityReport:
    source_index: int
    records: tuple[CheckpointRecord, ...]
    non_normal: bool | None


def non_normality_report(registry: Registry, source: int, f: LimitFunction,
                         checkpoints: Sequence[int]) -> NonNormalityReport:
    """Witness the given duplicate indices of one source and measure how far
    the low-half frequency sits from 1/2 at each checkpoint 3**(index+1).

    Where the source's stream has an exact rational value and no all-ones
    tail, the bit counts are also cross-checked against the true mod-1 orbit
    of that value under the constructed bases (an all-ones tail denotes a
    dyadic rational by its non-terminating expansion, for which shifted
    values and shifted bits part ways).
    """
    root = registry.root_of(source)
    for i in checkpoints:
        if registry.root_of(i) != root:
            raise ConfigError(f"index {i} is not an alias of program {source}")
    return report_from_witnesses(
        registry, root, f, [witness_check(registry, i, f) for i in checkpoints])


def report_from_witnesses(registry: Registry, root: int, f: LimitFunction,
                          witnesses: Sequence[WitnessReport]) -> NonNormalityReport:
    """`non_normality_report` of source `root` from its indices' witnesses;
    the cross-check walks the orbit's residues once, to the largest checkpoint."""
    half = Fraction(1, 2)
    generator = registry.entry(root).generator
    value = generator.exact_value()
    orbit_fractions = [None] * len(witnesses)
    if value is not None and not generator.ends_in_ones():
        checkpoints = [w.checkpoint for w in witnesses]
        lows = orbit_low_counts(value, f.q_exponents, checkpoints)
        orbit_fractions = list(map(Fraction, lows, checkpoints))
    records = tuple(CheckpointRecord(
        w.program_index, w.checkpoint, w.chosen_bit, w.fraction_low,
        abs(w.fraction_low - half), w.passed, orbit_fraction,
        None if orbit_fraction is None else orbit_fraction == w.fraction_low)
        for w, orbit_fraction in zip(witnesses, orbit_fractions))
    verdict = (all(r.deviation >= Fraction(1, 6) for r in records)
               if records else None)
    return NonNormalityReport(root, records, verdict)
