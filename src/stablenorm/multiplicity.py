"""Multiplicity structure of shortest-class spectra.

A length spectrum over integral classes decomposes into groups of tied
lengths.  For a group of multiplicity m starting after n strictly
shorter classes (the trivial class counts), strict convexity forces
n >= f(m), with f from the exact lattice count.  The bound is sharp:
bulging the optimal symmetric 2m-gon into a strictly convex gauge
produces a norm whose first nontrivial tie group has multiplicity
exactly m with exactly f(m) classes below it.

Profiles never raise on a violated bound; they report it.  Polyhedral
gauges and L^1-like graph spectra genuinely violate the inequality,
and seeing them flagged is the point of the report.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Real
from typing import Optional, Sequence, Union

from stablenorm.errors import ConstructionError, ValidationError
from stablenorm.lattice_polygons import (
    SymmetricInteriorResult,
    f_of_m,
    min_interior_symmetric,
)
from stablenorm.norms import (
    Ellipse,
    IntegralClass,
    NormSpec,
    enumerate_classes,
    make_arc_polygon,
    strict_convexity_check,
    tie_groups,
)
from stablenorm.periodic_metric import SpectrumResult
from stablenorm.tolerances import LENGTH_TIE_RTOL, LEVEL_MATCH_RTOL, ROUNDING_GAP_RTOL

#: Fraction of distinct consecutive values a tolerance may merge before
#: the profile warns that it is probably too coarse.
_COARSE_MERGE_SHARE = 0.2

#: f is tabulated exactly up to this m; larger groups go unchecked.
_F_TABLE_LIMIT = 8


@dataclass(frozen=True)
class ProfileGroup:
    """One tie group: its length, canonical classes, multiplicity m,
    and n = count of strictly shorter classes including the trivial one."""

    length: float
    classes: tuple[IntegralClass, ...]
    multiplicity: int
    shorter_count: int
    f_bound: Optional[int]
    theorem_ok: bool


@dataclass(frozen=True)
class MultiplicityProfile:
    groups: tuple[ProfileGroup, ...]
    tie_tolerance: float
    source: str

    @property
    def violations(self) -> tuple[int, ...]:
        """Indices of groups that break the n >= f(m) bound."""
        return tuple(i for i, g in enumerate(self.groups) if not g.theorem_ok)

    def to_jsonable(self) -> dict:
        return {
            "source": self.source,
            "tie_tolerance": self.tie_tolerance,
            "groups": [
                {
                    "length": g.length,
                    "m": g.multiplicity,
                    "n": g.shorter_count,
                    "f_bound": g.f_bound,
                    "theorem_ok": g.theorem_ok,
                    "classes": [[c.a, c.b] for c in g.classes],
                }
                for g in self.groups
            ],
            "violations": list(self.violations),
        }


def profile_csv_rows(profile: MultiplicityProfile) -> list[tuple[int, int, int, float, int, int]]:
    """Flat rows (position, a, b, length, m, n), one per class."""
    rows = []
    pos = 0
    for g in profile.groups:
        for c in g.classes:
            rows.append((pos, c.a, c.b, g.length, g.multiplicity, g.shorter_count))
            pos += 1
    return rows


def _warn_if_coarse(entries: Sequence[tuple[IntegralClass, float]], tol: float) -> None:
    distinct_gaps = 0
    merged = 0
    for (_c1, v1), (_c2, v2) in zip(entries, entries[1:]):
        scale = max(v1, 1.0)
        if v2 - v1 > ROUNDING_GAP_RTOL * scale:
            distinct_gaps += 1
            if v2 - v1 <= tol * scale:
                merged += 1
    if distinct_gaps and merged / distinct_gaps > _COARSE_MERGE_SHARE:
        warnings.warn(
            f"tie tolerance {tol} merges {merged} of {distinct_gaps} distinct "
            "consecutive lengths; it is probably too coarse",
            stacklevel=3,
        )


def multiplicity_profile(
    source: Union[NormSpec, SpectrumResult],
    class_budget: Optional[int] = None,
    tie_tolerance: Optional[float] = None,
) -> MultiplicityProfile:
    """Group a spectrum into tied lengths and check n >= f(m) per group.

    A NormSpec is evaluated at its first `class_budget` canonical
    classes (tolerance defaults to the analytic `LENGTH_TIE_RTOL`); a
    SpectrumResult from the periodic module brings its own measured
    entries and must state an explicit tolerance, since its
    discretization error is not ours to guess.  The zero-length group
    is exempt from the bound: the trivial class is not a geodesic.  A
    class budget, when given, must be an integer of at least 1, and a
    tie tolerance a finite nonnegative number (not a bool or a string).
    """
    if class_budget is not None and (
        isinstance(class_budget, bool) or not isinstance(class_budget, int) or class_budget < 1
    ):
        raise ValidationError(f"class budget must be an integer of at least 1, got {class_budget!r}")
    if tie_tolerance is not None and (
        isinstance(tie_tolerance, bool) or not isinstance(tie_tolerance, Real)
    ):
        raise ValidationError(f"tie tolerance must be a number, got {tie_tolerance!r}")
    if isinstance(source, NormSpec):
        if class_budget is None:
            raise ValidationError("a norm profile needs a class budget")
        entries = list(enumerate_classes(source, class_budget).entries)
        tol = LENGTH_TIE_RTOL if tie_tolerance is None else float(tie_tolerance)
        kind = "norm"
    elif isinstance(source, SpectrumResult):
        if tie_tolerance is None:
            raise ValidationError(
                "a measured spectrum carries discretization error; pass an "
                "explicit tie tolerance"
            )
        tol = float(tie_tolerance)
        entries = [(e.cls, e.length) for e in source.entries]
        if class_budget is not None:
            entries = entries[:class_budget]
        kind = "spectrum"
    else:
        raise ValidationError(
            f"source must be a NormSpec or SpectrumResult, got {type(source).__name__}"
        )
    # NaN would split every tie, and inf would merge every class, the
    # zero class included, into one group exempt from the bound
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValidationError(f"tie tolerance must be finite and nonnegative, got {tol}")
    if not entries:
        raise ValidationError("empty spectrum has no profile")

    _warn_if_coarse(entries, tol)
    raw_groups = tie_groups(entries, tol)
    # one polygon sweep per distinct multiplicity, not per tie group
    f_memo: dict[int, int] = {}
    groups: list[ProfileGroup] = []
    shorter = 0
    for bucket in raw_groups:
        length = bucket[0][1]
        m = len(bucket)
        trivial_group = length == 0.0
        if trivial_group or m > _F_TABLE_LIMIT:
            f_bound = None
            ok = True
        else:
            if m not in f_memo:
                f_memo[m] = f_of_m(m)
            f_bound = f_memo[m]
            ok = shorter >= f_bound
        groups.append(
            ProfileGroup(
                length=length,
                classes=tuple(c for c, _v in bucket),
                multiplicity=m,
                shorter_count=shorter,
                f_bound=f_bound,
                theorem_ok=ok,
            )
        )
        shorter += m
    return MultiplicityProfile(groups=tuple(groups), tie_tolerance=tol, source=kind)


def construct_sharp_norm(m: int, level: float = 1.0) -> NormSpec:
    """Strictly convex norm whose first nontrivial tie group is exactly
    (m, f(m)).

    For m >= 2 the optimal symmetric 2m-gon is bulged into an arc gauge
    whose level-`level` set meets the lattice in precisely the 2m
    vertices; the f(m)-1 nontrivial interior pairs plus the trivial
    class are then the complete list below the level.  m = 1 needs a
    unique shortest pair, which a plain ellipse with distinct axes
    already provides; a two-vertex polygon has no gauge to bulge.
    """
    return _sharp_norm(m, level)[0]


def _sharp_norm(m: int, level: float) -> tuple[NormSpec, SymmetricInteriorResult]:
    """The sharp norm for m, with the symmetric minimum it was built from."""
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= 6:
        raise ValidationError(f"sharp construction covers 1 <= m <= 6, got {m!r}")
    # a bool would run as 1.0, and infinity would fail later, in the arc
    # gauge or the scale check, with another message
    if isinstance(level, bool) or not (isinstance(level, Real) and 0 < level < math.inf):
        raise ValidationError(f"level must be a positive finite number, got {level!r}")
    if m == 1:
        return NormSpec(Ellipse(1.0, 0.0, 1.3), scale=float(level)), min_interior_symmetric(2)
    sym = min_interior_symmetric(2 * m, prefer_primitive=True)
    if not sym.all_primitive:
        raise ConstructionError(
            f"no all-primitive optimal 2m-gon for m={m}; a non-vertex boundary "
            "lattice point would join the tie group"
        )
    norm = make_arc_polygon(sym.witness_vertices, level=float(level))
    report = strict_convexity_check(norm)
    if not report.ok:
        raise ConstructionError(
            f"bulged gauge for m={m} failed strict convexity: gap {report.min_gap}"
        )
    return norm, sym


@dataclass(frozen=True)
class SharpnessReport:
    """Outcome of checking that the constructed norm attains (m, f(m))."""

    m: int
    level: float
    f_m: int
    achieved_multiplicity: int
    achieved_shorter: int
    passed: bool
    classes_below: tuple[IntegralClass, ...]
    tie_classes: tuple[IntegralClass, ...]
    norm: NormSpec

    def to_jsonable(self) -> dict:
        return {
            "m": self.m,
            "level": self.level,
            "f_m": self.f_m,
            "achieved_multiplicity": self.achieved_multiplicity,
            "achieved_shorter": self.achieved_shorter,
            "passed": self.passed,
            "classes_below": [[c.a, c.b] for c in self.classes_below],
            "tie_classes": [[c.a, c.b] for c in self.tie_classes],
        }


def verify_sharpness(m: int, level: float = 1.0) -> SharpnessReport:
    """Build the sharp norm for m and measure its profile.

    Passes when the tie group at `level` has multiplicity exactly m and
    exactly f(m) classes strictly below it.
    """
    norm, sym = _sharp_norm(m, level)
    target_f = sym.f
    entries = enumerate_classes(norm, target_f + m + 3).entries
    groups = tie_groups(entries, LENGTH_TIE_RTOL)
    below: list[IntegralClass] = []
    for bucket in groups:
        if abs(bucket[0][1] - level) <= LEVEL_MATCH_RTOL * max(level, 1.0):
            break
        below.extend(c for c, _v in bucket)
    else:
        raise ConstructionError(
            f"no tie group found at level {level} for m={m}; got lengths "
            f"{[bucket[0][1] for bucket in groups]}"
        )
    tie = tuple(c for c, _v in bucket)
    passed = len(tie) == m and len(below) == target_f
    return SharpnessReport(
        m=m,
        level=float(level),
        f_m=target_f,
        achieved_multiplicity=len(tie),
        achieved_shorter=len(below),
        passed=passed,
        classes_below=tuple(below),
        tie_classes=tie,
        norm=norm,
    )
