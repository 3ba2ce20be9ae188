"""Convergence of canyon stable norms toward their prescribing norm.

Each stage prescribes the k leading primitive classes of a fixed
strictly convex norm and measures the canyon's stable norm.  On a fan
of unit directions the report evaluates the gauge of the hull of the
scaled classes +-h_i / ell_i, which lies in the norm's unit ball and
grows with k, so that deviation is nonnegative and nonincreasing.  At
pinned integer classes it measures the canyon by the cover search; a
background loop of cost ell_k can undercut a class no corridor carries,
so a pinned deviation can be negative (see `run_convergence`), and
`monotone` only records whether their sup fell with k.

Every gauge is 1-homogeneous and sandwiched between fixed multiples of
the Euclidean norm, so all stages share one Lipschitz constant; the
report checks it pairwise on the sampled values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from stablenorm.cover import FLAT_GAUGE, gauge_normals
from stablenorm.errors import InvariantError, ValidationError
from stablenorm.norms import (
    IntegralClass,
    NormSpec,
    eval_norm,
    hexagonal,
    lipschitz_bound,
)
from stablenorm.periodic_metric import CanyonStage, stable_norm_estimate
from stablenorm.tolerances import CONVERGENCE_SLACK

DEFAULT_KS = (2, 3, 4, 5, 6)
DEFAULT_PINNED = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))


@dataclass(frozen=True)
class PinnedDeviation:
    cls: IntegralClass
    estimate: float
    target: float

    @property
    def deviation(self) -> float:
        return self.estimate / self.target - 1.0


@dataclass(frozen=True)
class StageReport:
    k: int
    classes: tuple[tuple[IntegralClass, float], ...]
    theta: float
    background: float
    pinned: tuple[PinnedDeviation, ...]
    sup_pinned_deviation: float
    hull_sup_deviation: float
    lipschitz_excess: float

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "classes": [[c.a, c.b] for c, _l in self.classes],
            "lengths": [length for _c, length in self.classes],
            "theta": self.theta,
            "background": self.background,
            "pinned": [
                {
                    "class": [p.cls.a, p.cls.b],
                    "estimate": p.estimate,
                    "target": p.target,
                    "deviation": p.deviation,
                }
                for p in self.pinned
            ],
            "sup_pinned_deviation": self.sup_pinned_deviation,
            "hull_sup_deviation": self.hull_sup_deviation,
            "lipschitz_excess": self.lipschitz_excess,
        }


@dataclass(frozen=True)
class ConvergenceReport:
    stages: tuple[StageReport, ...]
    pinned: tuple[IntegralClass, ...]
    directions: int
    lipschitz_bound: float
    monotone: bool
    final_deviation: float
    lipschitz_ok: bool

    def to_jsonable(self) -> dict:
        return {
            "stages": [s.to_jsonable() for s in self.stages],
            "pinned": [[c.a, c.b] for c in self.pinned],
            "directions": self.directions,
            "lipschitz_bound": self.lipschitz_bound,
            "monotone": self.monotone,
            "final_deviation": self.final_deviation,
            "lipschitz_ok": self.lipschitz_ok,
        }


def run_convergence(
    norm: Optional[NormSpec] = None,
    ks: Sequence[int] = DEFAULT_KS,
    grid_resolution: int = 64,
    directions: int = 64,
    n_max: int = 2,
) -> ConvergenceReport:
    """Measure canyon stable norms against their prescribing norm.

    The per-stage deviation is relative, estimate / target - 1.  Cycles
    made of corridors alone cost at least the norm of their class, but
    the background of every stage is ell_k, so a grid row or column
    loop realises (1, 0) or (0, 1) at cost ell_k.  The deviation is
    therefore negative where an axis class is not prescribed and the
    ell_k background undercuts its norm, and at classes whose cycles
    use that loop: with ellipse 1.2, -0.95, 1 at k = 2 the classes are
    (1, 1) and (0, 1), and (1, 0) is measured at 1.0 against a norm of
    1.095.  `monotone` records whether the sup over pinned classes is
    nonincreasing in k, and `final_deviation` is the last stage's.
    """
    if norm is None:
        norm = hexagonal()
    ks = tuple(ks)
    if not ks or list(ks) != sorted(ks) or len(set(ks)) != len(ks):
        raise ValidationError(f"stage list must be strictly increasing, got {ks!r}")
    if any(not isinstance(k, int) or k < 2 for k in ks):
        raise ValidationError(f"every stage needs k >= 2, got {ks!r}")
    if isinstance(directions, bool) or not isinstance(directions, int) or directions < 8:
        raise ValidationError(f"need an integer of at least 8 directions, got {directions!r}")
    pinned_classes = tuple(IntegralClass(a, b).canonical() for (a, b) in DEFAULT_PINNED)

    b_lip = lipschitz_bound(eval_norm(norm, (1, 0)), eval_norm(norm, (0, 1)))
    fan = [
        (math.cos(2 * math.pi * j / directions), math.sin(2 * math.pi * j / directions))
        for j in range(directions)
    ]

    stages = []
    for k in ks:
        stage = CanyonStage(norm, k, grid_resolution)
        canyon, classes = stage.canyon, stage.classes

        devs = []
        for cls in pinned_classes:
            est = stable_norm_estimate(canyon, cls, n_max).estimate
            devs.append(PinnedDeviation(cls=cls, estimate=est, target=eval_norm(norm, cls)))

        normals = gauge_normals([(c.a / length, c.b / length) for c, length in classes])
        if normals == FLAT_GAUGE:
            raise InvariantError(f"stage k={k}: the prescribed classes span a flat hull")
        gauge_samples = [max(ax * ux + ay * uy for ax, ay in normals) for ux, uy in fan]
        hull_dev = max(
            g / eval_norm(norm, u) - 1.0 for g, u in zip(gauge_samples, fan)
        )

        # one shared Lipschitz constant over hull samples and pinned
        # estimates alike: |g(u) - g(v)| <= B |u - v|
        samples = list(zip(fan, gauge_samples))
        samples.extend(
            ((float(p.cls.a), float(p.cls.b)), p.estimate) for p in devs
        )
        excess = 0.0
        for i in range(len(samples)):
            (x1, y1), g1 = samples[i]
            for j in range(i + 1, len(samples)):
                (x2, y2), g2 = samples[j]
                excess = max(excess, abs(g1 - g2) - b_lip * math.hypot(x1 - x2, y1 - y2))

        stages.append(
            StageReport(
                k=k,
                classes=tuple(classes),
                theta=stage.hub_budget,
                background=stage.background_systole,
                pinned=tuple(devs),
                sup_pinned_deviation=max(p.deviation for p in devs),
                hull_sup_deviation=hull_dev,
                lipschitz_excess=excess,
            )
        )

    sups = [s.sup_pinned_deviation for s in stages]
    monotone = all(b <= a + CONVERGENCE_SLACK for a, b in zip(sups, sups[1:]))
    return ConvergenceReport(
        stages=tuple(stages),
        pinned=pinned_classes,
        directions=directions,
        lipschitz_bound=b_lip,
        monotone=monotone,
        final_deviation=sups[-1],
        lipschitz_ok=all(s.lipschitz_excess <= CONVERGENCE_SLACK for s in stages),
    )
