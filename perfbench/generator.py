"""Seeded generator of regions the tuner has never seen.

Every novel region is a perturbation of one benchmark-suite region: its
continuous characteristics are jittered multiplicatively (lognormal, median
1) and clipped into the ranges ``RegionCharacteristics`` accepts, while the
application, imbalance pattern and math calls stay, so the region keeps its
family.  Each gets a fresh id (``<suite id>~b<seed>.<stream>.<n>``), so it
misses every graph, embedding and measurement cache keyed by region id.

Bases are taken in a fixed order and only the jitter comes from the seed,
so every seed gives the same mix of families and kernels.  Drawing bases at
random made the quality figures depend mostly on which kernels a seed
happened to pick (speedup geomeans moved by 11% between seeds).  The order
strides through the suite instead of walking it, so consecutive draws (one
batch) mix families rather than taking all of one application's kernels.

The generator is written for the benchmark and shares no code with
``repro.distill.generate``: the distilled tier is trained on that module's
populations, so serving traffic drawn from it would test the students on
their own training distribution.
"""

from __future__ import annotations

import random
from dataclasses import replace
from math import exp, gcd
from typing import Dict, List, Sequence

from repro.benchsuite.registry import regions_by_application
from repro.openmp.region import RegionCharacteristics


def _clip(value: float, low: float, high: float) -> float:
    return min(max(value, low), high)


class RegionGenerator:
    """Deterministic stream of novel regions for one ``(seed, stream)`` pair.

    ``stream`` names an independent sequence (``"batch"``, ``"in-family"``,
    ...), so adding draws to one stream never shifts another.
    """

    def __init__(self, seed: int, stream: str) -> None:
        self._rng = random.Random(f"perfbench/{seed}/{stream}")
        self._prefix = f"b{seed}.{stream}"
        self._count = 0
        self._next_base = 0

    def _jitter(self, scale: float) -> float:
        return exp(self._rng.gauss(0.0, scale))

    def perturb(self, base: RegionCharacteristics, scale: float) -> RegionCharacteristics:
        """One novel region derived from ``base`` with jitter ``scale``."""
        j = self._jitter
        region_id = f"{base.region_id}~{self._prefix}.{self._count}"
        self._count += 1
        return replace(
            base,
            region_id=region_id,
            iterations=max(2, int(round(base.iterations * j(scale)))),
            flops_per_iteration=base.flops_per_iteration * j(scale),
            int_ops_per_iteration=base.int_ops_per_iteration * j(scale),
            memory_bytes_per_iteration=base.memory_bytes_per_iteration * j(scale),
            working_set_bytes=max(1.0, base.working_set_bytes * j(scale)),
            reuse_factor=_clip(base.reuse_factor * j(scale), 1e-3, 1.0),
            serial_fraction=_clip(base.serial_fraction * j(scale), 0.0, 0.95),
            iteration_cost_cv=_clip(base.iteration_cost_cv * j(scale), 0.0, 4.0),
            atomics_per_iteration=base.atomics_per_iteration * j(scale),
            branches_per_iteration=base.branches_per_iteration * j(scale),
            branch_misprediction_rate=_clip(
                base.branch_misprediction_rate * j(scale), 0.0, 1.0
            ),
            condition_density=_clip(base.condition_density * j(scale), 0.0, 1.0),
        )

    def draw(
        self, bases: Sequence[RegionCharacteristics], count: int, scale: float
    ) -> List[RegionCharacteristics]:
        """``count`` novel regions, continuing the strided cycle over ``bases``.

        Every base is drawn once per ``len(bases)`` draws.
        """
        stride = _stride(len(bases))
        drawn = []
        for _ in range(count):
            base = bases[(self._next_base * stride) % len(bases)]
            drawn.append(self.perturb(base, scale))
            self._next_base += 1
        return drawn


def _stride(n: int) -> int:
    """A step near 0.38 n that is coprime with ``n``, so ``i * step mod n``
    visits every index once per ``n`` steps, far apart."""
    step = max(1, round(0.38 * n))
    while gcd(step, n) != 1:
        step += 1
    return step


def suite_by_family() -> Dict[str, List[RegionCharacteristics]]:
    """The 68 suite regions grouped by application (the family)."""
    return {app: list(regions) for app, regions in sorted(regions_by_application().items())}
