"""Shared pieces of the three workloads: clocks, statistics, set-up steps,
and scoring on the simulator.

Scoring never reuses the path under test: speedups and EDP are recomputed
here from raw simulator executions (``ExecutionResult.time_s`` and
``.edp``), and oracles come from this module's own exhaustive loop over
``SearchSpace.candidate_configurations()``.
"""

from __future__ import annotations

import math
import os
import resource
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

SYSTEM = "haswell"


# ------------------------------------------------------------------- clocks
def _process_age_s() -> float:
    """Seconds since this process started, read from ``/proc`` (Linux)."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        start_ticks = int(fields[19])
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


class SetupClock:
    """Measures set-up time from process start to the first timed operation."""

    def __init__(self) -> None:
        self._age_at_start = _process_age_s()
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        return self._age_at_start + time.perf_counter() - self._start


# --------------------------------------------------------------- statistics
def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_times() -> float:
    """User + system CPU seconds of this process, all threads."""
    times = os.times()
    return times.user + times.system


def proc_status_kb(pid: int, field: str) -> float:
    """A ``/proc/<pid>/status`` memory field (``VmRSS``, ``VmHWM``) in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise KeyError(field)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ------------------------------------------------------------------- set-up
def run_campaign(database, power_caps=None) -> None:
    """The measurement campaign: every region x cap x configuration."""
    database.prefill(power_caps)


def serving_tuner(database):
    """The time-objective tuner the serving workloads use, fitted on the
    full suite at the lowest and highest power caps.

    The caps between them are served through the tuner's cap input, as in
    the paper's unseen-power experiment.  Fitting at two caps halves the
    set-up campaign (17,272 executions instead of 34,544), which keeps a
    full pass of the three workloads (70 runs) inside 57 minutes on a slow
    host.  Twice the ``fast`` profile's epochs keep the number of training
    samples seen, and so the fit's length, equal to a fit at all four caps.

    Returns ``(tuner, samples_per_s)``: training samples x epochs over the
    fit's wall time.
    """
    from dataclasses import replace

    from repro.core import PnPTuner
    from repro.experiments import fast_profile

    space = database.search_space
    caps = (min(space.power_caps), max(space.power_caps))
    run_campaign(database, caps)
    profile = fast_profile()
    config = replace(profile.training_config(optimizer="adamw"), epochs=2 * profile.epochs)
    tuner = PnPTuner(
        SYSTEM, objective="time", training_config=config, database=database, seed=profile.seed
    )
    samples = tuner.build_training_samples(power_caps=caps)
    start = time.perf_counter()
    tuner.fit(samples)
    elapsed = time.perf_counter() - start
    return tuner, len(samples) * config.epochs / elapsed


# ------------------------------------------------------------------ scoring
class Simulator:
    """Scores configurations of any region on a fresh simulated machine.

    Uses its own :class:`~repro.core.measurements.MeasurementDatabase`
    (same machine model and seed as the tuner's), so scoring novel regions
    neither reads nor grows the caches of the path under test.
    """

    def __init__(self, database=None) -> None:
        from repro.core.measurements import MeasurementDatabase
        from repro.core.search_space import SearchSpace
        from repro.hw.machine import Machine

        if database is None:
            database = MeasurementDatabase(
                Machine.named(SYSTEM, seed=0, noise_fraction=0.015), SearchSpace(SYSTEM), []
            )
        self.database = database
        self.space = database.search_space
        self.configs = self.space.candidate_configurations()
        self.default = self.space.default_configuration
        self.tdp = self.space.tdp_watts
        self._known = set(database.region_ids)

    def run(self, region, config, cap: float):
        if region.region_id not in self._known:
            self.database.add_region(region)
            self._known.add(region.region_id)
        return self.database.measure(region.region_id, config, cap)

    def oracle_time(self, region, cap: float) -> float:
        return min(self.run(region, c, cap).time_s for c in self.configs)

    def oracle_edp(self, region) -> float:
        return min(
            self.run(region, c, cap).edp for cap in self.space.power_caps for c in self.configs
        )


def score_time_choices(
    simulator: Simulator,
    choices: Sequence[Tuple[object, float, object]],
    oracle_points: Optional[set] = None,
) -> Dict[str, object]:
    """Score ``(region, cap, config)`` choices of a time-objective tuner.

    Returns the geomeans of speedup over the default at the same cap, of
    default EDP at TDP over the choice's EDP, and (over the choices whose
    ``(region id, cap)`` is in ``oracle_points``, all when ``None``) of the
    choice's speedup over the exhaustive oracle's, plus a list of check
    failures: a choice faster than the oracle means the scorer or the
    simulator is broken.
    """
    speedups: List[float] = []
    edp_gains: List[float] = []
    ratios: List[float] = []
    errors: List[str] = []
    for region, cap, config in choices:
        chosen = simulator.run(region, config, cap)
        default = simulator.run(region, simulator.default, cap)
        at_tdp = simulator.run(region, simulator.default, simulator.tdp)
        speedups.append(default.time_s / chosen.time_s)
        edp_gains.append(at_tdp.edp / chosen.edp)
        if oracle_points is None or (region.region_id, cap) in oracle_points:
            oracle = simulator.oracle_time(region, cap)
            if chosen.time_s < oracle * (1 - 1e-12):
                errors.append(f"{region.region_id}@{cap}: chosen time beats the oracle")
            ratios.append(oracle / chosen.time_s)
    return {
        "speedup": geomean(speedups),
        "edp_gain": geomean(edp_gains),
        "oracle_ratio": geomean(ratios),
        "errors": errors,
    }


def oracle_points(regions: Sequence, caps: Sequence[float]) -> set:
    """One ``(region id, cap)`` point per region, caps taken in turn.

    The exhaustive oracle costs 127 simulated executions per point; one
    point on each of many regions gives a steadier geomean for the same cost
    than every cap of a few regions.
    """
    return {(region.region_id, caps[i % len(caps)]) for i, region in enumerate(regions)}
