"""offline-tune: the paper's pipeline on Haswell with the ``fast`` profile.

Set-up runs the measurement campaign over the 68-region suite and builds
the labelled samples.  One round, the timed operation, is grouped-
application 3-fold cross-validation of the static tuner
(``pnp_cross_validated_selections``) for the time objective and for EDP,
with the EDP epochs tripled as ``run_edp`` does.  The held-out selections
are then scored on the simulator from raw execution times.

The input is the fixed suite, so ``--seed`` changes nothing here and the
quality figures are exact: any change in them is a change in what the
tuner chose.
"""

from __future__ import annotations

import time
from typing import Dict, List

import common
from common import geomean, percentile

#: Nominal duration of one round at the reference speed (see README); the
#: number of rounds is fixed by ``--seconds``, never by elapsed time.
ROUND_S = 20.0


class _TimedFolds:
    """Grouped k-fold splitter that times each fold and records its split.

    ``run_cross_validation`` trains and predicts a fold between two
    ``next()`` calls on ``split()``, so the gap between yields is the
    fold's wall time (training plus the held-out prediction).
    """

    def __init__(self, splitter, log: List[Dict]) -> None:
        self._splitter = splitter
        self._log = log

    def split(self, samples):
        for name, train, validation in self._splitter.split(samples):
            entry = {
                "train_apps": {s.application for s in train},
                "held_out_apps": {s.application for s in validation},
                "train_samples": len(train),
            }
            start = time.perf_counter()
            yield name, train, validation
            entry["seconds"] = time.perf_counter() - start
            self._log.append(entry)

    def num_folds(self, samples):
        return self._splitter.num_folds(samples)


def _profile_with_timed_folds(profile, log):
    """A copy of ``profile`` whose splitter is wrapped by :class:`_TimedFolds`."""
    base = type(profile)

    class TimedProfile(base):
        def splitter(self):
            return _TimedFolds(base.splitter(self), log)

    return TimedProfile(**{f: getattr(profile, f) for f in profile.__dataclass_fields__})


def run(seed: int, seconds: int, clock, record) -> Dict:
    from repro.core.dataset import TuningScenario
    from repro.core import evaluation
    from repro.experiments import fast_profile
    from repro.experiments.common import experiment_builder, pnp_cross_validated_selections

    time_profile = fast_profile()
    # run_edp's setting: 68 EDP samples instead of 272, so 3x the epochs.
    edp_profile = time_profile.with_overrides(epochs=time_profile.epochs * 3)
    builder = experiment_builder(common.SYSTEM, time_profile)
    database = builder.database
    common.run_campaign(database)
    time_samples = builder.performance_samples(include_counters=False)
    edp_samples = builder.edp_samples(include_counters=False)
    space = builder.search_space
    region_ids = [r.region_id for r in builder.regions()]

    setup_s = clock.elapsed()
    rounds = max(1, round(seconds / ROUND_S))
    folds: List[Dict] = []
    epochs: List[int] = []
    selections = []
    cpu0, wall0 = common.cpu_times(), time.perf_counter()
    for _ in range(rounds):
        start = len(folds)
        time_sel = pnp_cross_validated_selections(
            builder, time_samples, _profile_with_timed_folds(time_profile, folds),
            TuningScenario.PERFORMANCE, include_counters=False, optimizer="adamw",
        )
        epochs += [time_profile.epochs] * (len(folds) - start)
        start = len(folds)
        edp_sel = pnp_cross_validated_selections(
            builder, edp_samples, _profile_with_timed_folds(edp_profile, folds),
            TuningScenario.EDP, include_counters=False, optimizer="adam",
        )
        epochs += [edp_profile.epochs] * (len(folds) - start)
        selections.append((time_sel, edp_sel))
    wall = time.perf_counter() - wall0
    cpu_per_wall = (common.cpu_times() - cpu0) / wall
    peak = common.peak_rss_mb()
    record(False)

    # ------------------------------------------------------------- checks
    errors: List[str] = []
    all_apps = set(builder.applications())
    for fold in folds:
        if fold["train_apps"] & fold["held_out_apps"]:
            errors.append("a fold trained on a held-out application")
        if fold["train_apps"] | fold["held_out_apps"] != all_apps:
            errors.append("a fold lost applications")
    caps = [float(c) for c in space.power_caps]
    expected = {(rid, cap) for rid in region_ids for cap in caps}
    for time_sel, edp_sel in selections:
        if set(time_sel) != expected or len(time_sel) != len(expected):
            errors.append("time selections do not cover every (region, cap) exactly once")
        if set(edp_sel) != set(region_ids):
            errors.append("EDP selections do not cover every region exactly once")
    # Every round trains the same deterministic folds: score the first and
    # require the others to match it.
    time_sel, edp_sel = selections[0]
    if any(s != selections[0] for s in selections[1:]):
        errors.append("rounds chose differently")

    sim = common.Simulator(database)
    regions = {r.region_id: r for r in builder.regions()}
    scored = common.score_time_choices(
        sim, [(regions[rid], cap, config) for (rid, cap), config in sorted(time_sel.items())]
    )
    errors += scored["errors"]
    edp_gains = []
    for rid, (cap, config) in sorted(edp_sel.items()):
        chosen = sim.run(regions[rid], config, cap).edp
        oracle = sim.oracle_edp(regions[rid])
        if chosen < oracle * (1 - 1e-12):
            errors.append(f"{rid}: chosen EDP beats the oracle")
        edp_gains.append(sim.run(regions[rid], sim.default, sim.tdp).edp / chosen)
    edp_gain = geomean(edp_gains)
    # Cross-check against the program's own evaluation helpers.
    reference = evaluation.overall_geomean(
        evaluation.evaluate_power_constrained(database, time_sel), "speedup"
    )
    if abs(reference - scored["speedup"]) > 1e-9 * reference:
        errors.append("speedup disagrees with repro.core.evaluation")
    reference = evaluation.overall_geomean(evaluation.evaluate_edp(database, edp_sel), "edp_improvement")
    if abs(reference - edp_gain) > 1e-9 * reference:
        errors.append("EDP gain disagrees with repro.core.evaluation")

    fold_ms = [fold["seconds"] * 1e3 for fold in folds]
    train_s = sum(fold["seconds"] for fold in folds)
    trained = sum(fold["train_samples"] * e for fold, e in zip(folds, epochs))
    return {
        "attempted": len(folds),
        "failed": 0,
        "errors": errors,
        "metrics": {
            "setup_s": setup_s,
            "train_samples_per_s": trained / train_s,
            "speedup_geomean": scored["speedup"],
            "oracle_ratio_geomean": scored["oracle_ratio"],
            "edp_gain_geomean": edp_gain,
            "regions_per_s": len(region_ids) * rounds / wall,
            "latency_p50_ms": percentile(fold_ms, 50),
            "latency_p90_ms": percentile(fold_ms, 90),
            "peak_rss_mb": peak,
        },
        "layer": {"process.cpu_per_wall": cpu_per_wall},
    }
