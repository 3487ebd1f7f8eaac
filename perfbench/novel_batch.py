"""novel-batch: in-process ``PnPTuner.predict_sweep_many`` on unseen regions.

Set-up runs the campaign, fits the serving tuner on the full suite, and
rebuilds ``ROUNDS`` serving replicas from its spec and weights with
``repro.serve.spec.build_serving_tuner`` (the path fleet nodes use), each
warmed with one batch from a separate stream.  The timed operation sweeps a
fixed number of batches of novel regions (see ``generator.py``) at every
power cap, one round of batches per replica.  Every region is new to the
tuner, so each batch builds its graphs (codegen, IR, flow graph) and encodes
them: no training, no wire.

Why rounds on separate replicas: the host's speed drifts on a scale of
seconds to minutes, so the timed section must be long (12 s at the reference
speed) for its figures to be steady, while one tuner keeps every region it
has seen (about 185 KiB each).  Each round's answers are checked right
after it, untimed, and its replica dropped, which keeps peak memory near one
round's growth; the growth per region still shows in
``process.rss_growth_kb_per_region`` (first round) and in ``peak_rss_mb``.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List

import common
from common import percentile
from generator import RegionGenerator, suite_by_family

#: Regions per ``predict_sweep_many`` call.
BATCH = 16
#: Batches per second of ``--seconds``: a fixed amount of work, so counts
#: and peak memory do not depend on how fast the host is that minute.
BATCHES_PER_S = 21
#: Serving replicas, one round of batches each.
ROUNDS = 3
#: Lognormal jitter of the characteristics of a novel region.
SCALE = 0.2
#: The first ``SCORED`` regions (4 per suite region) are scored on the
#: simulator, and the first ``ORACLE`` of them are also compared with the
#: exhaustive oracle at one cap each.
SCORED = 272
ORACLE = 48


def _check_round(replica, served, caps) -> List[str]:
    """Compare one round's answers with the f64 ``Module`` reference, one
    region at a time.  Reloading the weights empties the embedding cache, so
    nothing computed by the compiled path is reused."""
    errors = []
    replica.load_state_dict(replica.state_dict())
    replica.use_inference_programs = False
    for region, results in served:
        reference = replica.predict_sweep(region, caps)
        got = [(r.region_id, r.power_cap, r.label) for r in results]
        want = [(r.region_id, r.power_cap, r.label) for r in reference]
        if got != want:
            errors.append(f"{region.region_id}: batched answer differs from the Module reference")
    return errors


def run(seed: int, seconds: int, clock, record) -> Dict:
    from repro.core.measurements import get_measurement_database
    from repro.serve.spec import build_serving_tuner, tuner_spec

    database = get_measurement_database(common.SYSTEM, seed=0)
    tuner, train_rate = common.serving_tuner(database)
    caps = [float(c) for c in database.search_space.power_caps]
    bases = [r for regions in suite_by_family().values() for r in regions]
    spec, state = tuner_spec(tuner), tuner.state_dict()
    warm_up = RegionGenerator(seed, "warm-up")
    replicas = []
    for _ in range(ROUNDS):
        replica = build_serving_tuner(spec, state=state)
        replica.predict_sweep_many(warm_up.draw(bases, BATCH, SCALE), caps)
        replicas.append(replica)
    generator = RegionGenerator(seed, "batch")
    per_round = max(1, BATCHES_PER_S * seconds // ROUNDS)
    rounds = [[generator.draw(bases, BATCH, SCALE) for _ in range(per_round)] for _ in replicas]
    gc.collect()

    setup_s = clock.elapsed()
    latencies: List[float] = []
    served_all = []
    errors: List[str] = []
    growth_kb = wall = cpu = 0.0
    failed = 0
    for index, batches in enumerate(rounds):
        replica = replicas.pop(0)
        answers = []
        rss0 = common.proc_status_kb(os.getpid(), "VmRSS")
        cpu0, wall0 = common.cpu_times(), time.perf_counter()
        for batch in batches:
            start = time.perf_counter()
            try:
                answers.append(replica.predict_sweep_many(batch, caps))
            except Exception as error:  # noqa: BLE001 - counted, reported below
                failed += len(batch)
                answers.append(error)
            latencies.append(time.perf_counter() - start)
        wall += time.perf_counter() - wall0
        cpu += common.cpu_times() - cpu0
        if index == 0:
            # Later rounds reuse the memory freed by the dropped replicas.
            growth_kb = common.proc_status_kb(os.getpid(), "VmRSS") - rss0
        peak = common.peak_rss_mb()
        record(False)

        # Checks between rounds, untimed: the replica is dropped afterwards.
        served = []
        for batch, answer in zip(batches, answers):
            if isinstance(answer, Exception):
                errors.append(f"batch failed: {answer!r}")
            elif len(answer) != len(batch):
                errors.append("a batch returned the wrong number of regions")
            else:
                served.extend(zip(batch, answer))
        errors += _check_round(replica, served, caps)
        served_all += served
        del replica, answers
        gc.collect()
        record(True)
    record(False)

    scored = common.score_time_choices(
        common.Simulator(),
        [(region, r.power_cap, r.config) for region, results in served_all[:SCORED] for r in results],
        common.oracle_points([region for region, _ in served_all[:ORACLE]], caps),
    )
    errors += scored["errors"]

    regions = sum(len(batch) for batches in rounds for batch in batches)
    return {
        "attempted": regions,
        "failed": failed,
        "errors": errors,
        "metrics": {
            "setup_s": setup_s,
            "train_samples_per_s": train_rate,
            "speedup_geomean": scored["speedup"],
            "oracle_ratio_geomean": scored["oracle_ratio"],
            "edp_gain_geomean": scored["edp_gain"],
            "regions_per_s": regions / wall,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "peak_rss_mb": peak,
        },
        "layer": {
            "process.cpu_per_wall": cpu / wall,
            "process.rss_growth_kb_per_region": growth_kb / (per_round * BATCH),
        },
    }
