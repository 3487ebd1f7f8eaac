"""gateway-mix: an open-loop schedule of single-region sweeps through the
asyncio ``Gateway`` over a 2-node ``LocalFleet`` serving the distilled tier.

Set-up runs the campaign, fits the serving tuner, distills the families in
``DISTILLED`` and starts the fleet with the distilled blob.  It then sweeps
the whole suite through the fleet once and sends ``WARM_UP`` requests
through the gateway, so the nodes' suite graphs are built and the gateway
has latency history before timing starts.

The schedule (see README): a steady ``RATE`` requests per second plus, every
``BURST_EVERY`` seconds, ``BURST`` simultaneous requests, for ``--seconds``
seconds.  Each request is one of three kinds, in equal shares:

* ``repeat`` — a suite region from a family without a student, drawn from a
  pool of ``POOL`` regions: warm in the node's embedding cache;
* ``in-family`` — a novel region near a distilled family's suite regions:
  answered by the micro tier when the trust gate admits it;
* ``out-of-family`` — a novel region of a family without a student: the GNN
  path builds its graph and encodes it on the node.

Each request is timed from the moment it was due, so a stall also delays
the requests behind it; how late the generator itself sent is reported as
``loadgen.lateness_ms_max``.
"""

from __future__ import annotations

import asyncio
import gc
import time
from typing import Dict, List

import common
from common import percentile
from generator import RegionGenerator, suite_by_family

RATE = 8.0
BURST = 4
BURST_EVERY = 1.25
POOL = 8
WARM_UP = 16
IN_FAMILY_SCALE = 0.1
OUT_OF_FAMILY_SCALE = 0.2
#: Families with a distilled student (22 of the 68 suite regions).
DISTILLED = ("LULESH", "Quicksilver", "XSBench", "gemm", "jacobi-2d", "miniFE")
#: Distinct novel regions compared with the exhaustive oracle, one cap each.
ORACLE = 48
KINDS = ("repeat", "in-family", "out-of-family")


def schedule(seed: int, seconds: int, stream: str = "") -> List[tuple]:
    """``[(due_s, kind, region)]`` for one run, sorted by due time.

    Kinds cycle in a fixed order and bases are drawn in a fixed order, so
    the seed changes only the jitter of the novel regions.
    """
    families = suite_by_family()
    distilled = [r for f in DISTILLED for r in families[f]]
    others = [r for f, regions in families.items() if f not in DISTILLED for r in regions]
    pool = others[:: len(others) // POOL][:POOL]
    in_family = RegionGenerator(seed, stream + "in-family")
    out_of_family = RegionGenerator(seed, stream + "out-of-family")

    dues = [k / RATE for k in range(int(RATE * seconds))]
    for b in range(int(seconds / BURST_EVERY)):
        # Midway between two steady ticks, so a burst never lands on one.
        dues += [(b + 0.5) * BURST_EVERY + 0.5 / RATE] * BURST
    dues.sort()
    plan = []
    for n, due in enumerate(dues):
        kind = KINDS[n % len(KINDS)]
        if kind == "repeat":
            region = pool[(n // len(KINDS)) % POOL]
        elif kind == "in-family":
            region = in_family.draw(distilled, 1, IN_FAMILY_SCALE)[0]
        else:
            region = out_of_family.draw(others, 1, OUT_OF_FAMILY_SCALE)[0]
        plan.append((due, kind, region))
    return plan


async def _drive(gateway, plan, caps):
    """Send every request of ``plan`` at its due time; time each from due."""
    loop = asyncio.get_running_loop()
    outcomes: List = [None] * len(plan)
    latencies: List[float] = [0.0] * len(plan)
    lateness: List[float] = []

    async def one(index, due_at, region):
        try:
            outcomes[index] = await gateway.predict_sweep(region, caps)
        except Exception as error:  # noqa: BLE001 - counted as failed
            outcomes[index] = error
        latencies[index] = loop.time() - due_at

    tasks = []
    start = loop.time() + 0.05
    for index, (due, _kind, region) in enumerate(plan):
        due_at = start + due
        delay = due_at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(loop.time() - due_at)
        tasks.append(loop.create_task(one(index, due_at, region)))
    await asyncio.gather(*tasks)
    return outcomes, latencies, lateness, loop.time() - start


async def _serve(fleet, plan, caps, warm_up, clock):
    from repro.serve import Gateway

    async with Gateway(fleet.client) as gateway:
        for region in warm_up:
            await gateway.predict_sweep(region, caps)
        setup_s = clock.elapsed()
        before = fleet.stats()
        cpu0 = {i: common.proc_cpu_s(s["pid"]) for i, s in before.items()}
        client_cpu0, wall0 = common.cpu_times(), time.perf_counter()
        outcomes, latencies, lateness, span = await _drive(gateway, plan, caps)
        client_cpu = (common.cpu_times() - client_cpu0) / (time.perf_counter() - wall0)
        after = fleet.stats()
        node_cpu = sum(common.proc_cpu_s(s["pid"]) - cpu0[i] for i, s in after.items())
        gateway_stats = gateway.stats()
    return {
        "setup_s": setup_s,
        "outcomes": outcomes,
        "latencies": latencies,
        "lateness": lateness,
        "span": span,
        "before": before,
        "after": after,
        "node_cpu": node_cpu,
        "client_cpu_per_wall": client_cpu,
        "gateway": gateway_stats,
    }


def _delta(after: Dict, before: Dict, key: str, sub: str = "") -> float:
    """Growth of a node counter over the timed section, summed over nodes."""

    def value(stats):
        return stats[key][sub] if sub else stats[key]

    return float(sum(value(stats) - value(before[index]) for index, stats in after.items()))


def run(seed: int, seconds: int, clock, record) -> Dict:
    from repro.core.measurements import get_measurement_database
    from repro.distill import DistilledModel, distill
    from repro.serve import LocalFleet, tiered_predictor

    database = get_measurement_database(common.SYSTEM, seed=0)
    tuner, train_rate = common.serving_tuner(database)
    caps = [float(c) for c in database.search_space.power_caps]
    families = suite_by_family()
    blob = distill(tuner, {f: families[f] for f in DISTILLED}).to_blob()
    plan = schedule(seed, seconds)
    warm_up = [region for _, _, region in schedule(seed, seconds, "warm-up/")[:WARM_UP]]

    # The nodes are forked from this process: collect first, so what they
    # inherit (and so their VmHWM) does not depend on when the last
    # collection happened to run.
    gc.collect()
    fleet = LocalFleet(tuner, num_nodes=2, distilled=blob)
    try:
        fleet.sweep([r for regions in families.values() for r in regions], caps)
        served = asyncio.run(_serve(fleet, plan, caps, warm_up, clock))
        node_hwm = sum(common.proc_status_kb(s["pid"], "VmHWM") for s in served["after"].values())
        node_rss = [common.proc_status_kb(s["pid"], "VmRSS") for s in served["after"].values()]
        peak = common.peak_rss_mb() + node_hwm / 1024.0
    finally:
        fleet.close()
    record(False)

    # ------------------------------------------------------------- checks
    errors: List[str] = []
    reference = tiered_predictor(tuner, DistilledModel.from_blob(blob))
    answered = []
    failed = 0
    for (_due, _kind, region), outcome in zip(plan, served["outcomes"]):
        if isinstance(outcome, Exception):
            failed += 1
            continue
        want = reference.predict_sweep(region, caps)
        got = [(r.region_id, r.power_cap, r.label) for r in outcome]
        if len(outcome) != len(caps) or got != [
            (r.region_id, r.power_cap, r.label) for r in want
        ]:
            errors.append(f"{region.region_id}: served answer differs from the in-process one")
        answered.append((region, outcome))
    distinct = {}
    for region, outcome in answered:
        distinct.setdefault(region.region_id, (region, outcome))
    novel = [region for _, kind, region in plan if kind != "repeat"]
    scored = common.score_time_choices(
        common.Simulator(),
        [(region, r.power_cap, r.config) for region, outcome in distinct.values() for r in outcome],
        common.oracle_points(novel[:ORACLE], caps),
    )
    errors += scored["errors"]

    completed = len(answered)
    latencies_ms = [
        latency * 1e3
        for latency, outcome in zip(served["latencies"], served["outcomes"])
        if not isinstance(outcome, Exception)
    ]
    micro = _delta(served["after"], served["before"], "tier", "micro_hits")
    fallbacks = _delta(served["after"], served["before"], "tier", "fallbacks")
    hits = _delta(served["after"], served["before"], "hits")
    misses = _delta(served["after"], served["before"], "misses")
    return {
        "attempted": len(plan),
        "failed": failed,
        "errors": errors,
        "metrics": {
            "setup_s": served["setup_s"],
            "train_samples_per_s": train_rate,
            "speedup_geomean": scored["speedup"],
            "oracle_ratio_geomean": scored["oracle_ratio"],
            "edp_gain_geomean": scored["edp_gain"],
            "regions_per_s": completed / served["span"],
            "latency_p50_ms": percentile(latencies_ms, 50),
            "latency_p90_ms": percentile(latencies_ms, 90),
            "peak_rss_mb": peak,
        },
        "layer": {
            "distill.micro_share": micro / (micro + fallbacks) if micro + fallbacks else 0.0,
            "tuner.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "gateway.hedges": float(served["gateway"]["hedges"]),
            "gateway.retries": float(served["gateway"]["retries"]),
            "node.cpu_ms_per_request": served["node_cpu"] * 1e3 / len(plan),
            "node.rss_mb": sum(node_rss) / len(node_rss) / 1024.0,
            "process.cpu_per_wall": served["client_cpu_per_wall"],
            "loadgen.lateness_ms_max": max(served["lateness"]) * 1e3,
        },
    }
