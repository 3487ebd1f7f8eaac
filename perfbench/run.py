"""Benchmark of the PnP tuner: one workload per run, one JSON line of results.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload offline-tune --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` installs the span wrappers of ``tracing.py`` and prints every
per-layer metric instead (0 where the workload does not use the layer), and
writes the spans to ``.perfbench/trace-<workload>-s<seed>.json``.  The last
line of standard output is the result object; human-readable lines come
before it and problems go to standard error.

The program under test is imported from ``src/`` of the checkout this file
sits in, and nowhere else: without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common

# BLAS and OpenMP pinned to one thread: a second OpenBLAS thread adds no
# training speed here but spins on the core the fleet nodes need.  The hash
# seed fixes set and dict orders that depend on string hashes.
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as error:
        _fail(f"cannot import the program from {src}: {error}")
    # ``repro`` is a namespace package: every directory it spans must be ours.
    outside = [p for p in repro.__path__ if not os.path.abspath(p).startswith(src + os.sep)]
    if outside:
        _fail(f"repro was imported from {outside}, not from {src}")


def _spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        _fail(f"cannot read BENCHMARK.json: {error}")


def main() -> None:
    clock = common.SetupClock()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if any(os.environ.get(key) != value for key, value in PINS.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINS})

    spec = _spec()
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    if args.seconds < 1:
        _fail("--seconds must be at least 1")
    _load_program()

    import gateway_mix
    import novel_batch
    import offline_tune

    module, attempts = {
        "offline-tune": (offline_tune, "folds"),
        "novel-batch": (novel_batch, "regions"),
        "gateway-mix": (gateway_mix, "requests"),
    }[args.workload]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def record(on: bool) -> None:
        """Workloads switch span recording off around their output checks."""
        if tracer is not None:
            tracer.recording = on

    result = module.run(args.seed, args.seconds, clock, record)

    if tracer is not None:
        from tracing import layer_metrics

        tracer.uninstall()
        values = layer_metrics(tracer.spans)
        values.update(result["layer"])
        tracer.write(
            os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-s{args.seed}.json")
        )
        wanted = spec["per_layer"]
    else:
        values = result["metrics"]
        wanted = spec["end_to_end"]
    unknown = (set(result["metrics"]) - {m["name"] for m in spec["end_to_end"]}) | (
        set(result["layer"]) - {m["name"] for m in spec["per_layer"]}
    )
    if unknown:
        _fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if tracer is None and name not in values:
            _fail(f"{args.workload} does not produce {name}")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": metric["unit"]}

    for error in result["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"attempted={result['attempted']} {attempts} failed={result['failed']} "
        f"check_failures={len(result['errors'])}"
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if tracer is not None:
        # Measured with the wrappers installed: set against an untraced run
        # these give the tracing overhead.
        for metric in spec["end_to_end"]:
            value = result["metrics"][metric["name"]]
            print(f"  (traced) {metric['name']} = {value:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not result["errors"],
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
    # Every child process has been joined and the result printed: skip the
    # interpreter's teardown of a heap of up to 0.6 GB, which only lengthens
    # each run.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)
