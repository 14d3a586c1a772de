"""The repository benchmark: Fig. 3 training, sharded rollout, serving.

Run every workload, each in a fresh process, with tracing off::

    python3 perfbench/run.py

Run one workload as the contract in ``BENCHMARK.json`` describes::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload with the benchmark's layer timers installed and prints the
per-layer metrics and the tracing overhead instead.  Either way the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is non-zero
when any check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import emit, metric, stamp, use_source_tree  # noqa: E402

WORKLOADS = ("train_fig3", "train_sharded", "serve")


def _spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(name, seed, seconds, trace):
    """One workload in this process; returns the result for :func:`emit`."""
    if name == "serve":
        import serve as module
    else:
        import train as module
    if not trace:
        return module.run(name, seed, seconds)
    result = module.run_traced(name, seed, seconds)
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    layers = result.pop("layers")
    unknown = sorted(set(layers) - set(units))
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {unknown}")
    # A layer the workload never calls did no work: it reads zero.
    result["metrics"] = {
        name: layers.get(name, metric(0.0, unit))
        for name, unit in units.items()
    }
    result["report"]["layers_table"] = [
        f"{name:<40} {entry['value']:>14.4f} {entry['unit']}"
        for name, entry in result["metrics"].items()
    ]
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its server and rollout workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        use_source_tree()
        seconds = (args.seconds if args.seconds is not None
                   else _spec()["run_seconds"])
    except (ImportError, OSError) as exc:
        print(f"perfbench: not inside a checkout of the program: {exc}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            status |= subprocess.call([
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(seconds),
                "--trace", str(args.trace)])
        return 1 if status else 0

    result = run_workload(args.workload, args.seed, seconds, args.trace)
    result.setdefault("report", {})["stamp"] = stamp(
        args.workload, args.seed, args.trace)
    emit(result)
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
