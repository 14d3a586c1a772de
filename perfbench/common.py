"""Shared helpers: statistics, memory readings, the host stamp, output.

Nothing here imports the program under test at module level, so the
benchmark can fail cleanly (non-zero exit, no result line) in a directory
that holds only the benchmark.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")



def use_source_tree():
    """Put the checkout's ``src`` (the program) and ``benchmarks`` (for
    ``benchio``) first on ``sys.path``; raises ImportError unless the
    program is imported from this checkout."""
    for path in (os.path.join(ROOT, "benchmarks"), SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import benchio  # noqa: F401
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro is not imported from {SRC}")


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values):
    return percentile(values, 50)


def _status_kb(pid, field):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0


def peak_rss_mb(pid="self"):
    """Peak resident set (VmHWM) of one process in MiB, from ``/proc``."""
    return _status_kb(pid, "VmHWM") / 1024.0


def family_peak_rss_mb():
    """Peak RSS of this process plus each live child process it started
    through :mod:`multiprocessing` (the rollout workers), in MiB."""
    return peak_rss_mb() + sum(
        peak_rss_mb(c.pid) for c in multiprocessing.active_children())


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def stamp(workload, seed, trace):
    """The identity block every result carries."""
    from benchio import host_metadata

    return {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "host": host_metadata(),
        "git_sha": _git_sha(),
    }


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def emit(result):
    """Print the human-readable block, then the one-line JSON result.

    ``result`` holds ``correct``, ``attempted``, ``failed``, ``metrics``
    (the gated set) and ``report`` (every named metric, the stamp and the
    per-layer table) — only the first four go on the last line.
    """
    report = result.get("report", {})
    print("# stamp " + json.dumps(report.get("stamp", {}), sort_keys=True))
    for name, entry in sorted(report.get("named", {}).items()):
        print(f"{name:<36} {entry['value']:>14.4f} {entry['unit']}")
    for line in report.get("layers_table", []):
        print(line)
    for name, entry in sorted(result["metrics"].items()):
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }, sort_keys=True))
    sys.stdout.flush()
