"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--smoke]

A fresh process per pass keeps module-global state (the XP build cache, the
``Graph`` cached properties) from carrying over between passes. Prints
``{"cases": ...}`` before the timed window, so a pass killed for hanging
still reports how many instances it lost, and one JSON result line at the
end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
os.environ["PYTHONPATH"] = str(ROOT / "src")

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _fastest_seconds(argv: list[str], times: int = 10) -> float:
    """Fastest of several runs, the estimator run.py uses for wall_s."""
    samples = []
    for _ in range(times):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return min(samples)


def spawn_and_import(processes: int) -> dict[str, float]:
    """Cost of the CLI processes the untraced pipeline starts: a bare
    interpreter, and the extra time of a fresh ``import rekonfig.cli``."""
    if not processes:
        return {"cli.spawn_s": 0.0, "cli.import_s": 0.0}
    spawn = _fastest_seconds([sys.executable, "-c", "pass"])
    imported = _fastest_seconds([sys.executable, "-c", "import rekonfig.cli"])
    return {"cli.spawn_s": processes * spawn, "cli.import_s": processes * (imported - spawn)}


def check_layers(layers: dict[str, float], workload: workloads.Workload, name: str) -> None:
    for layer in workload.expect_layers:
        if layers[f"{layer}.calls"] == 0:
            raise SystemExit(f"trace: layer {layer} recorded no calls on {name}")
    for layer in workload.forbid_layers:
        if layers[f"{layer}.calls"]:
            raise SystemExit(f"trace: layer {layer} was called on {name}")


def run_pass(name: str, seed: int, traced: bool, smoke: bool) -> dict:
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.workloads(workdir)[name]
        cases = workload.make(seed, smoke, workdir)
        print(json.dumps({"cases": len(cases)}), flush=True)
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        window_start = time.monotonic()
        t0 = time.perf_counter()
        try:
            outcomes = workload.run(cases, tracer)
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        rusage = resource.RUSAGE_CHILDREN if name == "cli_pipeline" and not traced else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(rusage).ru_maxrss / 1024
        layers = None
        if tracer:
            layers = tracer.summary()
            check_layers(layers, workload, name)
            layers.update(spawn_and_import(layers["cli.main.calls"]))
        workload.check(cases, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another pass still uses it
    return {
        "workload": name,
        "seed": seed,
        "hash": workloads.inputs_hash(cases),
        "window_start": window_start,
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "rows": [[o.id, o.verdict, o.length, o.seconds, o.why] for o in outcomes],
        "failed": sum(not o.ok for o in outcomes),
        "layers": layers,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["bfs_k1", "bfs_k2", "xp_vcr", "cli_pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="record per-layer spans")
    parser.add_argument("--smoke", action="store_true", help="smallest instance of each family")
    args = parser.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, args.trace, args.smoke)), flush=True)


if __name__ == "__main__":
    main()
