"""Benchmark entry point: time to verdict, correctness and per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it imports ``src/rekonfig`` of that
checkout and nothing else). Each pass runs the workload's fixed instance list
once in a fresh interpreter (perfbench/worker.py); passes repeat until
``--seconds`` would be exceeded by one more (at least three passes).

``--trace 0`` prints the end-to-end metrics (see ``summarize``):

* ``wall_s``: the instances' times to verdict back to back, from the first
  solver or CLI call to the last verdict; generation and answer checking are
  outside this window.
* ``verdict_geomean_ms``: geometric mean of the per-instance times.
* ``setup_s``: process start, import, instance generation and file writing,
  up to the start of the window.
* ``peak_rss_mb``: peak resident memory of the pass process (for
  cli_pipeline, the largest CLI child process).

``--trace 1`` runs one traced pass (perfbench/tracer.py) plus untraced passes
and prints the per-layer metrics, with ``trace.overhead_s`` = traced minus
untraced ``wall_s``.

Every instance's verdict is checked against a reference outside the window.
A pass that exceeds its wall-clock cap is killed and all of its instances
count as failed. The last stdout line is the JSON result; the lines before it
give one row per instance (workload, instance id, verdict, length, seconds).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("bfs_k1", "bfs_k2", "xp_vcr", "cli_pipeline")
PASS_CAP_SECONDS = 60.0
# Every run ends well inside 180 s: no pass starts after this point.
RUN_LIMIT_SECONDS = 110.0
MIN_PASSES = 3

END_TO_END = {"wall_s": "s", "verdict_geomean_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def check_checkout() -> None:
    """Exit non-zero unless this checkout's rekonfig imports; this also
    compiles its bytecode before the first timed pass."""
    if not (ROOT / "src" / "rekonfig" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/rekonfig under {ROOT}")
    probe = subprocess.run(
        [sys.executable, "-c", "import rekonfig.cli"], cwd=ROOT, env=_env(), capture_output=True, text=True
    )
    if probe.returncode != 0:
        sys.exit(f"perfbench: cannot import rekonfig:\n{probe.stderr}")


def run_pass(workload: str, seed: int, traced: bool, cap: float) -> dict:
    """One worker process; on a hang the whole process group is killed."""
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if traced:
        argv.append("--trace")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=cap)
    except subprocess.TimeoutExpired:
        out, err = _kill(proc)
        lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        cases = lines[0]["cases"] if lines else 1
        return {"hung": True, "cases": cases, "wall_s": time.monotonic() - spawned}
    except BaseException:  # interrupted or terminated: take the pass down too
        _kill(proc)
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        sys.exit(f"perfbench: {workload} worker exited {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["window_start"] - spawned
    result["cases"] = len(result["rows"])
    return result


def _kill(proc: subprocess.Popen) -> tuple[str, str]:
    """Kill a worker with its CLI children, wait for it, drop its files."""
    os.killpg(proc.pid, signal.SIGKILL)
    out, err = proc.communicate()
    shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)
    return out, err


def report_pass(index: int, result: dict, traced: bool) -> None:
    kind = "traced" if traced else "timed"
    if result.get("hung"):
        print(f"# pass {index} ({kind}): killed after {result['wall_s']:.1f}s, {result['cases']} instances failed")
        return
    print(
        f"# pass {index} ({kind}): inputs {result['hash']} wall_s {result['wall_s']:.4f} "
        f"setup_s {result['setup_s']:.4f} failed {result['failed']}/{result['cases']}"
    )
    for case_id, verdict, length, seconds, why in result["rows"]:
        print(f"{result['workload']} {case_id} {verdict} {length} {seconds:.6f} {why or 'ok'}")


def main() -> None:
    parser = argparse.ArgumentParser(description="rekonfig benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))

    check_checkout()
    started = time.monotonic()
    traced = None
    if args.trace:
        traced = run_pass(args.workload, args.seed, True, PASS_CAP_SECONDS)
        report_pass(0, traced, True)
    passes: list[dict] = []
    pass_seconds = 0.0
    while True:
        elapsed = time.monotonic() - started
        if len(passes) >= MIN_PASSES and (
            elapsed + pass_seconds > args.seconds or elapsed >= RUN_LIMIT_SECONDS
        ):
            break
        t0 = time.monotonic()
        passes.append(run_pass(args.workload, args.seed, False, PASS_CAP_SECONDS))
        pass_seconds = time.monotonic() - t0
        report_pass(len(passes), passes[-1], False)

    every = passes + ([traced] if traced else [])
    attempted = sum(p["cases"] for p in every)
    failed = sum(p["cases"] if p.get("hung") else p["failed"] for p in every)
    done = [p for p in passes if not p.get("hung")]
    if not done:  # every pass hung: report the cap
        done = [{"rows": [["hung", None, None, PASS_CAP_SECONDS, ""]], "setup_s": PASS_CAP_SECONDS, "peak_rss_mb": 0.0}]
    summary = summarize(done)
    print(f"# {args.workload}: {len(passes)} passes, fail_ratio {failed}/{attempted}")
    if traced is None:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layers = dict(traced.get("layers") or {})
        if not traced.get("hung"):
            layers["trace.wall_s"] = traced["wall_s"]
            layers["trace.overhead_s"] = traced["wall_s"] - summary["wall_s"]
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def summarize(passes: list[dict]) -> dict[str, float]:
    """End-to-end metrics of a run.

    On a shared 2-core VM single-thread speed shifts by up to 1.8x within
    seconds, so each instance's time is its fastest over the run's passes:
    the estimate least disturbed by that drift. wall_s sums these times (the window is the
    calls back to back) and verdict_geomean_ms is their geometric mean.
    setup_s and peak_rss_mb are medians over passes.
    """
    fastest_by_id: dict[str, float] = {}
    for p in passes:
        for case_id, _, _, seconds, _ in p["rows"]:
            fastest_by_id[case_id] = min(seconds, fastest_by_id.get(case_id, seconds))
    fastest = list(fastest_by_id.values())
    return {
        "wall_s": sum(fastest),
        "verdict_geomean_ms": 1000 * math.exp(statistics.fmean(math.log(max(t, 1e-9)) for t in fastest)),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_pair"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
