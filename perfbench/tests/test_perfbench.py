"""Benchmark self-tests: python -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

from rekonfig import cli, exact, graph, matching, xp  # noqa: E402


def _worker(name: str, *flags: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", "7", "--smoke", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", ["bfs_k1", "bfs_k2", "xp_vcr", "cli_pipeline"])
def test_smoke_run_is_correct_and_tracing_changes_nothing(name):
    plain = _worker(name)
    first = _worker(name, "--trace")
    second = _worker(name, "--trace")
    assert plain["failed"] == 0 and plain["rows"], plain["rows"]
    assert plain["hash"] == first["hash"] == second["hash"]
    verdicts = [[row[0], row[1], row[2]] for row in plain["rows"]]
    assert verdicts == [[row[0], row[1], row[2]] for row in first["rows"]]
    assert first["failed"] == second["failed"] == 0
    assert _counts(first["layers"]) == _counts(second["layers"])


def test_tracer_leaves_certificates_unchanged():
    cases = workloads.make_bfs(1)(3, True, None)
    plain = [o.detail.shortest for o in workloads.run_bfs(cases)]
    with Tracer() as tracer:
        traced = [o.detail.shortest for o in workloads.run_bfs(cases, tracer)]
    assert plain == traced
    assert tracer.summary()["exact.solve_exact.calls"] == len(cases)


def test_tracer_patches_every_binding_and_restores_them():
    originals = (matching.has_perfect_matching_between, xp.konig_min_vertex_cover, cli.solve_exact,
                 graph.Graph.induced_subgraph)
    with Tracer():
        assert exact.has_perfect_matching_between is matching.has_perfect_matching_between
        for fn in (exact.has_perfect_matching_between, xp.konig_min_vertex_cover, xp.bipartition_of,
                   cli.solve_exact, graph.Graph.induced_subgraph):
            assert hasattr(fn, "__wrapped__")
    assert (matching.has_perfect_matching_between, xp.konig_min_vertex_cover, cli.solve_exact,
            graph.Graph.induced_subgraph) == originals
    assert len(TRACED) == len(set(TRACED))


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bfs_k1", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
