"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from check import Checker  # noqa: E402
from gen import PLANTED_KINDS, Generator  # noqa: E402
from weightvar import cli, kirwan  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(trace):
    proc = _bench("--workload", "levels-rank2", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} \
        == {name: unit for name, unit, _ in expected}
    table = "\n".join(lines[:-1])
    for name, unit, _ in expected:
        assert any(name in ln and f" {unit}" in ln for ln in table.splitlines()), name
    if not trace:
        assert "failed_frac" in table and "n=" in table


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tables", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return Generator(5, str(cache)), Checker(ROOT / "docs" / "schemas")


def _run(q):
    code, out, err, exc, _ = run.call(cli, q.argv)
    return code, out, err, exc


def test_tampered_betti_output_counts_as_failed(warm):
    gen, checker = warm
    q = gen.level_query("betti", "G", 2, (2, 1))
    code, out, err, exc = _run(q)
    assert checker.check(q, code, out, err, exc) is None
    obj = json.loads(out)
    obj["betti"][1] += 1
    assert "palindromic" in checker.check(q, code, json.dumps(obj), err, exc)
    assert "exit" in checker.check(q, 3, out, err, exc)


def test_tampered_kernel_and_oracle_outputs_count_as_failed(warm):
    gen, checker = warm
    q = gen.level_query("kernel", "A", 2, (1, 3))
    code, out, err, exc = _run(q)
    assert checker.check(q, code, out, err, exc) is None
    obj = json.loads(out)
    obj["count"] += 1
    assert checker.check(q, code, json.dumps(obj), err, exc) is not None
    q = gen.level_query("oracle-compare", "A", 2, (1, 1))
    code, out, err, exc = _run(q)
    assert checker.check(q, code, out, err, exc) is None
    obj = json.loads(out)
    obj["dims_equal"] = False
    assert checker.check(q, code, json.dumps(obj), err, exc) is not None


@pytest.mark.parametrize("kind", PLANTED_KINDS)
def test_planted_levels_are_refused_with_their_diagnostic(warm, kind):
    gen, checker = warm
    q = gen.level_query("kernel", "G", 2, (1, 3), planted=kind)
    code, out, err, exc = _run(q)
    assert code == 2
    assert checker.check(q, code, out, err, exc) is None
    assert checker.check(q, 0, out, err, exc) is not None
    other = PLANTED_KINDS[(PLANTED_KINDS.index(kind) + 1) % 3]
    assert checker.check(replace(q, planted=other), code, out, err, exc) is not None


@pytest.mark.parametrize("type_label", ["A", "B", "G"])
def test_generator_regularity_agrees_with_the_package(warm, type_label):
    gen, _ = warm
    orb = gen.orbit(type_label, 2, (2, 1))
    rs, g = orb.rs, orb.g
    orbit = kirwan.orbit_parameter(g, rs, orb.coeffs)
    for _ in range(30):
        mu = orb.interior_point(gen.rng)
        assert kirwan.is_regular(g, rs, orbit, mu)[0] == \
            (orb.classify(mu) in ("regular", "tie"))


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(1, 101))
    value, pct, beyond = run.tail(xs)
    assert (value, pct, beyond) == (90, 90, 10)
    value, pct, beyond = run.tail(list(range(14)))
    assert beyond >= 10 and value == sorted(range(14))[-beyond - 1]
