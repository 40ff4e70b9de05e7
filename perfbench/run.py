"""weightvar benchmark: one closed-loop client calling the CLI in-process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload levels-rank2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One query is one call of `weightvar.cli.main(argv)` with stdout and stderr
captured. Set-up builds the workload's restriction tables cold, several
times, each in a fresh process with an empty cache directory; the query
phase then runs whole rounds of warm queries until the next round would
overrun `--seconds`. Outputs are verified between rounds, off the clock.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics, taken with wrappers around
the package's public functions (see tracing.py), plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_SAMPLES = 11      # the tail percentile needs ten samples beyond it
PHASE_CAP_S = 120.0   # keeps a run under the 180 s limit, however slow the code

END_TO_END = [  # name, unit, better
    ("setup_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_tail_ms", "ms", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [  # name, unit, better
    ("rootsys.build_root_system.total_s", "s", "lower"),
    ("weyl.generate_weyl.total_s", "s", "lower"),
    ("weyl.elements", "count", "lower"),
    ("workers.compute_columns.total_s", "s", "lower"),
    ("workers.compute_columns.columns", "count", "lower"),
    ("workers.compute_columns.total_s_1t", "s", "lower"),
    ("schubert.ensure_table.total_s", "s", "lower"),
    ("schubert.schubert_class.calls", "count", "lower"),
    ("schubert.schubert_class.self_s", "s", "lower"),
    ("schubert.twisted_class.calls", "count", "lower"),
    ("schubert.twisted_class.self_s", "s", "lower"),
    ("schubert.twisted_support.calls", "count", "lower"),
    ("schubert.twisted_support.self_s", "s", "lower"),
    ("poly.LinearSubstitution.calls", "count", "lower"),
    ("poly.LinearSubstitution.self_s", "s", "lower"),
    ("poly.ModularRank.add_row.calls", "count", "lower"),
    ("poly.ModularRank.accept_ratio", "ratio", "higher"),
    ("poly.IncrementalRank.add_row.calls", "count", "lower"),
    ("poly.IncrementalRank.accept_ratio", "ratio", "higher"),
    ("kirwan.is_regular.calls", "count", "lower"),
    ("kirwan.is_regular.self_s", "s", "lower"),
    ("kirwan.is_regular.refused", "count", "lower"),
    ("kirwan.kernel_generators.calls", "count", "lower"),
    ("kirwan.kernel_generators.self_s", "s", "lower"),
    ("kirwan.kernel_generators.generators", "count", "lower"),
    ("kirwan.tw_oracle_generators.self_s", "s", "lower"),
    ("kirwan.fourier_motzkin_feasible.calls", "count", "lower"),
    ("kirwan.fourier_motzkin_feasible.self_s", "s", "lower"),
    ("kirwan.fourier_motzkin_feasible.feasible_ratio", "ratio", "higher"),
    ("kirwan.ideal_graded_dims.calls", "count", "lower"),
    ("kirwan.ideal_graded_dims.self_s", "s", "lower"),
    ("kirwan.quotient_betti.self_s", "s", "lower"),
    ("cache.store_table.total_s", "s", "lower"),
    ("cache.store_table.bytes", "bytes", "lower"),
    ("cache.load_table.calls", "count", "lower"),
    ("cache.load_table.total_s", "s", "lower"),
    ("cache.load_table.bytes", "bytes", "lower"),
    ("serialize.canonical_json.calls", "count", "lower"),
    ("serialize.canonical_json.total_s", "s", "lower"),
    ("serialize.canonical_json.bytes", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# ratio metric -> (numerator, denominator) raw tracer keys
_RATIOS = {
    "poly.ModularRank.accept_ratio":
        ("poly.ModularRank.add_row.accepted", "poly.ModularRank.add_row.calls"),
    "poly.IncrementalRank.accept_ratio":
        ("poly.IncrementalRank.add_row.accepted", "poly.IncrementalRank.add_row.calls"),
    "kirwan.fourier_motzkin_feasible.feasible_ratio":
        ("kirwan.fourier_motzkin_feasible.feasible",
         "kirwan.fourier_motzkin_feasible.calls"),
}


def checkout_ok(root: Path) -> bool:
    return ((root / "src" / "weightvar" / "cli.py").is_file()
            and (root / "docs" / "schemas" / "error.schema.json").is_file())


# -- set-up ---------------------------------------------------------------------


def setup_child(spec: dict) -> dict:
    """Run setup_child.py in a fresh interpreter and return its result."""
    env = {k: v for k, v in os.environ.items() if k != "WEIGHTVAR_CACHE"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_setup(wl, tmp: Path, trace: bool, out_dir: Path) -> dict:
    """Cold builds at the workload's thread count (median time). A traced run
    does one traced build, plus a traced 1-thread build whose output bytes
    must match it and whose time is the single-thread baseline."""
    threads = min(wl.setup_threads, os.cpu_count() or 1)
    base = {"root": str(ROOT), "tables": [list(t) for t in wl.tables]}
    reps = 1 if trace else wl.setup_reps
    results, errors = [], []
    for i in range(reps):
        spec = dict(base, cache_dir=str(tmp / f"cold{i}"), threads=threads,
                    trace=trace, span_file=str(out_dir / f"spans-{wl.name}-setup.tsv.gz"))
        results.append(setup_child(spec))
        if i:
            shutil.rmtree(tmp / f"cold{i}")
    if trace:
        results.append(setup_child(dict(base, cache_dir=str(tmp / "cold-1t"),
                                        threads=1, trace=True)))
        shutil.rmtree(tmp / "cold-1t")
    for r in results:
        errors.extend(r["errors"])
        if r["tables"] != results[0]["tables"]:
            errors.append("cold restrict output differs between builds "
                          "(or between --threads 1 and 2)")
    return {"times": [r["seconds"] for r in results[:reps]],
            "tables": results[0]["tables"],
            "layers": results[0].get("layers", {}),
            "layers_1t": results[-1].get("layers", {}) if trace else {},
            "errors": errors, "cache_dir": tmp / "cold0"}


# -- query phase ------------------------------------------------------------------


def call(cli, argv) -> tuple[int | None, str, str, Exception | None, float]:
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as e:  # a crash is a failed query, not a crashed benchmark
        exc = e
    return code, out.getvalue(), err.getvalue(), exc, time.perf_counter() - t0


def run_phase(cli, wl, gen, checker, rng, seconds: float, first_round: int,
                min_rounds: int, min_samples: int, tracer=None) -> dict:
    """Whole rounds until the next one would overrun `seconds`, at least
    `min_rounds` rounds and `min_samples` queries ran. Only the queries are
    on the clock: query generation, a garbage collection before each query
    and the checks of each round's outputs are not. The collection gives
    every query a clean heap, as a fresh CLI process has, instead of the
    previous query's garbage; outputs are dropped once checked, so memory
    does not grow with the number of rounds."""
    records, busy, k = [], 0.0, first_round
    while True:
        qs = wl.round(gen, rng, k)
        outputs = []
        for q in qs:
            if tracer is not None:
                tracer.query_id = len(records) + len(outputs)
            gc.collect()
            outputs.append(call(cli, q.argv))
        busy += sum(o[-1] for o in outputs)
        for q, (code, out, err, exc, latency) in zip(qs, outputs):
            records.append((q, latency, checker.check(q, code, out, err, exc)))
        k += 1
        rounds = k - first_round
        if busy > PHASE_CAP_S:
            break
        if rounds < min_rounds or len(records) < min_samples:
            continue
        if busy + busy / rounds > seconds:
            break
    return {"records": records, "busy": busy, "rounds": rounds, "next_round": k}


def tail(lat_ms: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile (nearest rank) with at least ten samples
    beyond it: (value, percentile, samples beyond)."""
    xs = sorted(lat_ms)
    n = len(xs)
    p = (100 * (n - 10)) // n
    idx = max(0, math.ceil(p * n / 100) - 1)
    return xs[idx], p, n - idx - 1


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def layer_metrics(raw: dict, raw_1t: dict, overhead: float) -> dict[str, float]:
    out = {}
    for name, _, _ in PER_LAYER:
        if name in _RATIOS:
            num, den = _RATIOS[name]
            out[name] = raw.get(num, 0) / raw[den] if raw.get(den) else 0.0
        elif name == "weyl.elements":
            out[name] = raw.get("weyl.generate_weyl.elements", 0)
        elif name == "workers.compute_columns.total_s_1t":
            out[name] = raw_1t.get("workers.compute_columns.total_s", 0.0)
        elif name == "trace.overhead_frac":
            out[name] = overhead
        else:
            out[name] = raw.get(name, 0)
    return out


def merge(*dicts: dict) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    from check import Checker
    from gen import Generator
    from weightvar import cli

    wl = WORKLOADS[name]
    tmp = ROOT / ".perfbench-tmp" / f"{name}-{os.getpid()}"
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tmp.mkdir(parents=True)
    try:
        setup = run_setup(wl, tmp, trace, out_dir)
        gen = Generator(seed, str(setup["cache_dir"]))
        rng = random.Random(seed)
        for t, r in wl.tables:  # warm the in-process group registry, untimed
            call(cli, ("weyl", "--type", t, "--rank", str(r),
                       "--cache-dir", str(setup["cache_dir"])))
        checker = Checker(ROOT / "docs" / "schemas", setup["tables"])
        if trace:
            plain = run_phase(cli, wl, gen, checker, rng, seconds / 2, 0, 1, 1)
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(cli, wl, gen, checker, rng, seconds / 2,
                                   plain["next_round"], 1, 1, tracer)
            finally:
                tracer.uninstall()
            phases = [plain, traced]
        else:
            phases = [run_phase(cli, wl, gen, checker, rng, seconds, 0,
                                wl.min_rounds, MIN_SAMPLES)]
        records = [r for ph in phases for r in ph["records"]]
        failures = [f"{' '.join(q.argv[:5])}: {reason}"
                    for q, _, reason in records if reason is not None]
        result = {"workload": name, "seed": seed, "setup": setup,
                  "failures": failures, "attempted": len(records),
                  "redraws": gen.redraws}
        if trace:
            qps = [len(ph["records"]) / ph["busy"] for ph in phases]
            raw = merge(setup["layers"], tracer.layer_values())
            result["layers"] = layer_metrics(raw, setup["layers_1t"],
                                             1 - qps[1] / qps[0])
            result["spans"] = tracer.dump(out_dir / f"spans-{name}.tsv.gz")
        else:
            phase = phases[0]
            lat_ms = [latency * 1000 for _, latency, _ in records]
            t_val, t_pct, t_beyond = tail(lat_ms)
            result.update(rounds=phase["rounds"], busy=phase["busy"],
                          p50=statistics.median(lat_ms), tail=t_val,
                          tail_pct=t_pct, tail_beyond=t_beyond,
                          qps=len(records) / phase["busy"],
                          setup_s=statistics.median(setup["times"]),
                          rss=peak_rss_mb())
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench-tmp").rmdir()


# -- reporting ----------------------------------------------------------------------


def report(res: dict, trace: bool) -> dict:
    """Print the human-readable rows and return the result object."""
    n = res["attempted"]
    failed = len(res["failures"])
    errors = res["setup"]["errors"]
    for line in errors + res["failures"][:20]:
        print(f"FAILED {line}")
    print(f"# workload {res['workload']} seed {res['seed']}: {n} queries, "
          f"{failed} failed, {res['redraws']} irregular random levels redrawn")
    if trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        for name, m in metrics.items():
            print(f"{res['workload']:13s} {name:48s} {m['value']:.6g} {m['unit']}")
    else:
        values = {
            "setup_s": (res["setup_s"],
                        f"median of n={len(res['setup']['times'])} cold builds"),
            "query_p50_ms": (res["p50"], f"n={n}"),
            "query_tail_ms": (res["tail"],
                              f"p{res['tail_pct']}, n={n}, {res['tail_beyond']} beyond"),
            "queries_per_s": (res["qps"],
                              f"n={n} in {res['busy']:.2f} s, {res['rounds']} rounds"),
            "peak_rss_mb": (res["rss"], "self and children"),
        }
        rows = [(name, *values[name], unit) for name, unit, _ in END_TO_END]
        rows.append(("failed_frac", failed / n, f"{failed}/{n}, not a bounded metric",
                     "ratio"))
        for name, value, note, unit in rows:
            print(f"{res['workload']:13s} {name:14s} {value:12.4f} {unit:5s} ({note})")
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, unit, _ in END_TO_END}
    return {"correct": not errors and failed == 0, "attempted": n,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    if not checkout_ok(ROOT):
        print(f"error: {ROOT} holds no weightvar sources (src/weightvar, "
              f"docs/schemas); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("WEIGHTVAR_CACHE", None)
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(res, bool(args.trace))))
    return 0


def run_all(names: list[str], args) -> int:
    """Each workload in its own fresh process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
