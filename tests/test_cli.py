import json
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from weightvar import cli
from weightvar.cache import cache_path, load_table, store_table
from weightvar.errors import CacheCorrupt, ConfigError, NonExactDivision
from weightvar.serialize import parse_rational

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
        return json.load(fh)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_betti_a1_exact_output(capsys, tmp_path):
    code, out, err = run_cli(capsys, [
        "betti", "--type", "A", "--rank", "1", "--lambda", "1", "--mu", "0",
        "--cache-dir", str(tmp_path)])
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == [1]
    assert data["poincare"] == "1"
    jsonschema.validate(data, schema("betti"))


def test_kernel_a1_two_generators(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "kernel", "--type", "A", "--rank", "1", "--lambda", "1", "--mu", "0",
        "--cache-dir", str(tmp_path)])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert len(data["generators"]) == 2
    jsonschema.validate(data, schema("kernel"))


def test_roots_weyl_restrict_schemas(capsys, tmp_path):
    for cmd, name in [("roots", "roots"), ("weyl", "weyl"),
                      ("restrict", "restrict")]:
        code, out, _ = run_cli(capsys, [
            cmd, "--type", "B", "--rank", "2", "--cache-dir", str(tmp_path)])
        assert code == 0
        jsonschema.validate(json.loads(out), schema(name))


def test_oracle_compare_schema_and_verdict(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "oracle-compare", "--type", "A", "--rank", "2",
        "--lambda", "1,1", "--mu=-4/7,-4/11", "--cache-dir", str(tmp_path)])
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schema("oracle-compare"))
    assert data["dims_equal"] is True
    assert data["same_classes"] is True
    assert data["ideal_dims_theorem"] == data["ideal_dims_oracle"]


def test_check_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "check", "--type", "A", "--rank", "2", "--lambda", "1,1",
        "--mu=-4/7,-4/11", "--seed", "3", "--cache-dir", str(tmp_path)])
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, schema("check"))
    assert data["all_passed"] is True
    names = {c["name"] for c in data["checks"]}
    assert "billey_diagonal_formula" in names
    assert "oracle_ideal_agreement" in names


def test_exit_code_not_regular(capsys, tmp_path):
    code, out, err = run_cli(capsys, [
        "betti", "--type", "A", "--rank", "1", "--lambda", "1", "--mu", "1",
        "--cache-dir", str(tmp_path)])
    assert code == 2
    data = json.loads(err)
    assert data["error"] == "MuNotRegularValue"
    jsonschema.validate(data, schema("error"))
    # a wall point inside the A2 polytope is refused with a segment diagnostic
    code, _, err = run_cli(capsys, [
        "betti", "--type", "A", "--rank", "2", "--lambda", "1,1",
        "--mu", "0,0", "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "segment" in json.loads(err)["diagnostic"]


def test_exit_code_bad_config(capsys, tmp_path):
    cases = [
        ["betti", "--type", "A", "--rank", "1", "--lambda", "1", "--mu", "x"],
        ["betti", "--type", "Q", "--rank", "1", "--lambda", "1", "--mu", "0"],
        ["roots", "--type", "A", "--rank", "9"],
        ["betti", "--type", "A", "--rank", "1", "--lambda", "1", "--mu", "0",
         "--dmax", "5"],
        ["betti", "--type", "A", "--rank", "1", "--lambda", "1", "--mu", "0",
         "--dmax", "-1"],
        ["betti", "--type", "A", "--rank", "1", "--lambda", "1,1", "--mu", "0"],
        ["roots", "--type", "A"],
        ["roots", "--type", "A", "--rank", "2", "--threads", "0"],
        # check takes both of --lambda and --mu, or neither
        ["check", "--type", "A", "--rank", "2", "--lambda", "1,1"],
        ["check", "--type", "A", "--rank", "2", "--mu", "0,0"],
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, argv + ["--cache-dir", str(tmp_path)])
        assert code == 3, argv
        jsonschema.validate(json.loads(err), schema("error"))


def test_exit_code_internal(capsys, tmp_path, monkeypatch):
    def boom(cfg):
        raise NonExactDivision("forced")
    monkeypatch.setitem(cli._COMMANDS, "betti", boom)
    code, _, err = run_cli(capsys, [
        "betti", "--type", "A", "--rank", "1", "--lambda", "1", "--mu", "0",
        "--cache-dir", str(tmp_path)])
    assert code == 4
    assert json.loads(err)["error"] == "NonExactDivision"


def test_rational_parsing():
    assert parse_rational("0.25") == parse_rational("1/4")
    assert parse_rational("-3") == -3
    assert parse_rational("  7/9 ") == parse_rational("7/9")
    for bad in ["1e-3", "nan", "inf", "1/0", "1.2.3", "0x2", "",
                "1 / 2", "++1"]:
        with pytest.raises(ConfigError):
            parse_rational(bad)


def test_exact_decimals_accepted_in_cli(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "betti", "--type", "A", "--rank", "1", "--lambda", "1",
        "--mu", "0.25", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["mu"] == ["1/4"]


def test_csv_and_latex_renderers(capsys, tmp_path):
    code, out, _ = run_cli(capsys, [
        "betti", "--type", "A", "--rank", "2", "--lambda", "1,1",
        "--mu=-4/7,-4/11", "--format", "csv", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert out.splitlines()[0] == "half_degree,betti"
    assert out.splitlines()[1] == "0,1"
    code, out, _ = run_cli(capsys, [
        "kernel", "--type", "A", "--rank", "1", "--lambda", "1", "--mu", "0",
        "--format", "latex", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert out.startswith(r"\begin{tabular}")
    code, _, err = run_cli(capsys, [
        "roots", "--type", "A", "--rank", "1", "--format", "csv",
        "--cache-dir", str(tmp_path)])
    assert code == 3


def test_cache_roundtrip_and_corruption(tmp_path, session):
    ctx = session("A", 2)
    g, calc = ctx.group, ctx.calc
    columns = {v: calc.xi_column(v) for v in range(g.order)}
    path = cache_path(tmp_path, "A", 2)
    store_table(path, g, columns)
    loaded = load_table(path, g)
    assert loaded == columns
    jsonschema.validate(json.loads(path.read_text()), schema("billey-cache"))

    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheCorrupt):
        load_table(path, g)

    payload["version"] = 1
    payload["checksum"] = "0" * 64
    path.write_text(json.dumps(payload))
    with pytest.raises(CacheCorrupt):
        load_table(path, g)

    path.write_text("not json")
    with pytest.raises(CacheCorrupt):
        load_table(path, g)


def test_cli_recovers_from_corrupt_cache(capsys, tmp_path):
    argv = ["betti", "--type", "A", "--rank", "1", "--lambda", "1",
            "--mu", "0", "--cache-dir", str(tmp_path)]
    code, cold, _ = run_cli(capsys, argv)
    assert code == 0
    path = cache_path(tmp_path, "A", 1)
    assert path.exists()
    path.write_text("{broken")
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert out == cold
    assert "cache-corrupt" in err
    # the cache was rewritten and now loads cleanly
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and out == cold and err == ""


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WEIGHTVAR_CACHE", str(tmp_path / "envcache"))
    code, _, _ = run_cli(capsys, [
        "restrict", "--type", "A", "--rank", "1"])
    assert code == 0
    assert (tmp_path / "envcache" / "billey-A1-v1.json").exists()


def _assert_no_floats(obj):
    if isinstance(obj, float):
        raise AssertionError(f"float {obj!r} leaked into output")
    if isinstance(obj, dict):
        for v in obj.values():
            _assert_no_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            _assert_no_floats(v)


def test_no_floats_in_any_json_output(capsys, tmp_path):
    jobs = [
        ["roots", "--type", "G", "--rank", "2"],
        ["weyl", "--type", "A", "--rank", "2"],
        ["restrict", "--type", "A", "--rank", "2"],
        ["kernel", "--type", "A", "--rank", "2", "--lambda", "1,1",
         "--mu", "1/5,0.1"],
        ["betti", "--type", "B", "--rank", "2", "--lambda", "1,1",
         "--mu", "1/5,1/7"],
    ]
    for argv in jobs:
        code, out, _ = run_cli(capsys, argv + ["--cache-dir", str(tmp_path)])
        assert code == 0
        _assert_no_floats(json.loads(out))


def test_subprocess_entrypoint_determinism(tmp_path):
    # cold vs warm cache and --threads 1 vs 2, compared as raw bytes
    outs = []
    for threads, cache in [("1", "c1"), ("2", "c2"), ("2", "c2")]:
        proc = subprocess.run(
            [sys.executable, "-m", "weightvar", "kernel", "--type", "A",
             "--rank", "2", "--lambda", "1,1", "--mu=-4/7,-4/11",
             "--threads", threads, "--cache-dir", str(tmp_path / cache)],
            capture_output=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]
