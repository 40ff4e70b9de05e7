import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from weightvar import cache, cli
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


def _count_eliminations(monkeypatch) -> list:
    """Record (generator count, dims) of every `ideal_graded_dims` call."""
    calls = []
    real = cli.kirwan.ideal_graded_dims

    def counted(g, rs, calc, generators, dmax):
        calls.append((len(generators), real(g, rs, calc, generators, dmax)))
        return calls[-1][1]
    monkeypatch.setattr(cli.kirwan, "ideal_graded_dims", counted)
    return calls


def test_one_elimination_when_the_routes_agree(capsys, tmp_path, monkeypatch):
    calls = _count_eliminations(monkeypatch)
    level = ["--type", "A", "--rank", "2", "--lambda", "2,1",
             "--mu=85/202,-49/202", "--cache-dir", str(tmp_path)]
    code, out, _ = run_cli(capsys, ["oracle-compare", *level])
    data = json.loads(out)
    assert code == 0 and data["same_classes"] and data["dims_equal"]
    assert calls == [(data["theorem_count"], data["ideal_dims_theorem"])]
    calls.clear()
    code, out, _ = run_cli(capsys, ["check", *level])
    assert code == 0 and json.loads(out)["all_passed"]
    assert len(calls) == 1


def test_differing_routes_run_both_eliminations(capsys, tmp_path,
                                                monkeypatch):
    # the A1 kernel at mu = 0 has two generators, and one alone spans less
    calls = _count_eliminations(monkeypatch)
    real = cli.kirwan.tw_oracle_generators
    monkeypatch.setattr(cli.kirwan, "tw_oracle_generators",
                        lambda *args: real(*args)[1:])
    level = ["--type", "A", "--rank", "1", "--lambda", "1", "--mu", "0",
             "--cache-dir", str(tmp_path)]
    code, out, _ = run_cli(capsys, ["oracle-compare", *level])
    data = json.loads(out)
    assert code == 0
    assert (data["theorem_count"], data["oracle_count"]) == (2, 1)
    assert data["same_classes"] is False
    assert calls == [(2, [0, 2]), (1, [0, 1])]
    assert (data["ideal_dims_theorem"], data["ideal_dims_oracle"],
            data["dims_equal"]) == ([0, 2], [0, 1], False)
    calls.clear()
    code, out, _ = run_cli(capsys, ["check", *level])
    assert code == 4
    assert calls == [(2, [0, 2]), (1, [0, 1])]
    assert json.loads(out)["checks"][-1] == {
        "name": "oracle_ideal_agreement", "status": "fail",
        "detail": "theorem [0, 2] oracle [0, 1]"}


def test_roots_reads_only_the_root_system(capsys, tmp_path):
    # W(E8) has 696,729,600 elements; the report needs none of them
    code, out, err = run_cli(capsys, ["roots", "--type", "E", "--rank", "8",
                                      "--max-rank", "8",
                                      "--cache-dir", str(tmp_path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["positive_count"] == 120


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


def test_check_refuses_a_level_before_any_property(capsys, tmp_path,
                                                  monkeypatch):
    def no_property(*args):
        raise AssertionError("a property ran at a refused level")

    monkeypatch.setattr(cli.SchubertCalculus, "billey_restriction",
                        no_property)
    code, out, err = run_cli(capsys, [
        "check", "--type", "A", "--rank", "3", "--lambda", "1,1,1",
        "--mu=0,0,0", "--cache-dir", str(tmp_path)])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "MuNotRegularValue"


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
        # an empty field in a list is refused, not dropped
        ["kernel", "--type", "A", "--rank", "2", "--lambda", "1,,1",
         "--mu=1/5,1/10"],
        ["kernel", "--type", "A", "--rank", "2", "--lambda", "1,1,",
         "--mu=1/5,1/10"],
        ["kernel", "--type", "A", "--rank", "2", "--lambda", "1,1",
         "--mu=1/5,1/10,"],
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, argv + ["--cache-dir", str(tmp_path)])
        assert code == 3, argv
        jsonschema.validate(json.loads(err), schema("error"))
    assert json.loads(err)["message"] == "empty field in the list '1/5,1/10,'"


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


def test_overlong_literals_are_config_errors(capsys, tmp_path):
    # int() refuses strings longer than the interpreter's digit limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no integer digit limit")
    digits = "1" + "0" * limit
    for lam, mu in (("1,1", f"{digits},1"), ("1,1", f"0.{digits},1"),
                    ("1,1", f"1/{digits},1"), (f"{digits},1", "0,0"),
                    (f"1,0.{digits}", "0,0")):
        code, out, err = run_cli(capsys, [
            "kernel", "--type", "A", "--rank", "2", "--lambda", lam,
            "--mu", mu, "--cache-dir", str(tmp_path)])
        assert (code, out) == (3, ""), (lam[:8], mu[:8])
        data = json.loads(err)
        jsonschema.validate(data, schema("error"))
        assert data["error"] == "ConfigError"
        assert "too many digits" in data["message"]


def test_rank_guard_refuses_before_building(capsys, tmp_path):
    # the Cartan matrix of rank 10**6 would have 10**12 entries
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["roots", "--type", "A", "--rank",
                                      str(10**6), "--cache-dir", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "RankLimitExceeded",
        "message": "rank 1000000 exceeds the configured maximum 5"}
    # an impossible (type, rank) is still refused as such first
    code, _, err = run_cli(capsys, ["roots", "--type", "E", "--rank", "9",
                                    "--cache-dir", str(tmp_path)])
    assert code == 3
    assert json.loads(err) == {"error": "InvalidRank",
                               "message": "E_l requires l in {6, 7, 8}"}


@pytest.mark.parametrize("argv,error,message", [
    ("kernel --type Q --rank 2 --lambda 1 --mu=0",
     "InvalidRank", "unknown type label 'Q'"),
    ("kernel --type G --rank 3 --lambda 1,1 --mu=0,0",
     "InvalidRank", "G_l requires l = 2"),
    ("betti --type B --rank 1 --lambda 1 --mu=0",
     "InvalidRank", "B_l requires l >= 2"),
    ("oracle-compare --type A --rank 6 --lambda 1,1 --mu=0,0",
     "RankLimitExceeded", "rank 6 exceeds the configured maximum 5"),
    ("check --type A --rank 4 --max-rank 3 --lambda 1 --mu=0",
     "RankLimitExceeded", "rank 4 exceeds the configured maximum 3"),
])
def test_level_commands_refuse_type_and_rank_before_the_lists(
        capsys, tmp_path, argv, error, message):
    # the rank sets how many rationals --lambda and --mu must hold, so a bad
    # (type, rank) or a rank past the guard is named as such, not as a
    # list of the wrong length
    code, out, err = run_cli(capsys, argv.split()
                             + ["--cache-dir", str(tmp_path)])
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": error, "message": message}


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


def test_format_refused_before_any_session(capsys, tmp_path, monkeypatch):
    def no_session(*args, **kwargs):
        raise AssertionError("a session was built")
    monkeypatch.setattr(cli, "_session", no_session)
    cases = [
        ("roots", "csv", ["--type", "A", "--rank", "2"]),
        ("weyl", "latex", ["--type", "A", "--rank", "2"]),
        ("oracle-compare", "csv", ["--type", "A", "--rank", "3",
                                   "--lambda", "2,1,3",
                                   "--mu=1551/1559,405/1559,-1728/1559"]),
        ("check", "latex", ["--type", "A", "--rank", "2"]),
        # an irregular level: the format is refused first (exit 3, not 2)
        ("oracle-compare", "latex", ["--type", "A", "--rank", "2",
                                     "--lambda", "1,1", "--mu", "3,3"]),
        ("check", "csv", ["--type", "A", "--rank", "2", "--lambda", "1,1",
                          "--mu", "3,3"]),
    ]
    for cmd, fmt, args in cases:
        code, out, err = run_cli(capsys, [cmd, *args, "--format", fmt,
                                          "--cache-dir", str(tmp_path)])
        assert (code, out) == (3, ""), cmd
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"format {fmt} is not available for {cmd!r}"}


def test_cache_roundtrip_and_corruption(tmp_path, session):
    ctx = session("A", 2)
    g, calc = ctx.group, ctx.calc
    columns = {v: calc.xi_column(v) for v in range(g.order)}
    path = cache_path(tmp_path, "A", 2)
    store_table(path, g, columns)
    loaded = load_table(path, g)
    assert loaded == columns
    good = json.loads(path.read_text())
    jsonschema.validate(good, schema("billey-cache"))

    def checksummed(edit):
        payload = json.loads(json.dumps(good))
        del payload["checksum"]
        edit(payload)
        payload["checksum"] = cache._checksum(payload)
        return payload

    def first_term(payload):
        return payload["columns"]["1"]["0"][0]

    # payloads that parse, some with a valid checksum, but cannot be used
    unusable = [
        [],
        checksummed(lambda p: p.pop("elements")),
        checksummed(lambda p: first_term(p).update(den="0")),
        checksummed(lambda p: first_term(p).update(exp=[0])),
        checksummed(lambda p: p["columns"]["1"].update(
            {"999": p["columns"]["1"]["0"]})),
    ]
    for payload in unusable:
        path.write_text(json.dumps(payload))
        with pytest.raises(CacheCorrupt):
            load_table(path, g)

    payload = json.loads(json.dumps(good))
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
    argv = ["restrict", "--type", "A", "--rank", "2",
            "--cache-dir", str(tmp_path)]
    code, cold, _ = run_cli(capsys, argv)
    assert code == 0
    path = cache_path(tmp_path, "A", 2)
    assert path.exists()
    for broken in ("{broken", "[]"):
        path.write_text(broken)
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert out == cold
        assert "cache-corrupt" in err
        # the cache was rewritten and now loads cleanly
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and out == cold and err == ""


def test_restrict_cache_dir_that_cannot_be_written(capsys, tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    code, out, err = run_cli(capsys, ["restrict", "--type", "A", "--rank", "2",
                                      "--cache-dir", str(not_a_dir)])
    assert (code, out) == (3, "")
    data = json.loads(err)
    jsonschema.validate(data, schema("error"))
    assert data["error"] == "ConfigError"
    assert str(not_a_dir) in data["message"]
    assert not_a_dir.read_text() == ""
    # a readable cached table in a read-only place still loads
    ro = tmp_path / "ro"
    argv = ["restrict", "--type", "A", "--rank", "2", "--cache-dir", str(ro)]
    code, cold, _ = run_cli(capsys, argv)
    assert code == 0
    ro.chmod(0o555)
    try:
        assert run_cli(capsys, argv) == (0, cold, "")
    finally:
        ro.chmod(0o755)


def test_level_commands_never_touch_the_cache(capsys, tmp_path, monkeypatch):
    level = ["--type", "A", "--rank", "2", "--lambda", "2,1",
             "--mu=85/202,-49/202"]
    jobs = [["kernel", *level], ["betti", *level], ["oracle-compare", *level],
            ["check", *level], ["check", "--type", "A", "--rank", "2"],
            ["kernel", "--type", "A", "--rank", "2", "--lambda", "1,1",
             "--mu", "3,3"]]
    flag_dir, env_dir = tmp_path / "flag", tmp_path / "env"
    flag_dir.mkdir()
    env_dir.mkdir()
    monkeypatch.setenv("WEIGHTVAR_CACHE", str(env_dir))
    clean = []
    for argv in jobs:
        clean.append(run_cli(capsys, argv + ["--cache-dir", str(flag_dir)]))
        assert run_cli(capsys, argv) == clean[-1]
    assert list(flag_dir.iterdir()) == list(env_dir.iterdir()) == []

    corrupt = [cache_path(d, "A", 2) for d in (flag_dir, env_dir)]
    for path in corrupt:
        path.write_text("{broken")
    for argv, expect in zip(jobs, clean):
        assert run_cli(capsys, argv + ["--cache-dir", str(flag_dir)]) == expect
        assert run_cli(capsys, argv) == expect
    for path in corrupt:
        assert path.read_text() == "{broken"
    assert [p.name for p in flag_dir.iterdir()] == [corrupt[0].name]


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
    # --threads 1 vs 2 and repeated runs, compared as raw bytes
    outs = []
    for threads, cache in [("1", "c1"), ("2", "c2"), ("2", "c2")]:
        proc = subprocess.run(
            [sys.executable, "-m", "weightvar", "kernel", "--type", "A",
             "--rank", "2", "--lambda", "1,1", "--mu=-4/7,-4/11",
             "--threads", threads, "--cache-dir", str(tmp_path / cache)],
            capture_output=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]
