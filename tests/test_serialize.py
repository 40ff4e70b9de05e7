"""The JSON emitter against its reference, `json.dumps(obj, sort_keys=True,
indent=k)`: every report and stored table must come out byte for byte the
same."""

import json
import random
from fractions import Fraction as Q

import pytest
from test_golden import GOLDEN

from weightvar import cli
from weightvar.cache import cache_path
from weightvar.serialize import json_text


def _reference(obj, indent: int) -> str:
    return json.dumps(obj, sort_keys=True, indent=indent)


def _assert_same(got: str, expect: str) -> None:
    """Equality that reports the first differing offset: the tables run to
    megabytes, too long for a full diff."""
    if got != expect:
        i = next((i for i, (a, b) in enumerate(zip(got, expect)) if a != b),
                 min(len(got), len(expect)))
        pytest.fail(f"differs at offset {i}: {got[i - 30:i + 30]!r} "
                    f"!= {expect[i - 30:i + 30]!r}")


def test_every_golden_query_object(cli_run):
    # the golden queries' runs are shared with `test_golden_output`, so each
    # is computed once per session
    queries = [argv for _, argv, _, _, _ in GOLDEN]
    queries += ["roots --type B --rank 3", "weyl --type A --rank 4"]
    seen = [obj for argv in queries for obj in cli_run(argv)[3]]
    # every query prints one object, on stdout or (a refusal) stderr, except
    # the csv one
    assert len(seen) == len(queries) - 1
    for obj in seen:
        _assert_same(json_text(obj, 2), _reference(obj, 2))


@pytest.mark.parametrize("type_label,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
    ("G", 2)])
def test_restrict_object_and_stored_table(tmp_path, type_label, rank):
    cfg = cli.parse_config(["restrict", "--type", type_label, "--rank",
                            str(rank), "--cache-dir", str(tmp_path)])
    out = cli._cmd_restrict(cfg)  # a cold build: stores the table
    _assert_same(json_text(out, 2), _reference(out, 2))
    stored = cache_path(tmp_path, type_label, rank).read_text()
    _assert_same(stored, _reference(json.loads(stored), 1) + "\n")


SCALARS = [None, True, False, 0, 1, -1, 2**63, -(2**64) - 1, 10**40, "",
           "plain", "é ü ß", "  ", "\U0001f600", 'say "hi"',
           "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f", "/</script>"]


@pytest.mark.parametrize("obj", [
    {"error": "MuNotRegularValue", "message": 'μ = "0" lies on a wall\\\n',
     "diagnostic": "segment [λ, s_θ λ]\t\x01"},
    {"error": "ConfigError", "message": "'–1/0' is not an exact rational"},
    {}, [], {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[]]], {"": {"": []}},
    [1, True, 0], [False, 1], [None, 2], [2**70, -3, 0], [1, [2, [3, []]]],
    {"b": 1, "a": 2, "B": 3, "é": 4, "10": 5, "9": 6},
] + SCALARS, ids=repr)
def test_edge_values(obj):
    for indent in (0, 1, 2, 4):
        assert json_text(obj, indent) == _reference(obj, indent)


def _fuzz_str(rng: random.Random) -> str:
    return "".join(rng.choice('ab"\\\n\x02éλ\U0001f600 ')
                   for _ in range(rng.randrange(6)))


def _fuzz_value(rng: random.Random, depth: int):
    kind = rng.randrange(6 if depth < 4 else 3)
    if kind == 0:
        return rng.choice(SCALARS)
    if kind == 1:
        return rng.randint(-2**70, 2**70)
    if kind == 2:
        return _fuzz_str(rng)
    if kind == 3:  # an int vector, the emitter's one fast path
        return [rng.randint(-9, 9) for _ in range(rng.randrange(5))]
    if kind == 4:
        return [_fuzz_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {_fuzz_str(rng): _fuzz_value(rng, depth + 1)
            for _ in range(rng.randrange(5))}


def test_seeded_fuzz():
    rng = random.Random(20021)
    for _ in range(2000):
        obj = _fuzz_value(rng, 0)
        indent = rng.choice((1, 2))
        assert json_text(obj, indent) == _reference(obj, indent)


@pytest.mark.parametrize("obj", [
    Q(1, 2), 0.5, [1, Q(1)], {"a": [1.0]}, {1: "a"}, (1, 2), {"a": {1, 2}}],
    ids=repr)
def test_other_types_raise(obj):
    with pytest.raises(TypeError):
        json_text(obj, 2)
