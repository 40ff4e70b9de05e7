from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest

from weightvar import cli
from weightvar.rootsys import RootSystem, build_root_system
from weightvar.schubert import SchubertCalculus
from weightvar.serialize import canonical_json
from weightvar.weyl import WeylGroup, generate_weyl


@dataclass
class Session:
    rs: RootSystem
    group: WeylGroup
    calc: SchubertCalculus


_CACHE: dict[tuple[str, int], Session] = {}


def get_session(type_label: str, rank: int) -> Session:
    key = (type_label, rank)
    if key not in _CACHE:
        rs = build_root_system(type_label, rank)
        g = generate_weyl(rs)
        _CACHE[key] = Session(rs=rs, group=g, calc=SchubertCalculus(g))
    return _CACHE[key]


@pytest.fixture(scope="session")
def session():
    """Factory fixture: session('A', 2) -> shared (rs, group, calc)."""
    return get_session


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """Factory fixture: cli_run(argv) -> (stdout, stderr, exit code, the
    objects handed to the JSON emitter), each argv run once per session in
    one cache directory, so the golden digests and the emitter's check
    share one run of each query."""
    cache_dir = tmp_path_factory.mktemp("golden-cache")
    runs = {}

    def run(argv: str):
        if argv not in runs:
            seen = []

            def record(obj):
                seen.append(obj)
                return canonical_json(obj)

            out, err = io.StringIO(), io.StringIO()
            with pytest.MonkeyPatch.context() as mp, \
                    redirect_stdout(out), redirect_stderr(err):
                mp.setattr(cli, "canonical_json", record)
                code = cli.main(argv.split() + ["--cache-dir", str(cache_dir)])
            runs[argv] = (out.getvalue(), err.getvalue(), code, seen)
        return runs[argv]

    return run
