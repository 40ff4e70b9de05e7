"""Command-line front end.

Subcommands: roots, weyl, restrict, kernel, betti, oracle-compare, check.
Orbit coefficients are given as positive rationals (the antidominant sign
is applied internally); the reduction level is given in fundamental-weight
coordinates. All rationals in and out are exact "p/q" strings.

Exit codes: 0 success, 2 refused reduction level, 3 invalid configuration,
4 internal consistency failure (always a bug).
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path

from . import kirwan
from .cache import cache_path, default_cache_dir, load_table, store_table
from .errors import (CacheCorrupt, ConfigError, InternalConsistencyError,
                     MuNotRegularValue, WeightvarError)
from .poly import Polynomial, monomial_basis
from .rootsys import DEFAULT_MAX_RANK, RootSystem, build_root_system
from .schubert import SchubertCalculus
from .serialize import (canonical_json, parse_rational_list, poly_free_vector,
                        rational_str)
from .weyl import WeylGroup, generate_weyl
from .workers import compute_columns

EXIT_OK = 0
EXIT_NOT_REGULAR = 2
EXIT_BAD_CONFIG = 3
EXIT_INTERNAL = 4

_TABLE_FORMATS = ("json", "csv", "latex")


@dataclass
class JobConfig:
    command: str
    type_label: str = "A"
    rank: int = 1
    lambda_coeffs: tuple[Q, ...] = ()
    mu_coords: tuple[Q, ...] = ()
    dmax: int | None = None
    format: str = "json"
    cache_dir: Path | None = None  # read by restrict only
    seed: int = 0
    max_rank: int = DEFAULT_MAX_RANK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="weightvar", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    # options every subcommand takes, declared once; a subparser copies a
    # parent's actions in order, ahead of its own
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--type", required=True, dest="type_label",
                        help="root system type, one of A B C D E F G")
    shared.add_argument("--rank", required=True, type=int)
    shared.add_argument("--max-rank", type=int, default=DEFAULT_MAX_RANK,
                        help="enumeration guard (default 5)")
    shared.add_argument("--format", choices=_TABLE_FORMATS, default="json")
    shared.add_argument("--cache-dir", type=Path, default=None,
                        help=f"cache directory (env WEIGHTVAR_CACHE overrides "
                             f"the default)")
    shared.add_argument("--threads", type=int, default=1)  # no effect
    level = argparse.ArgumentParser(add_help=False, parents=[shared])
    level.add_argument("--lambda", required=True, dest="lam",
                       help="positive orbit coefficients c1,...,cl")
    level.add_argument("--mu", required=True,
                       help="level in fundamental-weight coordinates")

    sub.add_parser("roots", help="root-system report", parents=[shared])
    sub.add_parser("weyl", help="Weyl group / Bruhat report", parents=[shared])
    sub.add_parser("restrict", help="full restriction table", parents=[shared])
    sub.add_parser("kernel", help="kernel-generator list", parents=[level])
    sp = sub.add_parser("betti", help="graded Betti numbers of the reduction",
                        parents=[level])
    sp.add_argument("--dmax", type=int, default=None)
    sub.add_parser("oracle-compare",
                   help="theorem vs feasibility-oracle generator sets",
                   parents=[level])
    sp = sub.add_parser("check", help="run the property suite",
                        parents=[shared])
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--seed", type=int, default=0)
    return p


def parse_config(argv: list[str]) -> JobConfig:
    ns = _build_parser().parse_args(argv)
    cfg = JobConfig(command=ns.command)
    cfg.type_label = ns.type_label.upper()
    cfg.rank = ns.rank
    cfg.max_rank = ns.max_rank
    cfg.format = ns.format
    if ns.threads < 1:
        raise ConfigError("--threads must be at least 1")
    cfg.cache_dir = ns.cache_dir
    lam = getattr(ns, "lam", None)
    mu = getattr(ns, "mu", None)
    if (lam is None) != (mu is None):
        raise ConfigError("check needs both --lambda and --mu, or neither")
    if lam is not None:
        cfg.lambda_coeffs = parse_rational_list(lam, expect=cfg.rank)
    if mu is not None:
        cfg.mu_coords = parse_rational_list(mu, expect=cfg.rank)
    if cfg.format != "json" and cfg.command not in ("betti", "kernel",
                                                    "restrict"):
        raise ConfigError(
            f"format {cfg.format} is not available for {cfg.command!r}")
    cfg.dmax = getattr(ns, "dmax", None)
    cfg.seed = getattr(ns, "seed", 0)
    return cfg


# -- session assembly ----------------------------------------------------------


def _session(cfg: JobConfig):
    """Root system, Weyl group and a calculator that builds each table
    column by need: faster than loading the cached table at every rank, so
    only `restrict` goes on to the cache."""
    rs = build_root_system(cfg.type_label, cfg.rank, max_rank=cfg.max_rank)
    g = generate_weyl(rs)
    return rs, g, SchubertCalculus(g)


def _ensure_table_cached(cfg: JobConfig, g: WeylGroup, calc: SchubertCalculus
                         ) -> dict[int, dict[int, Polynomial]]:
    """The cached table, or a new one built and stored; a corrupt file is
    reported on stderr and rebuilt, and a table that cannot be stored is a
    configuration error."""
    path = cache_path(cfg.cache_dir or default_cache_dir(), cfg.type_label,
                      cfg.rank)
    if path.exists():
        try:
            return load_table(path, g)
        except CacheCorrupt as exc:
            print(canonical_json({"warning": "cache-corrupt",
                                  "message": str(exc)}),
                  end="", file=sys.stderr)
    table = compute_columns(calc)
    try:
        store_table(path, g, table)
    except OSError as exc:
        raise ConfigError(f"cannot store the restriction table in cache "
                          f"directory {path.parent}: {exc.strerror or exc}"
                          ) from exc
    return table


def _word_json(g: WeylGroup, w: int) -> dict:
    return {"id": w, "word": [i + 1 for i in g.elements[w].word]}


# -- commands --------------------------------------------------------------


def _cmd_roots(cfg: JobConfig) -> dict:
    rs, _, _ = _session(cfg)
    out = rs.to_json()
    out["positive_count"] = len(rs.positive_roots)
    return out


def _cmd_weyl(cfg: JobConfig) -> dict:
    _, g, _ = _session(cfg)
    counts: dict[int, int] = {}
    for e in g.elements:
        counts[e.length] = counts.get(e.length, 0) + 1
    return {
        "type": cfg.type_label,
        "rank": cfg.rank,
        "order": g.order,
        "longest_word": [i + 1 for i in g.elements[g.w0].word],
        "length_counts": [counts.get(k, 0)
                          for k in range(g.elements[g.w0].length + 1)],
        "elements": [{"id": e.id, "word": [i + 1 for i in e.word],
                      "length": e.length,
                      "bruhat_lower": g.bruhat_lower_ids(e.id)}
                     for e in g.elements],
    }


def _cmd_restrict(cfg: JobConfig) -> dict:
    """The nonzero entries in (w, v) order; csv and latex print each value
    as its polynomial text, json as its terms."""
    _, g, calc = _session(cfg)
    table = _ensure_table_cached(cfg, g, calc)
    value = Polynomial.to_json if cfg.format == "json" else Polynomial.as_string
    pairs = sorted((w, v) for v, col in table.items()
                   for w, p in col.items() if not p.is_zero())
    entries = [{"w": w, "v": v, "value": value(table[v][w])}
               for w, v in pairs]
    return {
        "type": cfg.type_label,
        "rank": cfg.rank,
        "elements": [{"id": e.id, "word": [i + 1 for i in e.word],
                      "length": e.length} for e in g.elements],
        "entries": entries,
    }


def _orbit_level(cfg: JobConfig, rs: RootSystem, g: WeylGroup):
    orbit = kirwan.orbit_parameter(g, rs, cfg.lambda_coeffs)
    mu = kirwan.mu_from_weight_coords(rs, cfg.mu_coords)
    return orbit, mu


def _generators_json(g: WeylGroup, specs) -> list[dict]:
    top = g.elements[g.w0].length
    out = []
    for s in specs:
        u = g.multiply(g.inverse(s.tau), s.v)
        out.append({
            "tau": _word_json(g, s.tau),
            "v": _word_json(g, s.v),
            "witnesses": [j + 1 for j in s.witnesses],
            "half_degree": top - g.elements[u].length,
        })
    return out


def _cmd_kernel(cfg: JobConfig) -> dict:
    rs, g, calc = _session(cfg)
    orbit, mu = _orbit_level(cfg, rs, g)
    specs = kirwan.kernel_generators(g, rs, calc, orbit, mu)
    return {
        "type": cfg.type_label,
        "rank": cfg.rank,
        "lambda": poly_free_vector(cfg.lambda_coeffs),
        "mu": poly_free_vector(cfg.mu_coords),
        "count": len(specs),
        "generators": _generators_json(g, specs),
    }


def _cmd_betti(cfg: JobConfig) -> dict:
    rs, g, calc = _session(cfg)
    orbit, mu = _orbit_level(cfg, rs, g)
    dims = kirwan.quotient_betti(g, rs, calc, orbit, mu, dmax=cfg.dmax)
    return {
        "type": cfg.type_label,
        "rank": cfg.rank,
        "lambda": poly_free_vector(cfg.lambda_coeffs),
        "mu": poly_free_vector(cfg.mu_coords),
        "betti": list(dims.betti),
        "poincare": dims.poincare,
    }


def _cmd_oracle_compare(cfg: JobConfig) -> dict:
    rs, g, calc = _session(cfg)
    orbit, mu = _orbit_level(cfg, rs, g)
    level = kirwan.regular_level(g, rs, orbit, mu)
    theorem = kirwan.kernel_generators(g, rs, calc, orbit, level)
    oracle = kirwan.tw_oracle_generators(g, rs, calc, orbit, level)
    top = g.elements[g.w0].length
    classes_t = kirwan.generator_classes(calc, theorem)
    classes_o = kirwan.generator_classes(calc, oracle)
    dims_t = kirwan.ideal_graded_dims(g, rs, calc, classes_t, top)
    dims_o = kirwan.ideal_graded_dims(g, rs, calc, classes_o, top)
    same_classes = ({c.key() for c in classes_t}
                    == {c.key() for c in classes_o})
    return {
        "type": cfg.type_label,
        "rank": cfg.rank,
        "lambda": poly_free_vector(cfg.lambda_coeffs),
        "mu": poly_free_vector(cfg.mu_coords),
        "max_half_degree": top,
        "theorem_count": len(theorem),
        "oracle_count": len(oracle),
        "same_classes": same_classes,
        "ideal_dims_theorem": dims_t,
        "ideal_dims_oracle": dims_o,
        "dims_equal": dims_t == dims_o,
        "theorem_generators": _generators_json(g, theorem),
        "oracle_generators": _generators_json(g, oracle),
    }


# -- property suite -------------------------------------------------------------


def _random_homogeneous_class(calc: SchubertCalculus, rng: random.Random,
                              half_degree: int):
    g = calc.group
    rs = calc.rs
    top = g.elements[g.w0].length
    total = None
    for w in range(g.order):
        rem = half_degree - (top - g.elements[w].length)
        if rem < 0:
            continue
        coeff = Polynomial(rs.rank, {
            tuple(m): rng.randint(-3, 3)
            for m in monomial_basis(rs.rank, rem)})
        if coeff.is_zero():
            continue
        piece = calc.schubert_class(w).scale_poly(coeff)
        total = piece if total is None else total + piece
    if total is None:
        total = calc.schubert_class(g.w0).scale_poly(
            Polynomial.monomial((half_degree,) + (0,) * (rs.rank - 1)))
    return total


def run_checks(cfg: JobConfig) -> dict:
    """Per-(type, rank) property suite, optionally with an orbit and level.
    A level is certified regular before any property runs, so a refused
    level costs no more than it does in `kernel`."""
    rs, g, calc = _session(cfg)
    if cfg.lambda_coeffs:
        orbit, mu = _orbit_level(cfg, rs, g)
        level = kirwan.regular_level(g, rs, orbit, mu)
    rng = random.Random(cfg.seed)
    results = []

    def record(name: str, passed: bool, detail: str = ""):
        results.append({"name": name, "status": "pass" if passed else "fail",
                        **({"detail": detail} if detail else {})})

    top = g.elements[g.w0].length
    ok = True
    for v in range(g.order):
        col = calc.xi_column(v)
        for w in range(g.order):
            nz = w in col and not col[w].is_zero()
            if nz != g.bruhat_leq(w, v):
                ok = False
    record("billey_support_triangularity", ok)

    ok = True
    for w in range(g.order):
        prod = Polynomial.one(rs.rank)
        for root in g.inversions(w):
            prod = prod * Polynomial.linear_form(root)
        if calc.billey_restriction(w, w) != prod:
            ok = False
    record("billey_diagonal_formula", ok)

    ok = True
    simple_ids = [next(e.id for e in g.elements if e.word == (i,))
                  for i in range(rs.rank)]
    for i, si in enumerate(simple_ids):
        lam_i = rs.fundamental_weights[i]
        for v in range(g.order):
            expect = Polynomial.linear_form(lam_i) - Polynomial.linear_form(
                g.act(v, lam_i))
            if calc.billey_restriction(si, v) != expect:
                ok = False
    record("billey_degree2_closed_form", ok)

    ok = all(c.denominator == 1 and c >= 0
             for v in range(g.order)
             for p in calc.xi_column(v).values()
             for c in p.terms.values())
    record("billey_nonnegative_integer_coefficients", ok)

    ok = True
    for _ in range(25):
        w1, w2 = rng.randrange(g.order), rng.randrange(g.order)
        c = calc.schubert_class(w1) * calc.schubert_class(w2)
        m = Polynomial.monomial(tuple(
            rng.randint(0, 1) for _ in range(rs.rank)))
        calc.integrate(c.scale_poly(m))  # raises if not polynomial
    record("localization_polynomial", ok)
    record("localization_point_class",
           calc.integrate(calc.schubert_class(0)) == Polynomial.one(rs.rank))

    ok = True
    for _ in range(10):
        d = rng.randint(0, top)
        c = _random_homogeneous_class(calc, rng, d)
        tau = rng.randrange(g.order)
        if calc.reassemble(calc.decompose(c, tau)) != c:
            ok = False
    record("decompose_roundtrip", ok)

    if cfg.lambda_coeffs:
        ok = True
        for tau in range(g.order):
            ti = g.inverse(tau)
            for lam_j in rs.fundamental_weights:
                xi = g.act(tau, lam_j)
                h = [rs.inner(xi, p) for p in orbit.images]
                for v in range(g.order):
                    for w in range(g.order):
                        if h[v] > h[w] and g.bruhat_leq(g.multiply(ti, v),
                                                        g.multiply(ti, w)):
                            ok = False
        record("height_monotonicity", ok)

        specs = kirwan.kernel_generators(g, rs, calc, orbit, level)
        classes = kirwan.generator_classes(calc, specs)
        ok = True
        for s, cl in zip(specs, classes):
            for j in s.witnesses:
                xi = g.act(s.tau, rs.fundamental_weights[j])
                lvl = rs.inner(xi, mu)
                if any(rs.inner(xi, orbit.images[w]) > lvl
                       for w in cl.support()):
                    ok = False
        record("generator_one_sidedness", ok)

        oracle = kirwan.tw_oracle_generators(g, rs, calc, orbit, level)
        dims_t = kirwan.ideal_graded_dims(g, rs, calc, classes, top)
        dims_o = kirwan.ideal_graded_dims(
            g, rs, calc, kirwan.generator_classes(calc, oracle), top)
        record("oracle_ideal_agreement", dims_t == dims_o,
               f"theorem {dims_t} oracle {dims_o}")

    return {
        "type": cfg.type_label,
        "rank": cfg.rank,
        "seed": cfg.seed,
        "checks": results,
        "all_passed": all(r["status"] == "pass" for r in results),
    }


# -- rendering -------------------------------------------------------------------


def _render_csv(cfg: JobConfig, out: dict) -> str:
    rows: list[list[str]]
    if cfg.command == "betti":
        rows = [["half_degree", "betti"]]
        rows += [[str(d), str(b)] for d, b in enumerate(out["betti"])]
    elif cfg.command == "kernel":
        rows = [["tau_id", "tau_word", "v_id", "v_word", "witnesses",
                 "half_degree"]]
        for gen in out["generators"]:
            rows.append([str(gen["tau"]["id"]),
                         " ".join(map(str, gen["tau"]["word"])) or "e",
                         str(gen["v"]["id"]),
                         " ".join(map(str, gen["v"]["word"])) or "e",
                         " ".join(map(str, gen["witnesses"])),
                         str(gen["half_degree"])])
    else:  # restrict
        rows = [["w", "v", "value"]]
        rows += [[str(e["w"]), str(e["v"]), e["value"]]
                 for e in out["entries"]]
    return "\n".join(",".join(f'"{c}"' if "," in c else c for c in row)
                     for row in rows) + "\n"


def _render_latex(cfg: JobConfig, out: dict) -> str:
    if cfg.command == "betti":
        lines = [r"\begin{tabular}{rr}", r"$2d$ & $b_{2d}$ \\ \hline"]
        lines += [rf"{2 * d} & {b} \\" for d, b in enumerate(out["betti"])]
        lines.append(r"\end{tabular}")
    elif cfg.command == "kernel":
        lines = [r"\begin{tabular}{llll}",
                 r"$\tau$ & $v$ & witnesses & degree \\ \hline"]
        for gen in out["generators"]:
            tau = "".join(f"s_{i}" for i in gen["tau"]["word"]) or "e"
            v = "".join(f"s_{i}" for i in gen["v"]["word"]) or "e"
            js = ",".join(map(str, gen["witnesses"]))
            lines.append(rf"${tau}$ & ${v}$ & ${js}$ & "
                         rf"${2 * gen['half_degree']}$ \\")
        lines.append(r"\end{tabular}")
    else:  # restrict
        lines = [r"\begin{tabular}{rrl}", r"$w$ & $v$ & value \\ \hline"]
        lines += [rf"{e['w']} & {e['v']} & ${e['value']}$ \\"
                  for e in out["entries"]]
        lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "roots": _cmd_roots,
    "weyl": _cmd_weyl,
    "restrict": _cmd_restrict,
    "kernel": _cmd_kernel,
    "betti": _cmd_betti,
    "oracle-compare": _cmd_oracle_compare,
    "check": run_checks,
}


def run(cfg: JobConfig) -> tuple[int, str]:
    """Execute one job; returns (exit code, rendered report)."""
    out = _COMMANDS[cfg.command](cfg)
    if cfg.format == "csv":
        text = _render_csv(cfg, out)
    elif cfg.format == "latex":
        text = _render_latex(cfg, out)
    else:
        text = canonical_json(out)
    code = EXIT_OK
    if cfg.command == "check" and not out["all_passed"]:
        code = EXIT_INTERNAL
    return code, text


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        code, text = run(cfg)
    except MuNotRegularValue as exc:
        _emit_error(exc, diagnostic=exc.diagnostic)
        return EXIT_NOT_REGULAR
    except ConfigError as exc:
        _emit_error(exc)
        return EXIT_BAD_CONFIG
    except InternalConsistencyError as exc:
        _emit_error(exc)
        return EXIT_INTERNAL
    except WeightvarError as exc:
        _emit_error(exc)
        return EXIT_BAD_CONFIG
    sys.stdout.write(text)
    return code


def _emit_error(exc: Exception, diagnostic: str | None = None) -> None:
    obj = {"error": type(exc).__name__, "message": str(exc)}
    if diagnostic is not None:
        obj["diagnostic"] = diagnostic
    sys.stderr.write(canonical_json(obj))


def entry() -> None:
    raise SystemExit(main())
