"""Command-line frontend.

Subcommands: classify | tetra | volume | sixj | growth | prism |
schlafli | lobachevsky-table.  Angles are the dihedral angles theta in
[0, pi], written either as decimal radians or exactly as "pi*p/q"
(also "pi", "pi*p", "pi/q") with integer p, q.  Output is JSON by
default; the streaming commands (growth, prism, lobachevsky-table)
also emit CSV with a fixed header.

Exit codes: 0 success, 1 domain errors (inadmissible colors, no
hyperbolic geometry, ...), 2 parse/usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .gram import (DEFAULT_TOL, EDGE_COMPLEMENT, AlphaSixTuple, AngleSixTuple,
                   admissible, classify, cofactor_matrix, gram_from_angles,
                   signature, strictly_admissible, tol_sign)
from .graphs import PrismSpec, prism_conjecture_check
from .growth import GrowthPlan, fit_growth, growth_series
from .qnum import OddLevel
from .sixj import tuple_of
from .sixj import sixj_log as _sixj_log
from .tetra import distance, edge_length_tuple, reconstruct
from .volfun import (critical_xi, lobachevsky, schlafli_residual, volume)

_PI_FORM = re.compile(r"^pi(?:\*(-?\d+))?(?:/(-?\d+))?$")


def angle_literal(text: str) -> float:
    """Parse decimal radians or "pi*p/q"; must land in [0, 2*pi]."""
    s = text.strip()
    m = _PI_FORM.match(s)
    if m:
        p = int(m.group(1)) if m.group(1) else 1
        q = int(m.group(2)) if m.group(2) else 1
        if q == 0:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
        value = math.pi * p / q
    else:
        try:
            value = float(s)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad angle {text!r}: expected decimal radians or pi*p/q"
            ) from None
    if not 0.0 <= value <= 2.0 * math.pi + 1e-12:
        raise argparse.ArgumentTypeError(
            f"angle {text!r} = {value} outside [0, 2*pi]")
    return value


def mu_literal(text: str) -> tuple[int, ...]:
    """Six sign characters, e.g. "------" or "+-+-+-"."""
    s = text.strip()
    if len(s) != 6 or any(c not in "+-" for c in s):
        raise argparse.ArgumentTypeError(
            f"bad mu {text!r}: need six characters from +-")
    return tuple(1 if c == "+" else -1 for c in s)


def odd_level(text: str) -> int:
    r = int(text)
    if r < 3 or r % 2 == 0:
        raise argparse.ArgumentTypeError(f"level must be odd and >= 3: {text}")
    return r


def odd_start(text: str) -> int:
    r = int(text)
    if r < 5 or r % 2 == 0:
        raise argparse.ArgumentTypeError(
            f"--r-start must be odd and >= 5: {text}")
    return r


def even_step(text: str) -> int:
    s = int(text)
    if s < 2 or s % 2 == 1:
        raise argparse.ArgumentTypeError(
            f"--r-step must be even and >= 2 to keep levels odd: {text}")
    return s


def _jsonable(x):
    """Recursively convert to plain JSON types; non-finite floats -> None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(_jsonable(obj), sort_keys=True,
                                separators=(",", ":")))
    sys.stdout.write("\n")


def _emit_csv(header, rows) -> None:
    # RFC-4180: CRLF record separators, minimal quoting (never needed for
    # the numeric payloads here).
    out = sys.stdout
    out.write(",".join(header) + "\r\n")
    for row in rows:
        out.write(",".join(_csv_cell(v) for v in row) + "\r\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _theta(args) -> AngleSixTuple:
    return AngleSixTuple(tuple(args.angles))


def _sig_list(G, tol):
    s = signature(G, tol)
    return [s.pos, s.neg, s.zero]


# ---------------------------------------------------------------------------
# Subcommand handlers.


def cmd_classify(args) -> int:
    theta = _theta(args)
    alpha = AlphaSixTuple.from_theta(theta, args.mu)
    G = gram_from_angles(theta)
    cof = cofactor_matrix(G.mat)
    adm = admissible(alpha)
    out = {
        "theta": list(theta.theta),
        "alpha": list(alpha.alpha),
        "mu": list(args.mu),
        "admissible": adm,
        "strictly_admissible": strictly_admissible(alpha),
        "gram": G.mat.tolist(),
        "signature": _sig_list(G, args.tol),
        "class": classify(alpha, args.tol).tag.value if adm else None,
        "cofactors": cof.tolist(),
        "cofactor_signs": [[tol_sign(cof[i, j], args.tol) for j in range(4)]
                           for i in range(4)],
    }
    _emit_json(out)
    return 0


def cmd_tetra(args) -> int:
    theta = _theta(args)
    alpha = AlphaSixTuple.from_theta(theta, args.mu)
    G = gram_from_angles(theta)
    t = reconstruct(G, args.tol)
    kinds = []
    for e in range(6):
        k, l = EDGE_COMPLEMENT[e]
        d = distance(G, k + 1, l + 1, args.tol)
        kinds.append({"kind": d.kind.value, "ideal": d.ideal})
    out = {
        "theta": list(theta.theta),
        "alpha": list(alpha.alpha),
        "mu": list(args.mu),
        "gram": G.mat.tolist(),
        "signature": _sig_list(G, args.tol),
        "case": str(t.case),
        "case_operations": list(t.case.operations),
        "vertex_types": [v.value for v in t.vertex_types],
        "vertices": [list(v.x) for v in t.vertices],
        "normals": [list(u.x) for u in t.normals],
        "edge_lengths": list(t.edge_lengths),
        "edge_data": kinds,
    }
    _emit_json(out)
    return 0


def cmd_volume(args) -> int:
    theta = _theta(args)
    alpha = AlphaSixTuple.from_theta(theta, args.mu)
    vol = volume(theta, args.mu, args.tol)
    data = critical_xi(alpha, args.tol)
    G = gram_from_angles(theta)
    lengths = None
    if signature(G, args.tol).as_pair() == (3, 1):
        lengths = list(edge_length_tuple(G, args.tol))
    out = {
        "theta": list(theta.theta),
        "alpha": list(alpha.alpha),
        "mu": list(args.mu),
        "xi": data.xi,
        "xi_star": data.xi_star,
        "degenerate": data.degenerate,
        "vol": vol,
        "edge_lengths": lengths,
    }
    _emit_json(out)
    return 0


def cmd_sixj(args) -> int:
    t = tuple_of(tuple(args.colors), OddLevel(args.r))
    val = _sixj_log(t)
    if val.is_zero:
        out = {"r": args.r, "colors": list(args.colors), "log_abs": None,
               "sign": 0, "value": 0.0}
    else:
        sign = val.real_sign()
        value = sign * math.exp(val.log_mag) if val.log_mag < 700.0 else None
        out = {"r": args.r, "colors": list(args.colors),
               "log_abs": val.log_mag, "sign": sign, "value": value}
    _emit_json(out)
    return 0


def _r_list(args) -> range:
    if args.r_end < args.r_start:
        raise argparse.ArgumentTypeError("--r-end must be >= --r-start")
    return range(args.r_start, args.r_end + 1, args.r_step)


def cmd_growth(args) -> int:
    theta = _theta(args)
    alpha = AlphaSixTuple.from_theta(theta, args.mu)
    plan = GrowthPlan(alpha, tuple(_r_list(args)))
    samples = growth_series(plan)
    if args.format == "csv":
        _emit_csv(("r", "log_abs", "scaled", "sign"),
                  [(s.r, s.log_abs, s.scaled, s.sign) for s in samples])
        return 0
    fit = fit_growth(samples)
    try:
        vol = volume(theta, args.mu, args.tol)
        gap = abs(fit.c0 - vol)
    except ValueError:
        vol = None
        gap = None
    out = {
        "theta": list(theta.theta),
        "alpha": list(alpha.alpha),
        "mu": list(args.mu),
        "r_start": args.r_start, "r_end": args.r_end, "r_step": args.r_step,
        "samples": [{"r": s.r, "log_abs": s.log_abs, "scaled": s.scaled,
                     "sign": s.sign} for s in samples],
        "fit": {"c0": fit.c0, "c1": fit.c1, "c2": fit.c2,
                "residual_rms": fit.residual_rms},
        "vol": vol,
        "gap": gap,
    }
    _emit_json(out)
    return 0


def _load_prism_spec(path: str) -> PrismSpec:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    angles = {}
    for key in ("vertical", "base_b", "base_c"):
        if key not in raw:
            raise KeyError(f"prism spec missing key {key!r}")
        entry = raw[key]
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValueError(f"prism spec key {key!r} needs three angles")
        angles[key] = tuple(
            angle_literal(a) if isinstance(a, str) else float(a)
            for a in entry)
    return PrismSpec(angles["vertical"], angles["base_b"], angles["base_c"])


def cmd_prism(args) -> int:
    try:
        spec = _load_prism_spec(args.spec)
    except (OSError, json.JSONDecodeError, KeyError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: cannot read prism spec: {exc}", file=sys.stderr)
        return 2
    check = prism_conjecture_check(spec, tuple(_r_list(args)))
    if args.format == "csv":
        _emit_csv(("r", "log_abs", "scaled", "sign"),
                  [(s.r, s.log_abs, s.scaled, s.sign) for s in check.samples])
        return 0
    out = {
        "vertical": list(spec.vertical),
        "base_b": list(spec.base_b),
        "base_c": list(spec.base_c),
        "r_start": args.r_start, "r_end": args.r_end, "r_step": args.r_step,
        "samples": [{"r": s.r, "log_abs": s.log_abs, "scaled": s.scaled,
                     "sign": s.sign} for s in check.samples],
        "fit": {"c0": check.fit.c0, "c1": check.fit.c1, "c2": check.fit.c2,
                "residual_rms": check.fit.residual_rms},
        "vol": check.vol,
        "gap": check.gap,
    }
    _emit_json(out)
    return 0


def cmd_schlafli(args) -> int:
    theta = _theta(args)
    res = schlafli_residual(theta, args.mu, h=args.h, tol=args.tol)
    G = gram_from_angles(theta)
    out = {
        "theta": list(theta.theta),
        "mu": list(args.mu),
        "h": args.h,
        "residuals": list(res),
        "max_abs": max(abs(x) for x in res),
        "edge_lengths": list(edge_length_tuple(G, args.tol)),
    }
    _emit_json(out)
    return 0


def cmd_lobachevsky_table(args) -> int:
    n = args.points
    lo, hi = args.start, args.end
    rows = []
    for k in range(n):
        t = lo + (hi - lo) * k / (n - 1) if n > 1 else lo
        rows.append((t, lobachevsky(t)))
    if args.format == "csv":
        _emit_csv(("theta", "lambda"), rows)
    else:
        _emit_json({"start": lo, "end": hi, "points": n,
                    "table": [[t, v] for t, v in rows]})
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixjvol",
        description="Quantum 6j-symbols, generalized hyperbolic tetrahedra, "
                    "volumes, and growth-rate checks.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="numerical tolerance (default %(default)g)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format for streaming commands "
                             "(default %(default)s)")
    common.add_argument("--mu", type=mu_literal, default=(-1,) * 6,
                        metavar="SIGNS",
                        help="six +/- signs choosing alpha = pi + mu*theta "
                             "per edge (default ------)")
    sub = parser.add_subparsers(dest="command", required=True)

    def angles6(p):
        p.add_argument("angles", nargs=6, type=angle_literal, metavar="ANGLE",
                       help="dihedral angle: decimal radians or pi*p/q")

    p = sub.add_parser("classify", parents=[common],
                       help="admissibility, Gram matrix, signature, class")
    angles6(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tetra", parents=[common],
                       help="reconstruct the generalized hyperbolic "
                            "tetrahedron: vertices, edge lengths, case")
    angles6(p)
    p.set_defaults(func=cmd_tetra)

    p = sub.add_parser("volume", parents=[common],
                       help="hyperbolic volume via the critical-point "
                            "formula")
    angles6(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("sixj", parents=[common],
                       help="evaluate one quantum 6j-symbol")
    p.add_argument("colors", nargs=6, type=int, metavar="COLOR")
    p.add_argument("--r", type=odd_level, required=True,
                   help="odd level r of the root of unity")
    p.set_defaults(func=cmd_sixj)

    def rrange(p):
        p.add_argument("--r-start", type=odd_start, default=101)
        p.add_argument("--r-end", type=int, default=1001)
        p.add_argument("--r-step", type=even_step, default=2)

    p = sub.add_parser("growth", parents=[common],
                       help="6j growth samples across levels, with fit")
    angles6(p)
    rrange(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("prism", parents=[common],
                       help="prism bracket growth vs split-volume sum")
    p.add_argument("spec", help="JSON file with keys vertical, base_b, "
                                "base_c (three angles each)")
    rrange(p)
    p.set_defaults(func=cmd_prism)

    p = sub.add_parser("schlafli", parents=[common],
                       help="central-difference residuals of the volume "
                            "derivative identity dV/dtheta_k = -l_k/2")
    angles6(p)
    p.add_argument("--h", type=float, default=1e-4,
                   help="finite-difference step (default %(default)g)")
    p.set_defaults(func=cmd_schlafli)

    p = sub.add_parser("lobachevsky-table", parents=[common],
                       help="tabulate the Lobachevsky function")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--end", type=float, default=math.pi)
    p.add_argument("--points", type=int, default=181)
    p.set_defaults(func=cmd_lobachevsky_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
