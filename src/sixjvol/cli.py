"""Command-line frontend.

Subcommands: classify | tetra | volume | sixj | growth | prism |
schlafli | lobachevsky-table.  Angles are the dihedral angles theta in
[0, pi], written either as decimal radians or exactly as "pi*p/q"
(also "pi", "pi*p", "pi/q") with integer p, q.  Output is JSON by
default; the streaming commands (growth, prism, lobachevsky-table)
also emit CSV with a fixed header.

Each command returns its JSON document, which `main` writes, or writes
its CSV rows itself and returns None; a command reports an error by
raising (see the exit codes).

The parser only parses: each rule on a value is stated where the
library refuses it (an angle outside [0, pi] by `AngleSixTuple` and
`PrismSpec`, a level by `OddLevel` or the scan rule, a step h by
`schlafli_residual`).  Exit codes: 0 success, 1 a value the library
refuses (such an angle, level or step, inadmissible colors, no
hyperbolic geometry, ...), 2 text that does not parse and other usage
errors (a bad number, a zero denominator, --r-end below --r-start,
--r-step or --points below 1), 141 when the reader closes stdout
before the output is written (`sixjvol ... | head`), with nothing on
stderr: 141 is what a shell reports for a process that SIGPIPE ends.

Each command loads only the library modules it runs.  Importing this
module loads `qnum` and `sixj`, all that parsing and the sixj command
need; every other command imports its library names when it starts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import re
import sys

from .sixj import ColorSixTuple
from .sixj import sixj_log as _sixj_log

# A temporary shim: library functions that stay attributes of this
# module only because the benchmark's span recorder (bench/spans.py)
# still looks them up here.  __getattr__ resolves each through the
# package, which imports its submodule on first use.  The commands import
# what they call from the submodules themselves, so these sites count
# nothing; drop the shim when the benchmark traces the submodules instead
# (ROADMAP item 6).
_FUNCTIONS = ("growth_series", "fit_growth", "prism_conjecture_check",
              "signature", "cofactor_matrix", "classify", "reconstruct",
              "edge_length_tuple", "volume", "critical_xi", "lobachevsky")

# the exit code of a command whose reader closed stdout early
EXIT_CLOSED_PIPE = 141

_PI_FORM = re.compile(r"^pi(?:\*(-?\d+))?(?:/(-?\d+))?$")

# ln of the smallest normal and of the largest finite double: strictly
# between them, e^log_abs is a finite normal double.
_LOG_NORMAL_MIN = math.log(sys.float_info.min)
_LOG_NORMAL_MAX = math.log(sys.float_info.max)


def __getattr__(name):
    if name not in _FUNCTIONS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(__package__), name)


def angle_literal(text: str) -> float:
    """Parse decimal radians or "pi*p/q"; the range is the library's."""
    s = text.strip()
    m = _PI_FORM.match(s)
    if m:
        p = int(m.group(1)) if m.group(1) else 1
        q = int(m.group(2)) if m.group(2) else 1
        if q == 0:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
        return math.pi * p / q
    try:
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad angle {text!r}: expected decimal radians or pi*p/q"
        ) from None


def mu_literal(text: str) -> tuple[int, ...]:
    """Six sign characters, e.g. "------" or "+-+-+-"."""
    s = text.strip()
    if len(s) != 6 or any(c not in "+-" for c in s):
        raise argparse.ArgumentTypeError(
            f"bad mu {text!r}: need six characters from +-")
    return tuple(1 if c == "+" else -1 for c in s)


def point_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"--points must be >= 1: {text}")
    return n


def finite_float(text: str) -> float:
    """A float option that must be finite; argparse names the option."""
    try:
        x = float(text)
    except ValueError:  # the message argparse gives for type=float
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite: {text}")
    return x


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
        out.write(",".join(map(str, row)) + "\r\n")


def _angle_head(args):
    """(alpha, echo) for the six angles and --mu: echo holds the theta,
    alpha and mu fields that every angle command writes."""
    from .gram import AlphaSixTuple, AngleSixTuple
    theta = AngleSixTuple(tuple(args.angles))
    alpha = AlphaSixTuple.from_theta(theta, args.mu)
    return alpha, {"theta": list(theta.theta), "alpha": list(alpha.alpha),
                   "mu": list(args.mu)}


# ---------------------------------------------------------------------------
# Subcommand handlers.


def cmd_classify(args) -> dict:
    from .gram import (admissible, classify, cofactor_matrix, gram_from_alpha,
                       signature, strictly_admissible, tol_sign)
    alpha, out = _angle_head(args)
    G = gram_from_alpha(alpha)
    cof = cofactor_matrix(G.mat)
    adm = admissible(alpha)
    out.update({
        "admissible": adm,
        "strictly_admissible": strictly_admissible(alpha),
        "gram": G.mat.tolist(),
        "signature": list(signature(G)),
        # classify finds G and its signature in the gram memos
        "class": classify(alpha).tag.value if adm else None,
        "cofactors": cof.tolist(),
        "cofactor_signs": [[tol_sign(cof[i, j]) for j in range(4)]
                           for i in range(4)],
    })
    return out


def cmd_tetra(args) -> dict:
    from .gram import gram_from_alpha
    from .tetra import reconstruct
    alpha, out = _angle_head(args)
    G = gram_from_alpha(alpha)
    t = reconstruct(G)
    out.update({
        "gram": G.mat.tolist(),
        "signature": [3, 1, 0],  # the only signature reconstruct accepts
        "case": str(t.case),
        "case_operations": list(t.case.operations),
        "vertex_types": [v.value for v in t.vertex_types],
        "vertices": t.vertices,
        "normals": t.normals,
        "edge_lengths": list(t.edge_lengths),
        "edge_data": [{"kind": d.kind.value, "ideal": d.ideal}
                      for d in map(t.edge_distance, range(6))],
    })
    return out


def cmd_volume(args) -> dict:
    from .gram import admissible, gram_from_alpha, signature
    from .tetra import edge_length_tuple
    from .volfun import big_V, critical_xi
    alpha, out = _angle_head(args)
    data = critical_xi(alpha)
    vol = big_V(alpha, data.xi)
    G = gram_from_alpha(alpha)
    lengths = None
    if signature(G).as_pair() == (3, 1):
        lengths = list(edge_length_tuple(G))
    out.update(xi=data.xi, xi_star=data.xi_star, degenerate=data.degenerate,
               vol=vol, edge_lengths=lengths, admissible=admissible(alpha))
    return out


def cmd_sixj(args) -> dict:
    val = _sixj_log(ColorSixTuple(args.colors, args.r))
    log_abs, phase = val
    try:
        sign = val.real_sign()
    except ValueError:  # an imaginary symbol has no real sign or value
        sign = None
    value = 0.0 if sign == 0 else None  # None beyond a finite normal double
    if sign and _LOG_NORMAL_MIN < log_abs < _LOG_NORMAL_MAX:
        value = sign * math.exp(log_abs)
    return {"r": args.r, "colors": list(args.colors), "log_abs": log_abs,
            "phase": phase, "sign": sign, "value": value}


def _r_list(args) -> range:
    if args.r_end < args.r_start:
        raise argparse.ArgumentTypeError("--r-end must be >= --r-start")
    if args.r_step < 1:
        raise argparse.ArgumentTypeError("--r-step must be >= 1")
    return range(args.r_start, args.r_end + 1, args.r_step)


def _emit_series(args, samples, summary) -> dict | None:
    """Write level samples as CSV rows, or return one JSON document that
    holds the level range, the samples and the fields of summary();
    summary is called for JSON output only."""
    from .growth import GrowthSample
    if args.format == "csv":
        _emit_csv(GrowthSample._fields, samples)
        return None
    out = summary()
    out.update(r_start=args.r_start, r_end=args.r_end, r_step=args.r_step,
               samples=[s._asdict() for s in samples])
    return out


def cmd_growth(args) -> dict | None:
    from .growth import GrowthPlan, fit_growth, growth_series
    from .volfun import big_V, critical_xi
    alpha, head = _angle_head(args)
    plan = GrowthPlan(alpha, tuple(_r_list(args)))
    samples = growth_series(plan)

    def summary():
        fit = fit_growth(samples)
        try:
            vol = big_V(alpha, critical_xi(alpha).xi)
            gap = abs(fit.c0 - vol)
        except ValueError:
            vol = None
            gap = None
        return dict(head, fit=fit._asdict(), vol=vol, gap=gap)

    return _emit_series(args, samples, summary)


def _load_prism_spec(path: str) -> PrismSpec:
    from .graphs import PrismSpec
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise argparse.ArgumentTypeError("prism spec must be a JSON object")
    angles = {}
    for key in ("vertical", "base_b", "base_c"):
        if key not in raw:
            raise argparse.ArgumentTypeError(
                f"prism spec missing key {key!r}")
        entry = raw[key]
        if not isinstance(entry, list):
            raise argparse.ArgumentTypeError(
                f"prism spec key {key!r} needs a list of angles")
        # a JSON number reaches the parser as its exact decimal repr, so
        # numbers and strings pass the same checks
        angles[key] = tuple(angle_literal(str(a)) for a in entry)
    return PrismSpec(angles["vertical"], angles["base_b"], angles["base_c"])


def cmd_prism(args) -> dict | None:
    from .graphs import _prism_samples, prism_conjecture_check
    try:
        spec = _load_prism_spec(args.spec)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read prism spec: {exc}") from exc
    levels = tuple(_r_list(args))
    if args.format == "csv":  # the samples alone, as for growth: no fit
        return _emit_series(args, _prism_samples(spec, levels), None)
    check = prism_conjecture_check(spec, levels)
    return _emit_series(args, check.samples, lambda: {
        "vertical": list(spec.vertical), "base_b": list(spec.base_b),
        "base_c": list(spec.base_c), "fit": check.fit._asdict(),
        "vol": check.vol, "gap": check.gap})


def cmd_schlafli(args) -> dict:
    from .gram import AngleSixTuple
    from .volfun import _schlafli
    theta = AngleSixTuple(tuple(args.angles))
    res, lengths = _schlafli(theta, args.mu, args.h)
    return {
        "theta": list(theta.theta),
        "mu": list(args.mu),
        "h": args.h,
        "residuals": list(res),
        "max_abs": max(abs(x) for x in res),
        "edge_lengths": list(lengths),
    }


def cmd_lobachevsky_table(args) -> dict | None:
    from .volfun import lobachevsky
    n = args.points
    lo, hi = args.start, args.end
    rows = []
    for k in range(n):
        t = lo + (hi - lo) * k / (n - 1) if n > 1 else lo
        if not math.isfinite(t):  # hi - lo or its multiple overflowed
            f = k / (n - 1)
            t = lo * (1.0 - f) + hi * f  # a convex combination: finite
        rows.append((t, lobachevsky(t)))
    if args.format == "csv":
        _emit_csv(("theta", "lambda"), rows)
        return None
    return {"start": lo, "end": hi, "points": n,
            "table": [[t, v] for t, v in rows]}


# ---------------------------------------------------------------------------
# Parser assembly.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixjvol",
        description="Quantum 6j-symbols, generalized hyperbolic tetrahedra, "
                    "volumes, and growth-rate checks.")
    streaming = argparse.ArgumentParser(add_help=False)
    streaming.add_argument("--format", choices=("json", "csv"), default="json",
                           help="output format for streaming commands "
                                "(default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    def angles6(p):
        p.add_argument("angles", nargs=6, type=angle_literal, metavar="ANGLE",
                       help="dihedral angle: decimal radians or pi*p/q")
        p.add_argument("--mu", type=mu_literal, default=(-1,) * 6,
                       metavar="SIGNS",
                       help="six +/- signs choosing alpha = pi + mu*theta "
                            "per edge (default ------)")

    p = sub.add_parser("classify",
                       help="admissibility, Gram matrix, signature, class")
    angles6(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tetra",
                       help="reconstruct the generalized hyperbolic "
                            "tetrahedron: vertices, edge lengths, case",
                       description="Reconstruct the generalized hyperbolic "
                                   "tetrahedron.  The vertices and normals "
                                   "are coordinates fixed only up to an "
                                   "O(3,1) isometry: only their Minkowski "
                                   "inner products, the vertex types, the "
                                   "edge lengths and the case are "
                                   "invariant.")
    angles6(p)
    p.set_defaults(func=cmd_tetra)

    p = sub.add_parser("volume",
                       help="hyperbolic volume via the critical-point "
                            "formula")
    angles6(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("sixj", help="evaluate one quantum 6j-symbol")
    p.add_argument("colors", nargs=6, type=int, metavar="COLOR")
    p.add_argument("--r", type=int, required=True,
                   help="odd level r of the root of unity")
    p.set_defaults(func=cmd_sixj)

    def rrange(p):
        p.add_argument("--r-start", type=int, default=101)
        p.add_argument("--r-end", type=int, default=1001)
        p.add_argument("--r-step", type=int, default=2)

    p = sub.add_parser("growth", parents=[streaming],
                       help="6j growth samples across levels, with fit")
    angles6(p)
    rrange(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("prism", parents=[streaming],
                       help="prism bracket growth vs split-volume sum")
    p.add_argument("spec", help="JSON file with keys vertical, base_b, "
                                "base_c (three angles each)")
    rrange(p)
    p.set_defaults(func=cmd_prism)

    p = sub.add_parser("schlafli",
                       help="central-difference residuals of the volume "
                            "derivative identity dV/dtheta_k = -l_k/2")
    angles6(p)
    p.add_argument("--h", type=float, default=1e-4,
                   help="finite-difference step (default %(default)g)")
    p.set_defaults(func=cmd_schlafli)

    p = sub.add_parser("lobachevsky-table", parents=[streaming],
                       help="tabulate the Lobachevsky function")
    p.add_argument("--start", type=finite_float, default=0.0)
    p.add_argument("--end", type=finite_float, default=math.pi)
    p.add_argument("--points", type=point_count, default=181)
    p.set_defaults(func=cmd_lobachevsky_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
        if doc is not None:
            _emit_json(doc)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return 0
    except BrokenPipeError:
        # The reader closed stdout (`sixjvol ... | head`).  Python's
        # recipe: point stdout at devnull, so that the flush at exit
        # writes nowhere instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except argparse.ArgumentTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
