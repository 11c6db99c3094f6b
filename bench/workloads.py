"""The benchmark's three workloads and the measurements they report.

Each workload is a closed loop with one client: the next operation
starts when the previous one has returned.  Inputs come from `inputs`
and depend only on the seed.  Outputs are kept and checked against
`checks.Reference` after the timed region.

scan      one operation is a level scan, growth_series + fit_growth +
          volume over r = 101..2001 step 2; every block of eight scans
          (pi/6 tuple, THETA_E, six seeded rows) ends with one
          prism_conjecture_check over the same levels.
geometry  one operation is an alpha row through classify, reconstruct,
          critical_xi, volume and, when a vertex is hyperideal,
          volume_by_max.
cold      one operation is a round of six CLI commands, each in a fresh
          `python -m sixjvol.cli` process.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import resource
import statistics
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from sixjvol import cli, gram, graphs, growth, qnum, sixj, tetra, volfun

import inputs
import oracle
import proc
from checks import (Ledger, Reference, missed_levels, sample_values,
                    skip_reasons)
from spans import Tracer
from speed import SpeedClock, one_cpu, process_clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PRISM_SPEC = BENCH / "prism_pi6.json"
PI = math.pi

SCAN_LEVELS = tuple(range(101, 2002, 2))
SCAN_MP_LEVELS = (601, 1201, 2001)
GROWTH_LEVELS = tuple(range(101, 1002, 2))   # the CLI's default range
GROWTH_MP_LEVELS = (601, 1001)
DEEP_START = 10001
DEEP_WIDTH = 1000
SIXJ_R = 101
SETUP_REPEATS = 8
MICRO_REPEATS = 7
CHILD_REPEATS = 3

PI6_ALPHA = gram.AlphaSixTuple.from_theta(
    gram.AngleSixTuple(inputs.THETA_PI6), inputs.MU_MINUS)
E_ALPHA = gram.AlphaSixTuple.from_theta(
    gram.AngleSixTuple(inputs.THETA_E), inputs.MU_MINUS)
PRISM = graphs.PrismSpec((PI / 6,) * 3, (PI / 6,) * 3, (PI / 6,) * 3)
PRISM_ALPHA = tuple(PI - t for t in PRISM.vertical + PRISM.base_b
                    + PRISM.base_c)
SIXJ_COLORS = oracle.colors_at(PI6_ALPHA.alpha, SIXJ_R)


def _angles(theta) -> list[str]:
    return [repr(float(t)) for t in theta]


def _mu_flag(mu) -> str:
    return "--mu=" + "".join("+" if m > 0 else "-" for m in mu)


PROBE_COMMANDS = (
    ("classify", ["classify", *_angles(inputs.THETA_PI6)]),
    ("volume", ["volume", *_angles(inputs.THETA_PI6)]),
    ("tetra", ["tetra", *_angles(inputs.THETA_PI6)]),
    ("sixj", ["sixj", *map(str, SIXJ_COLORS), "--r", str(SIXJ_R)]),
    ("growth", ["growth", *_angles(inputs.THETA_PI6)]),
    ("prism", ["prism", str(PRISM_SPEC)]),
)

SETUP_CODE = {
    "scan": "import sixjvol\n"
            "for r in range(101, 2002, 2):\n"
            "    sixjvol.level_tables(r)\n",
    "geometry": "import math\nimport sixjvol as sv\n"
                "al = sv.AlphaSixTuple((5 * math.pi / 6,) * 6, (-1,) * 6)\n"
                "sv.classify(al)\n"
                "sv.reconstruct(sv.gram_from_alpha(al))\n"
                "sv.critical_xi(al)\n"
                "sv.volume(al.to_theta(), al.mu)\n"
                "sv.volume_by_max(al)\n",
    "cold": "import sixjvol\n",
}


@dataclass
class Done:
    """One finished operation: its input, output or error, wall time, and
    the machine-speed factor that scales the wall time (see speed.py)."""

    op: object
    out: object
    exc: BaseException | None
    wall_s: float
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


@dataclass
class Result:
    e2e: dict = field(default_factory=dict)       # gated metrics
    figures: dict = field(default_factory=dict)   # name -> (value, unit)
    layers: dict = field(default_factory=dict)    # per-layer metrics
    ledger: Ledger = field(default_factory=Ledger)
    notes: dict = field(default_factory=dict)


def timed_loop(ops, run, seconds: float, clock: SpeedClock | None,
               consume=None) -> list[Done]:
    """Run ops one at a time until `seconds` of their wall time is spent.

    Advancing `ops` (input generation), the reference task and
    `consume(done)` (checking the output) all fall outside the measured
    time.  An operation that raises is recorded and the loop goes on.
    Without a clock, times are not scaled.
    """
    done, measured = [], 0.0
    for op in ops:
        t0 = perf_counter()
        try:
            out, exc = run(op), None
        except Exception as err:  # noqa: BLE001 - counted as a failed op
            out, exc = None, err
        dt = perf_counter() - t0
        d = Done(op, out, exc, dt, clock.after(dt) if clock else 1.0)
        done.append(d)
        if consume is not None:
            consume(d)
        measured += dt
        if measured >= seconds:
            break
    return done


def replay(done: list[Done], run, clock: SpeedClock | None,
           consume=None) -> list[Done]:
    return timed_loop((d.op for d in done), run, math.inf, clock, consume)


def quantile(values, q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def new_process_clock() -> SpeedClock:
    env = proc.child_env(SRC)

    def reference() -> None:
        run = proc.python_child("import numpy", env, ROOT)
        if run.code != 0:
            raise RuntimeError("reference process failed")
    return process_clock(reference)


def measure_setup(workload: str) -> list[Done]:
    """SETUP_REPEATS fresh processes doing the workload's set-up, each
    scaled by the process reference."""
    env, clock = proc.child_env(SRC), new_process_clock()
    proc.python_child("import sixjvol", env, ROOT)  # write bytecode once
    out = []
    for _ in range(SETUP_REPEATS):
        run = proc.python_child(SETUP_CODE[workload], env, ROOT)
        if run.code != 0:
            raise RuntimeError("set-up failed: "
                               + run.stderr.decode(errors="replace"))
        out.append(Done(workload, None, None, run.wall_s,
                        clock.after(run.wall_s)))
    return out


def cli_inproc(argv: list[str]) -> tuple[int, str]:
    """`cli.main(argv)` in this process, stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(record=True):
        warnings.simplefilter("always", growth.LevelSkipped)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# scan


def scan_ops(seed: int):
    for k in itertools.count():
        yield ("series", PI6_ALPHA)
        yield ("series", E_ALPHA)
        for row in inputs.scan_block(seed, k):
            yield ("series", gram.AlphaSixTuple.from_alpha(row))
        yield ("prism", PRISM)


def run_scan(op):
    kind, arg = op
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always", growth.LevelSkipped)
        if kind == "prism":
            return graphs.prism_conjecture_check(arg, SCAN_LEVELS)
        samples = growth.growth_series(growth.GrowthPlan(arg, SCAN_LEVELS))
    fit = growth.fit_growth(samples)
    vol = volfun.volume(arg.to_theta(), arg.mu)
    return samples, fit, vol


def prism_tuples(r: int):
    c = oracle.colors_at(PRISM_ALPHA, r)
    return (c[0:6], c[0:3] + c[6:9])


def prism_volume_ref(ref: Reference) -> float:
    return (ref.volume_by_max(PRISM_ALPHA[0:6])
            + ref.volume_by_max(PRISM_ALPHA[0:3] + PRISM_ALPHA[6:9]))


def growth_target(alpha, ref: Reference) -> tuple[float, float]:
    """(reference volume, growth-rate target) of a limit-angle tuple.

    With a hyperideal vertex the target is the volume, checked by the
    maximisation route.  THETA_E has none; its target is V(xi*), and
    V(xi*) = -Vol there.
    """
    if alpha is E_ALPHA:
        v_star = volfun.big_V(alpha, volfun.critical_xi(alpha).xi_star)
        return -v_star, v_star
    vol = ref.volume_by_max(alpha.alpha)
    return vol, vol


def skipped_levels(samples, levels) -> list[int]:
    have = {sample_values(s)[0] for s in samples}
    return [r for r in levels if r not in have]


def check_skips(samples, levels, tuples_at, ledger: Ledger) -> Counter:
    """Record the values requested and returned, and the known defect
    among the skips; the caller fails the unexplained ones."""
    ledger.values(len(levels), len(samples))
    skips = skip_reasons(skipped_levels(samples, levels), tuples_at)
    ledger.note_known("imaginary_skipped", skips["imaginary_skipped"])
    return skips


def check_fit(c0: float, target: float, skips: Counter, ledger: Ledger,
              prefix: str = "") -> None:
    """A fit misses when its gap exceeds FIT_TOL; after imaginary skips
    the miss is the known defect those skips cause."""
    if abs(c0 - target) <= oracle.FIT_TOL:
        return
    if skips["imaginary_skipped"]:
        ledger.note_known("fit_gap_after_skips")
    else:
        ledger.fail(prefix + "fit_gap")


def check_scan(d: Done, ledger: Ledger, ref: Reference) -> None:
    kind, arg = d.op
    n = len(SCAN_LEVELS)
    ledger.attempt(n + 1)  # every level, and the fit
    if d.exc is not None:
        ledger.fail("raised " + type(d.exc).__name__, n + 1)
        ledger.values(n, 0)
        return
    if kind == "prism":
        samples, c0, vol = d.out.samples, d.out.fit.c0, d.out.vol
        vol_ref = target = prism_volume_ref(ref)
        tuples_at = prism_tuples
    else:
        samples, fit, vol = d.out
        c0 = fit.c0
        vol_ref, target = growth_target(arg, ref)

        def tuples_at(r, al=arg.alpha):
            return (oracle.colors_at(al, r),)
    skips = check_skips(samples, SCAN_LEVELS, tuples_at, ledger)
    ledger.fail("level_skipped", skips["level_skipped"])
    missed = missed_levels(samples, tuples_at, SCAN_MP_LEVELS, ref)
    ledger.fail("level_value_miss", len(missed), wrong=True)
    if abs(vol - vol_ref) > oracle.VOLUME_TOL:
        ledger.fail("volume_miss", wrong=True)
    else:
        check_fit(c0, target, skips, ledger)


def scan_warmup() -> None:
    for r in SCAN_LEVELS:
        qnum.level_tables(r)


def scan_metrics(done: list[Done], res: Result) -> None:
    series = [d for d in done if d.op[0] == "series"]
    levels = len(done) * len(SCAN_LEVELS)
    scaled = [d.scaled_s for d in series]
    raw = [d.wall_s for d in series]
    res.e2e.update(ops_per_s=levels / sum(d.scaled_s for d in done),
                   op_p50_ms=1e3 * statistics.median(scaled))
    res.figures.update({
        "scan.levels_per_s": (res.e2e["ops_per_s"], "1/s"),
        "scan.series_p50_s": (statistics.median(scaled), "s"),
        "scan.series_p90_s": (quantile(scaled, 0.9), "s"),
        "scan.levels_per_s.raw":
            (levels / sum(d.wall_s for d in done), "1/s"),
        "scan.series_p50_s.raw": (statistics.median(raw), "s"),
        "scan.series": (len(series), "count"),
        "scan.prism_checks": (len(done) - len(series), "count"),
    })


# ---------------------------------------------------------------------------
# geometry


def geometry_ops(seed: int):
    for k in itertools.count():
        rows, diag = inputs.geometry_chunk(seed, k)
        for row, dc in zip(rows, diag):
            yield gram.AlphaSixTuple.from_alpha(row), dc


def run_row(op):
    al, diag = op
    cls = gram.classify(al)
    tet = tetra.reconstruct(gram.gram_from_alpha(al))
    crit = volfun.critical_xi(al)
    vol = volfun.volume(al.to_theta(), al.mu)
    hyper = bool((diag < -inputs.HYPERIDEAL_TOL).any())
    vmax = volfun.volume_by_max(al).vol if hyper else None
    return cls, tet, crit, vol, vmax


def expected_types(diag) -> list[str | None]:
    """Vertex type by the sign of each diagonal cofactor; None near 0."""
    return ["Regular" if d > inputs.HYPERIDEAL_TOL else
            "Hyperideal" if d < -inputs.HYPERIDEAL_TOL else None
            for d in diag]


def types_miss(got, diag) -> bool:
    return any(want is not None and g != want
               for g, want in zip(got, expected_types(diag)))


def check_row(d: Done, ledger: Ledger, ref: Reference) -> None:
    ledger.attempt()
    ledger.values(1, int(d.exc is None))
    if d.exc is not None:
        ledger.fail("raised " + type(d.exc).__name__)
        return
    cls, tet, _, vol, vmax = d.out
    if cls.tag is not gram.GeometryTag.GENERALIZED_HYPERBOLIC:
        ledger.fail("class_miss", wrong=True)
    elif types_miss([v.value for v in tet.vertex_types], d.op[1]):
        ledger.fail("vertex_type_miss", wrong=True)
    elif vmax is not None and abs(vol - vmax) > oracle.VOLUME_TOL:
        ledger.fail("volume_miss", wrong=True)


def geometry_warmup() -> None:
    run_row(PI6_ROW)


PI6_ROW = (PI6_ALPHA,
           inputs.diag_cofactors(inputs.gram(np.array([PI6_ALPHA.alpha])))[0])


def geometry_metrics(done: list[Done], res: Result) -> None:
    scaled = [d.scaled_s for d in done]
    raw = [d.wall_s for d in done]
    res.e2e.update(ops_per_s=len(done) / sum(scaled),
                   op_p50_ms=1e3 * statistics.median(scaled))
    res.figures.update({
        "geometry.rows_per_s": (res.e2e["ops_per_s"], "1/s"),
        "geometry.row_p50_us": (1e6 * statistics.median(scaled), "us"),
        "geometry.row_p99_us": (1e6 * quantile(scaled, 0.99), "us"),
        "geometry.rows_per_s.raw": (len(done) / sum(raw), "1/s"),
        "geometry.row_p50_us.raw": (1e6 * statistics.median(raw), "us"),
        "geometry.row_p99_us.raw": (1e6 * quantile(raw, 0.99), "us"),
        "geometry.rows": (len(done), "count"),
    })


# ---------------------------------------------------------------------------
# cold


@dataclass(frozen=True)
class ColdScript:
    commands: tuple          # (name, argv) pairs, one round
    row: tuple               # alpha of the volume / tetra commands
    deep_start: int


def cold_script(seed: int) -> ColdScript:
    rng = inputs.chunk_rng(seed, 0)
    row = inputs.hyperbolic_rows(rng, 1, 0.0, need_hyperideal=True)[0]
    theta, mu = inputs.theta_mu(row)
    start = DEEP_START + 2 * int(rng.integers(0, 100))
    commands = (
        ("volume", ["volume", *_angles(theta), _mu_flag(mu)]),
        ("tetra", ["tetra", *_angles(theta), _mu_flag(mu)]),
        PROBE_COMMANDS[3],
        PROBE_COMMANDS[4],
        PROBE_COMMANDS[5],
        ("growth_deep", ["growth", *_angles(inputs.THETA_E),
                         "--r-start", str(start),
                         "--r-end", str(start + DEEP_WIDTH)]),
    )
    return ColdScript(commands, tuple(float(a) for a in row), start)


def cold_ops(script: ColdScript):
    return itertools.repeat(script)


@dataclass
class CommandRun:
    name: str
    code: int
    stdout: str
    wall_s: float
    scale: float
    peak_rss_mb: float
    trace: dict | None = None


def run_round(script: ColdScript, clock: SpeedClock,
              traced: bool = False) -> list[CommandRun]:
    """One round of the script, each command in a fresh process."""
    env = proc.child_env(SRC)
    entry = ([str(BENCH / "traced_cli.py")] if traced
             else ["-m", "sixjvol.cli"])
    out = []
    for name, argv in script.commands:
        run = proc.run_child([sys.executable, *entry, *argv], env, ROOT)
        stdout, code, trace = run.stdout.decode(errors="replace"), run.code, None
        if traced and code == 0:
            doc = json.loads(stdout)
            stdout, code, trace = doc["stdout"], doc["code"], doc["trace"]
        out.append(CommandRun(name, code, stdout, run.wall_s,
                              clock.after(run.wall_s), run.peak_rss_mb,
                              trace))
    return out


def tetra_miss(doc: dict, row) -> bool:
    """Reported normals must reproduce the Gram matrix in R^{3,1}, and
    vertex types must follow the diagonal cofactor signs."""
    u = np.array(doc["normals"], dtype=float)
    got = u @ np.diag([1.0, 1.0, 1.0, -1.0]) @ u.T
    want = inputs.gram(np.array([row]))
    diag = inputs.diag_cofactors(want)[0]
    return (float(np.max(np.abs(got - want[0]))) > oracle.GRAM_TOL
            or types_miss(doc["vertex_types"], diag))


def check_command(c: CommandRun, script: ColdScript, ledger: Ledger,
                  ref: Reference) -> None:
    """One command is one operation; it fails on its first miss.

    Value misses in the deep window are the known float64 floor of the
    z-sum at r > 10^4 (checks.KNOWN), counted so that a fix shows.
    """
    ledger.attempt()
    levels = command_levels(c.name, script)
    doc = None
    if c.code != 0:
        ledger.fail(f"{c.name}: exit {c.code}")
    else:
        try:
            doc = json.loads(c.stdout)
        except ValueError:
            ledger.fail(f"{c.name}: bad json", wrong=True)
    if doc is None:
        ledger.values(len(levels) if levels else 1, 0)
        return
    if levels is None:
        ledger.values(1, 1)
    if c.name == "volume":
        if abs(doc["vol"] - ref.volume_by_max(script.row)) > oracle.VOLUME_TOL:
            ledger.fail("volume: volume_miss", wrong=True)
        return
    if c.name == "tetra":
        if tetra_miss(doc, script.row):
            ledger.fail("tetra: tetra_miss", wrong=True)
        return
    if c.name == "sixj":
        missed = missed_levels([doc], lambda r: (SIXJ_COLORS,), (), ref)
        if missed:
            ledger.fail("sixj: value_miss", wrong=True)
        return
    deep = c.name == "growth_deep"
    if c.name == "prism":
        checked = GROWTH_MP_LEVELS
        tuples_at, target = prism_tuples, prism_volume_ref(ref)
    elif deep:
        s = script.deep_start
        checked = (s, s + DEEP_WIDTH // 2, s + DEEP_WIDTH)
        tuples_at, target = (lambda r: (oracle.colors_at(E_ALPHA.alpha, r),),
                             None)
    else:
        checked = GROWTH_MP_LEVELS
        target = ref.volume_by_max(PI6_ALPHA.alpha)

        def tuples_at(r):
            return (oracle.colors_at(PI6_ALPHA.alpha, r),)
    samples = doc["samples"]
    skips = check_skips(samples, levels, tuples_at, ledger)
    missed = missed_levels(samples, tuples_at, checked, ref)
    if deep:
        ledger.note_known("float64_floor", len(missed))
    if skips["level_skipped"]:
        ledger.fail(f"{c.name}: level_skipped")
    elif missed and not deep:
        ledger.fail(f"{c.name}: level_value_miss", wrong=True)
    elif target is not None and (
            abs(doc["vol"] - target) > oracle.VOLUME_TOL):
        ledger.fail(f"{c.name}: volume_miss", wrong=True)
    elif target is not None:
        check_fit(doc["fit"]["c0"], target, skips, ledger, f"{c.name}: ")


def command_levels(name: str, script: ColdScript) -> tuple | None:
    """The levels a growth or prism command asks for; None otherwise."""
    if name in ("growth", "prism"):
        return GROWTH_LEVELS
    if name == "growth_deep":
        s = script.deep_start
        return tuple(range(s, s + DEEP_WIDTH + 1, 2))
    return None


def check_round(d: Done, ledger: Ledger, ref: Reference) -> None:
    if d.exc is not None:
        n = len(d.op.commands)
        ledger.attempt(n)
        ledger.fail("raised " + type(d.exc).__name__, n)
        ledger.values(sum(len(command_levels(name, d.op) or (name,))
                          for name, _ in d.op.commands), 0)
        return
    for c in d.out:
        check_command(c, d.op, ledger, ref)


def cold_metrics(done: list[Done], res: Result) -> None:
    runs = [c for d in done if d.out for c in d.out]
    scaled = [c.wall_s * c.scale for c in runs]

    def p50(name, raw=False):
        return statistics.median(c.wall_s * (1.0 if raw else c.scale)
                                 for c in runs if c.name == name)
    peak = max(c.peak_rss_mb for c in runs)
    # Commands per second of a round made of each command's median time:
    # a stall of the shared machine slows one command of one round, which
    # its command's median does not follow.
    names = [name for name, _ in done[0].op.commands]
    per_round = len(names) / sum(p50(name) for name in names)
    # The median over all commands falls between the fast and the slow
    # half of the script; the sixj command, which does little besides
    # starting, importing and printing, stands for one CLI call.
    res.e2e.update(ops_per_s=per_round, op_p50_ms=1e3 * p50("sixj"),
                   peak_rss_mb=peak)
    res.figures.update({
        "cold.cmds_per_s": (per_round, "1/s"),
        "cold.cmd_p50_s": (statistics.median(scaled), "s"),
        "cold.cmd_p90_s": (quantile(scaled, 0.9), "s"),
        "cold.sixj_p50_s": (p50("sixj"), "s"),
        "cold.growth_deep_p50_s": (p50("growth_deep"), "s"),
        "cold.peak_rss_mb": (peak, "MB"),
        "cold.cmds_per_s.raw":
            (len(runs) / sum(c.wall_s for c in runs), "1/s"),
        "cold.commands": (len(runs), "count"),
        "cold.rounds": (len(done), "count"),
    })
    for name, _ in done[0].op.commands:
        res.figures[f"cold.{name}_p50_s.raw"] = (p50(name, raw=True), "s")


# ---------------------------------------------------------------------------
# traced run: layer figures


def micro_figures() -> dict:
    """Untraced per-layer timings that do not depend on the workload."""
    def median_us(fn) -> float:
        times = []
        for _ in range(MICRO_REPEATS):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return 1e6 * statistics.median(times)

    out = {}
    for r in (101, 2001, 20001):
        level = qnum.OddLevel(r)
        out[f"qnum.table_build_us.r{r}"] = median_us(
            lambda: qnum.LevelTables(level))
        t = sixj.ColorSixTuple(oracle.colors_at(PI6_ALPHA.alpha, r), level)
        sixj.sixj_log(t)  # tables of this level built once, outside
        out[f"sixj.sixj_log_us.r{r}"] = median_us(lambda: sixj.sixj_log(t))

    env = proc.child_env(SRC)
    interp = [proc.python_child("pass", env, ROOT).wall_s
              for _ in range(CHILD_REPEATS)]
    timer = ("import time\nt0 = time.perf_counter()\nimport sixjvol.cli\n"
             "print(time.perf_counter() - t0)\n")
    imports = [float(proc.python_child(timer, env, ROOT).stdout)
               for _ in range(CHILD_REPEATS)]
    out["cli.interp_s"] = statistics.median(interp)
    out["cli.import_s"] = statistics.median(imports)
    stdout_bytes = 0
    for name, argv in PROBE_COMMANDS:
        walls = []
        for _ in range(CHILD_REPEATS):
            t0 = perf_counter()
            _, text = cli_inproc(argv)
            walls.append(perf_counter() - t0)
        out[f"cli.main_s.{name}"] = statistics.median(walls)
        stdout_bytes += len(text.encode())
    out["cli.stdout_bytes"] = stdout_bytes
    return out


def probe_pass() -> None:
    """One call into every layer, so each layer figure is measured in
    every workload's traced run: the probe CLI commands in-process and
    one geometry row."""
    for _, argv in PROBE_COMMANDS:
        cli_inproc(argv)
    run_row(PI6_ROW)


def layer_figures(s, rows: int) -> dict:
    """Per-layer metrics from a tracer summary (see Tracer.summary)."""
    def self_s(name):
        return s["self_s:" + name]

    def calls(name):
        return s["calls:" + name]

    n_sixj = calls("sixj.sixj_log")
    wall = s["wall_s:growth.growth_series"]
    return {
        "qnum.level_tables.calls": calls("qnum.level_tables"),
        "qnum.tables_built": s["qnum.tables_built"],
        "qnum.table_bytes": s["qnum.table_bytes"],
        "sixj.sixj_log.calls": n_sixj,
        "sixj.sixj_log.self_s": self_s("sixj.sixj_log"),
        "sixj.zterms_per_call": s["sixj.zterms"] / max(1, n_sixj),
        "sixj.sixj_log.raised": s["sixj.sixj_log.raised"],
        "growth.growth_series.self_s": self_s("growth.growth_series"),
        "growth.colors_for_r.self_s": self_s("growth.colors_for_r"),
        "growth.fit_growth.self_s": self_s("growth.fit_growth"),
        "growth.levels_skipped": s["growth.levels_skipped"],
        "growth.child_span_sum_over_wall":
            s["child_s:growth.growth_series"] / wall if wall else 0.0,
        "graphs.bracket_blowup.calls": calls("graphs.bracket_blowup"),
        "graphs.bracket_blowup.self_s": self_s("graphs.bracket_blowup"),
        "graphs.prism_conjecture_check.self_s":
            self_s("graphs.prism_conjecture_check"),
        "gram.signature.calls": calls("gram.signature"),
        "gram.signature.self_s": self_s("gram.signature"),
        "gram.cofactor_matrix.calls_per_row":
            calls("gram.cofactor_matrix") / max(1, rows),
        "gram.cofactor_matrix.self_s": self_s("gram.cofactor_matrix"),
        "gram.classify.self_s": self_s("gram.classify"),
        "tetra.reconstruct.self_s": self_s("tetra.reconstruct"),
        "tetra.edge_length_tuple.self_s": self_s("tetra.edge_length_tuple"),
        "tetra.case_label.self_s": self_s("tetra.case_label"),
        "volfun.volume.self_s": self_s("volfun.volume"),
        "volfun.volume_by_max.self_s": self_s("volfun.volume_by_max"),
        "volfun.critical_xi.self_s": self_s("volfun.critical_xi"),
        "volfun.lobachevsky.calls": s["volfun.lobachevsky.calls"],
    }


# ---------------------------------------------------------------------------
# running a workload


@dataclass(frozen=True)
class Spec:
    ops: object        # seed -> iterator of operations
    run: object        # operation -> output
    check: object      # (Done, Ledger, Reference) -> None
    metrics: object    # (done, Result) -> None
    warmup: object     # in-process set-up before timing
    in_process: bool   # in-process reference task; keeps no output


SPECS = {
    "scan": Spec(scan_ops, run_scan, check_scan, scan_metrics, scan_warmup,
                 True),
    "geometry": Spec(geometry_ops, run_row, check_row, geometry_metrics,
                     geometry_warmup, True),
    "cold": Spec(lambda seed: cold_ops(cold_script(seed)), run_round,
                 check_round, cold_metrics, lambda: None, False),
}


def checker(workload: str, ledger: Ledger):
    """consume() for timed_loop: check the output, then let it go unless
    the workload's metrics still need it."""
    spec, ref = SPECS[workload], Reference()

    def consume(d: Done) -> None:
        spec.check(d, ledger, ref)
        if spec.in_process:
            d.out = None
    return consume


def drop(d: Done) -> None:
    d.out = None


def workload_clock(spec: Spec) -> SpeedClock:
    return SpeedClock() if spec.in_process else new_process_clock()


def runner(spec: Spec, clock: SpeedClock, traced: bool = False):
    if spec.in_process:
        return spec.run
    return lambda op: spec.run(op, clock, traced)


def run_untraced(workload: str, seed: int, seconds: float) -> Result:
    spec, res = SPECS[workload], Result()
    setup = measure_setup(workload)
    clock = workload_clock(spec)
    with one_cpu():  # child processes inherit it
        spec.warmup()
        done = timed_loop(spec.ops(seed), runner(spec, clock), seconds,
                          clock if spec.in_process else None,
                          checker(workload, res.ledger))
    res.e2e["peak_rss_mb"] = peak_rss_mb()  # cold reports its children's
    spec.metrics(done, res)
    res.e2e["setup_s"] = statistics.median(d.scaled_s for d in setup)
    res.e2e["returned_frac"] = res.ledger.returned_frac
    res.figures["setup_s"] = (res.e2e["setup_s"], "s")
    res.figures["setup_s.raw"] = (statistics.median(d.wall_s for d in setup),
                                  "s")
    res.figures[workload + ".failed_frac"] = (res.ledger.failed_frac,
                                              "ratio")
    res.figures[workload + ".returned_frac"] = (res.ledger.returned_frac,
                                                "ratio")
    res.notes.update(setup_walls_s=[d.wall_s for d in setup],
                     measured_s=sum(d.wall_s for d in done),
                     reference_median_s=clock.median_s(),
                     reference_samples=len(clock.samples))
    return res


def run_traced(workload: str, seed: int, seconds: float) -> Result:
    """Layer figures of the workload's operations.

    The operations of one untraced pass of a third of the time run
    again traced and then untraced once more; the tracing overhead is
    the traced time minus the mean of the two untraced times (scaled by
    the reference task in process).  The layer figures come from the
    traced pass plus the probe pass.  `cold` runs each traced command in
    a fresh process (bench/traced_cli.py) and sums their figures.
    """
    spec, res = SPECS[workload], Result()
    clock = workload_clock(spec)
    loop_clock = clock if spec.in_process else None
    release = drop if spec.in_process else None  # cold rounds stay small
    check = checker(workload, res.ledger)
    with one_cpu():  # child processes inherit it
        spec.warmup()
        done_a = timed_loop(spec.ops(seed), runner(spec, clock), seconds / 3,
                            loop_clock, release)
        if workload == "cold":
            done_b = replay(done_a, runner(spec, clock, traced=True),
                            loop_clock, check)
            summary = sum_traces(done_b)
            with Tracer() as tracer:
                probe_pass()
            rows = 1
        else:
            with Tracer() as tracer:
                done_b = replay(done_a, spec.run, loop_clock, check)
                probe_pass()
            rows = 1 + (len(done_b) if workload == "geometry" else 0)
            summary = Counter()
        summary.update(tracer.summary())
        done_c = replay(done_a, runner(spec, clock), loop_clock, release)
    res.layers = layer_figures(summary, rows)
    res.layers.update(micro_figures())
    walls = [sum(scaled_wall(d) for d in x) for x in (done_a, done_b, done_c)]
    untraced_s = (walls[0] + walls[2]) / 2
    res.layers["trace.overhead_s"] = walls[1] - untraced_s
    res.layers["trace.overhead_frac"] = (walls[1] - untraced_s) / untraced_s
    res.notes.update(walls_s=walls, operations=len(done_b),
                     uninstrumented_call_sites=tracer.missing)
    return res


def scaled_wall(d: Done) -> float:
    """An operation's scaled time; a cold round sums its commands'."""
    if isinstance(d.out, list):
        return sum(c.wall_s * c.scale for c in d.out)
    return d.scaled_s


def sum_traces(done: list[Done]) -> Counter:
    total = Counter()
    for d in done:
        for c in d.out or ():
            total.update(c.trace or {})
    return total
