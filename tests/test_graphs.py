"""The tetrahedral-complex record, its bracket values and the prism
volume conjecture harness."""

import hashlib
import math
import re
import warnings

import pytest

import sixjvol as sv
from sixjvol import graphs
from sixjvol.growth import scan_levels
from sixjvol.qnum import OddLevel

PI = math.pi


# ------------------------------------------------------------------ the record

def test_tetrahedral_graph_shape():
    g = sv.BlowUpGraph(6, [[0, 1, 2, 3, 4, 5]])
    assert g.n_edges == 6
    assert g.tet_decomposition == ((0, 1, 2, 3, 4, 5),)
    assert g == sv.BlowUpGraph(6, ((0, 1, 2, 3, 4, 5),))


def test_blow_up_makes_prism():
    # blowing up the tetrahedral graph at its first vertex (edges 0, 1, 2)
    # adds the triangle 6, 7, 8 and a second tetrahedron on both triples
    p = sv.prism_graph()
    assert p == sv.BlowUpGraph(9, ((0, 1, 2, 3, 4, 5), (0, 1, 2, 6, 7, 8)))
    assert p.tet_decomposition[1][:3] == sv.VERTEX_TRIPLES[0]


def test_blow_up_tower():
    # the prism blown up again at the vertex (0, 4, 5): three tetrahedra
    lvl = OddLevel(31)
    t = sv.BlowUpGraph(12, ((0, 1, 2, 3, 4, 5), (0, 1, 2, 6, 7, 8),
                            (0, 4, 5, 9, 10, 11)))
    cols = (2, 4, 6, 4, 6, 4, 2, 4, 6, 2, 4, 6)
    want = sv.QuarterPhaseLog.one()
    for tet in t.tet_decomposition:
        want = want * sv.sixj_log(
            sv.ColorSixTuple([cols[e] for e in tet], lvl))
    got = sv.bracket_blowup(t, cols, lvl)
    assert got.phase == want.phase
    assert got.log_mag == pytest.approx(want.log_mag, rel=1e-12)


@pytest.mark.parametrize("tet", [(0, 1, 2, 3, 4, -1), (0, 1, 2, 3, 4, 6),
                                 (0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5, 0),
                                 (0, 1, 2, 3, 4, 5.0), (0, 1, 2, 3, 4, "5")],
                         ids=["negative", "n_edges", "five", "seven",
                              "float", "str"])
def test_record_refuses_bad_edge_ids(tet):
    # a negative id would read a colour from the end of the colouring,
    # and an id past the end would fail inside bracket_blowup
    with pytest.raises(ValueError,
                       match=r"^decomposition tetrahedron 2 " + re.escape(
                           repr(tet)) + r": need six integer edge ids in "
                       r"0\.\.5$"):
        sv.BlowUpGraph(6, ((0, 1, 2, 3, 4, 5), tet))


@pytest.mark.parametrize("n", [2.5, -3, 2.0, "2", True, None])
def test_record_refuses_bad_edge_counts(n):
    # ids follow the same rule: an int, never a float or a string
    with pytest.raises(ValueError,
                       match=r"^need a non-negative integer edge count, "
                       r"got " + re.escape(repr(n)) + r"$"):
        sv.BlowUpGraph(n, ((0, 1, 0, 0, 1, 1),))
    assert sv.BlowUpGraph(0, ()).n_edges == 0


def test_two_edge_classes_bracket_is_a_square():
    # the two-tetrahedron ideal triangulation of the figure-eight knot
    # complement: both tetrahedra coloured (a, b, a, a, b, b)
    g = sv.BlowUpGraph(2, ((0, 1, 0, 0, 1, 1),) * 2)
    seen = 0
    for r in (11, 23, 31):
        for a in range(0, r - 2, 2):
            for b in range(0, r - 2, 2):
                if not sv.is_admissible_tuple((a, b, a, a, b, b), r):
                    continue
                one = sv.sixj_log(sv.ColorSixTuple((a, b, a, a, b, b), r))
                got = sv.bracket_blowup(g, (a, b), r)
                assert got.log_mag == 2 * one.log_mag
                assert got.phase == (2 * one.phase) % 4
                seen += 1
    assert seen > 50


# ------------------------------------------------------------------- brackets

def test_bracket_base_graph_is_single_sixj():
    lvl = OddLevel(31)
    g = sv.BlowUpGraph(6, ((0, 1, 2, 3, 4, 5),))
    for cols in [(0,) * 6, (2,) * 6, (2, 4, 6, 4, 6, 4)]:
        got = sv.bracket_blowup(g, cols, lvl)
        want = sv.sixj_log(sv.ColorSixTuple(cols, lvl))
        assert got.value() == pytest.approx(want.value(), rel=1e-12)


def test_bracket_prism_is_product_of_two_sixj():
    lvl = OddLevel(31)
    p = sv.prism_graph()
    cols = (2, 4, 6, 4, 6, 4, 2, 4, 6)
    got = sv.bracket_blowup(p, cols, lvl).value()
    t1 = sv.sixj_log(sv.ColorSixTuple(cols[:6], lvl)).value()
    t2 = sv.sixj_log(sv.ColorSixTuple(cols[:3] + cols[6:], lvl)).value()
    assert got == pytest.approx(t1 * t2, rel=1e-12)


def prism_factors(cols, r):
    """The two 6j factors of a prism colouring, by the oracle."""
    return [sv.sixj_exact_small(sv.tuple_of(cols[:3] + base, r))
            for base in (cols[3:6], cols[6:9])]


def test_bracket_of_two_imaginary_factors_is_real():
    # phases add: i * (-i) is real, so the bracket and its scan sample
    # are real although each factor is imaginary
    p = sv.prism_graph()
    cols = (8, 8, 2, 7, 7, 3, 0, 2, 8)
    z1, z2 = prism_factors(cols, 11)
    assert abs(z1.real) < 1e-12 and abs(z2.real) < 1e-12
    got = sv.bracket_blowup(p, cols, 11)
    assert (got.log_mag, got.phase) == (-1.3347741039685268, 0)
    assert (z1 * z2).real == pytest.approx(0.26321762855837, rel=1e-12)
    assert got.value() == pytest.approx(z1 * z2, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error", sv.LevelSkipped)
        samples = scan_levels([11], lambda r: sv.bracket_blowup(p, cols, r))
    assert [(s.log_abs, s.sign) for s in samples] == [(got.log_mag, 1)]


def test_bracket_of_one_imaginary_factor_is_skipped_in_a_scan():
    p = sv.prism_graph()
    cols = (8, 8, 2, 7, 7, 3, 1, 1, 7)
    z1, z2 = prism_factors(cols, 11)
    assert abs(z1.real) < 1e-12 and abs(z2.imag) < 1e-12
    got = sv.bracket_blowup(p, cols, 11)
    assert got.phase == 3
    assert got.value() == pytest.approx(z1 * z2, rel=1e-12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        samples = scan_levels([11], lambda r: sv.bracket_blowup(p, cols, r))
    assert samples == []
    assert [str(w.message) for w in caught] == [
        "level r=11 skipped: value has imaginary phase 3"]


def test_bracket_coloring_errors():
    lvl = OddLevel(31)
    p = sv.prism_graph()
    with pytest.raises(ValueError, match="need 9 colors, got 8"):
        sv.bracket_blowup(p, (2,) * 8, lvl)
    with pytest.raises(ValueError,
                       match=r"inadmissible coloring on decomposition "
                             r"tetrahedron 2 \(edges \(1, 2, 3, 7, 8, 9\)\)"):
        sv.bracket_blowup(p, (2, 2, 2, 2, 2, 2, 1, 2, 2), lvl)


def test_bracket_refuses_non_integral_colors():
    p = sv.prism_graph()
    with pytest.raises(TypeError, match=r"color must be an integer, got 2\.7"):
        sv.bracket_blowup(p, (2.7,) * 9, 11)
    assert (sv.bracket_blowup(p, (2.0,) * 9, 11)
            == sv.bracket_blowup(p, (2,) * 9, 11))


def test_bracket_zero_color_collapses_factor():
    # coloring a triangle edge 0 forces its two neighbors equal and the
    # second factor collapses to 1/sqrt(|Delta Delta'|) times a sign,
    # leaving a single 6j on the merged tetrahedron
    lvl = OddLevel(31)
    p = sv.prism_graph()
    for c0, c1, c2, c3, c4, c5 in [(2, 4, 6, 4, 6, 4), (2, 2, 2, 2, 2, 2),
                                   (0, 4, 4, 6, 4, 4)]:
        cols = (c0, c1, c2, c3, c4, c5, 0, c2, c1)
        got = sv.bracket_blowup(p, cols, lvl).value()
        merged = sv.sixj_log(
            sv.ColorSixTuple((c0, c4, c5, c3, c1, c2), lvl)).value()
        q1 = sv.quantum_integer(lvl, c1 + 1)
        q2 = sv.quantum_integer(lvl, c2 + 1)
        eps = 1.0 if q1 > 0 else -1.0
        pred = (eps * (-1.0) ** ((c1 + c2) // 2)
                / math.sqrt(abs(q1 * q2)) * merged)
        assert got == pytest.approx(pred, rel=1e-12)


def test_bracket_magnitude_invariant_under_private_face_move():
    # flipping the three private edges of the second tetrahedron is its
    # face move 1; the shared edges are untouched so |bracket| survives
    r = 31
    p = sv.prism_graph()
    spec = sv.PrismSpec((0.3, 0.4, 0.2), (0.5, 0.9, 0.7), (1.1, 0.6, 0.8))
    col = sv.prism_colors_for_r(spec, r)
    flip = col[:6] + tuple(r - 2 - c for c in col[6:])
    a = sv.bracket_blowup(p, col, OddLevel(r))
    b = sv.bracket_blowup(p, flip, OddLevel(r))
    assert a.log_mag == pytest.approx(b.log_mag, abs=1e-9)


# ------------------------------------------------------------------ the prism

def test_prism_spec_validation():
    with pytest.raises(ValueError, match="apex not hyperideal"):
        sv.PrismSpec((PI / 2, PI / 2, PI / 2), (0.3,) * 3, (0.3,) * 3)
    with pytest.raises(ValueError, match="exactly three angles"):
        sv.PrismSpec((0.3, 0.3), (0.3,) * 3, (0.3,) * 3)
    # the rule of AngleSixTuple, on all nine angles, before the apex
    # test: NaN passes that test, and 4.0 would reach a full scan
    nan = float("nan")
    for args, bad in [(((nan, .5, .5), (.5,) * 3, (.5,) * 3), "nan"),
                      (((.5,) * 3, (4.0, .5, .5), (.5,) * 3), "4.0"),
                      (((.5,) * 3, (.5,) * 3, (.5, .5, -2e-12)), "-2e-12"),
                      (((.5,) * 3, (.5,) * 3, (.5, .5, PI + 2e-12)),
                       repr(PI + 2e-12)),
                      (((PI / 2,) * 3, (.5,) * 3, (4.0, .5, .5)), "4.0")]:
        with pytest.raises(ValueError,
                           match=re.escape(f"dihedral angle {bad} outside "
                                           f"[0, pi]")):
            sv.PrismSpec(*args)
    ends = sv.PrismSpec((0.5, 0.5, -1e-12), (PI + 1e-12,) * 3, (0.0,) * 3)
    assert ends.base_b == (PI + 1e-12,) * 3


def test_prism_tetrahedra_split():
    spec = sv.PrismSpec((0.3, 0.4, 0.2), (0.5, 0.9, 0.7), (1.1, 0.6, 0.8))
    t1, t2 = spec.tetrahedra()
    assert t1.theta == (0.3, 0.4, 0.2, 0.5, 0.9, 0.7)
    assert t2.theta == (0.3, 0.4, 0.2, 1.1, 0.6, 0.8)


def test_prism_volume_is_additive():
    spec = sv.PrismSpec((0.3, 0.4, 0.2), (0.5, 0.9, 0.7), (1.1, 0.6, 0.8))
    t1, t2 = spec.tetrahedra()
    assert sv.prism_volume(spec) == pytest.approx(
        sv.volume(t1) + sv.volume(t2), rel=1e-12)
    sym = sv.PrismSpec((PI / 6,) * 3, (PI / 6,) * 3, (PI / 6,) * 3)
    assert sv.prism_volume(sym) == pytest.approx(
        2 * sv.volume(sv.AngleSixTuple((PI / 6,) * 6)), rel=1e-12)
    with pytest.raises(TypeError):  # no branch signs: they do not enter
        sv.prism_volume(spec, (-1,) * 6)


def test_prism_colors_round_limit_angles():
    sym = sv.PrismSpec((PI / 6,) * 3, (PI / 6,) * 3, (PI / 6,) * 3)
    assert sv.prism_colors_for_r(sym, 101) == (42,) * 9
    with pytest.raises(ValueError, match="odd integer"):
        sv.prism_colors_for_r(sym, 100)


def test_prism_conjecture_check_report_shape():
    sym = sv.PrismSpec((PI / 6,) * 3, (PI / 6,) * 3, (PI / 6,) * 3)
    chk = sv.prism_conjecture_check(sym, tuple(range(101, 502, 100)))
    assert chk.vol == pytest.approx(sv.prism_volume(sym))
    assert chk.gap == pytest.approx(abs(chk.fit.c0 - chk.vol))
    assert [s.r for s in chk.samples] == [101, 201, 301, 401, 501]
    with pytest.raises(ValueError, match="at least 5 finite samples"):
        sv.prism_conjecture_check(sym, (101, 103, 105))


def test_prism_conjecture_symmetric_hyperideal():
    sym = sv.PrismSpec((PI / 6,) * 3, (PI / 6,) * 3, (PI / 6,) * 3)
    chk = sv.prism_conjecture_check(sym, tuple(range(101, 2002, 2)))
    assert len(chk.samples) == 951
    assert chk.gap == pytest.approx(0.0033605, abs=1e-5)
    assert chk.gap < 1e-2


def test_prism_conjecture_regular_base():
    # one base strictly inside the ball: T2's base vertices are Regular
    # (positive diagonal cofactors) while the apex stays hyperideal;
    # many levels have one imaginary factor, so an imaginary bracket,
    # and are skipped
    spec = sv.PrismSpec((PI / 6,) * 3, (PI / 6,) * 3, (1.37, 1.37, 1.37))
    t2 = spec.tetrahedra()[1]
    cof = sv.cofactor_matrix(sv.gram_from_angles(t2).mat)
    assert sorted(cof[i, i] > 0 for i in range(4)) == [False, True, True, True]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        chk = sv.prism_conjecture_check(spec, tuple(range(101, 2002, 2)))
    skipped = [w for w in caught if issubclass(w.category, sv.LevelSkipped)]
    assert len(skipped) + len(chk.samples) == 951
    assert len(chk.samples) == 489
    assert chk.gap == pytest.approx(0.0098583, abs=1e-5)
    assert chk.gap < 2e-2


# sha256 over repr((_prism_samples(spec, range(101, 2002, 2)),
# prism_volume(spec))), taken before the blow-up history was removed.
PINNED_PRISMS = [
    (((PI / 6,) * 3, (PI / 6,) * 3, (PI / 6,) * 3),
     "4711319e60b3930582b06bbb259688ed872c78989c299116adf21d49f8734827"),
    (((0.3, 0.4, 0.2), (0.5, 0.9, 0.7), (1.1, 0.6, 0.8)),
     "ff8210bd1a522cdbe2580ff2676ec81a4a61619f818a5d26524243a048b961cb"),
]


@pytest.mark.parametrize("angles, digest", PINNED_PRISMS,
                         ids=["pi6", "unequal"])
def test_prism_outputs_are_pinned_bit_for_bit(angles, digest):
    spec = sv.PrismSpec(*angles)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sv.LevelSkipped)
        samples = graphs._prism_samples(spec, range(101, 2002, 2))
    text = repr((samples, sv.prism_volume(spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
