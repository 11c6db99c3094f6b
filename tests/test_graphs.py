"""Bracket values on the blow-up graph family and the prism volume
conjecture harness."""

import math
import warnings

import pytest

import sixjvol as sv
from sixjvol.qnum import OddLevel

PI = math.pi


# ----------------------------------------------------------------- loop value

def test_loop_value_small_colors():
    lvl = OddLevel(31)
    assert sv.loop_value(lvl, 0) == pytest.approx(-1.0)
    assert sv.loop_value(lvl, 1) == pytest.approx(2.0 * math.cos(2 * PI / 31))


def test_loop_value_general_form():
    lvl = OddLevel(31)
    for i in range(0, 30):
        expect = (-1.0) ** (i + 1) * sv.quantum_integer(lvl, i + 1)
        assert sv.loop_value(lvl, i) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError, match="color out of range"):
        sv.loop_value(lvl, 30)


# -------------------------------------------------------------- graph algebra

def test_tetrahedral_graph_shape():
    g = sv.BlowUpGraph.tetrahedral()
    assert g.n_edges == 6
    assert g.vertices == {"g1": (0, 1, 2), "g2": (0, 4, 5),
                          "g3": (1, 3, 5), "g4": (2, 3, 4)}
    assert g.tet_decomposition == ((0, 1, 2, 3, 4, 5),)
    assert g.moves == ()


def test_blow_up_makes_prism():
    p = sv.BlowUpGraph.tetrahedral().blow_up("g1")
    assert p.n_edges == 9
    assert "g1" not in p.vertices
    assert p.vertices["g1.1"] == (0, 7, 8)
    assert p.vertices["g1.2"] == (1, 6, 8)
    assert p.vertices["g1.3"] == (2, 6, 7)
    assert p.tet_decomposition == ((0, 1, 2, 3, 4, 5), (0, 1, 2, 6, 7, 8))
    assert p.moves == (sv.BlowUpMove("g1", (6, 7, 8)),)
    assert sv.prism_graph() == p


def test_blow_up_unknown_vertex():
    with pytest.raises(ValueError, match="no vertex named"):
        sv.BlowUpGraph.tetrahedral().blow_up("g9")


def test_blow_up_tower():
    t = sv.prism_graph().blow_up("g2")
    assert t.n_edges == 12
    assert t.tet_decomposition[-1] == (0, 4, 5, 9, 10, 11)
    assert len(t.tet_decomposition) == 3


# ------------------------------------------------------------------- brackets

def test_bracket_base_graph_is_single_sixj():
    lvl = OddLevel(31)
    g = sv.BlowUpGraph.tetrahedral()
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


def test_bracket_accepts_dict_coloring():
    lvl = OddLevel(31)
    p = sv.prism_graph()
    tup = sv.bracket_blowup(p, (2,) * 9, lvl)
    dic = sv.bracket_blowup(p, {e: 2 for e in range(9)}, lvl)
    assert tup.log_mag == dic.log_mag and tup.phase == dic.phase


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
    # many levels produce an imaginary first factor and are skipped
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
