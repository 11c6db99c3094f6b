"""Reconstruction from the Gram matrix: Minkowski data, vertex types,
distances, signed edge lengths, and case labels."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import sixjvol as sv
from sixjvol import tetra
from conftest import angles_from_normals, sample_theta31

PI = math.pi

# edge index k (1..6) <-> the vertex pair whose cofactor signs l_k
# (the two vertices NOT on edge k; mirrors the library's convention)
EDGE_COMPLEMENT = {1: (3, 4), 2: (2, 4), 3: (1, 4),
                   4: (1, 2), 5: (1, 3), 6: (2, 3)}


def gram(theta):
    return sv.gram_from_angles(sv.AngleSixTuple(tuple(theta)))


def test_minkowski_dot():
    # Any two sequences of four numbers; the result is a Python float.
    a, b = (1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)
    for x, y in ((a, b), (list(a), np.array(b)), (np.array(a), b),
                 ((1, 2, 3, 4), (5, 6, 7, 8))):
        dot = sv.minkowski_dot(x, y)
        assert type(dot) is float and dot == 5 + 12 + 21 - 32
    for bad in ((1.0, 2.0), (1.0,) * 5, np.zeros(3)):
        for x, y in ((bad, b), (a, bad)):
            with pytest.raises(ValueError) as exc:
                sv.minkowski_dot(x, y)
            assert str(exc.value) == "Minkowski vectors have four components"


def test_coordinates_are_tuples_of_python_floats():
    for theta in ((PI / 6,) * 6, (PI / 3,) * 6,
                  (1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2)):
        t = sv.reconstruct(gram(theta))
        for rows in (t.normals, t.vertices):
            assert type(rows) is tuple and len(rows) == 4
            for row in rows:
                assert type(row) is tuple and len(row) == 4
                assert all(type(x) is float for x in row)


def test_reconstruct_equilateral_hyperideal():
    t = sv.reconstruct(gram((PI / 6,) * 6))
    assert all(v is sv.VertexType.HYPERIDEAL for v in t.vertex_types)
    assert t.case.label == "5a"
    for l in t.edge_lengths:
        assert l == pytest.approx(t.edge_lengths[0], rel=1e-12)
        assert l > 0


def test_reconstruct_zero_angles_is_fully_truncated():
    # all dihedral angles zero: cut planes pairwise tangent, all four
    # vertices hyperideal, every geometric edge of length zero
    t = sv.reconstruct(gram((0.0,) * 6))
    assert all(v is sv.VertexType.HYPERIDEAL for v in t.vertex_types)
    assert t.case.label == "5a"
    for l in t.edge_lengths:
        assert l == pytest.approx(0.0, abs=1e-6)


def test_reconstruct_regular_example():
    th = (1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2)
    t = sv.reconstruct(gram(th))
    assert all(v is sv.VertexType.REGULAR for v in t.vertex_types)
    assert t.case.label == "1c"
    expect = (0.775766, -0.775766, -0.775766, 0.775766, -0.775766, -0.775766)
    for got, exp in zip(t.edge_lengths, expect):
        assert got == pytest.approx(exp, abs=1e-6)


def test_reconstruct_rejects_wrong_signature():
    with pytest.raises(ValueError, match="not a generalized hyperbolic"):
        sv.reconstruct(gram((PI / 2,) * 6))


# One broken identity per check of tetra._check_reconstruction, on
# copies of its rows of normals u and vertices v as lists: a moved
# normal, vertex 0 reflected to the outer side of its face, vertex 0
# pushed off face plane 1, and vertex 0 rescaled off its norm.
_BREAKS = {
    "normal_gram": (lambda u, v: u[0].__setitem__(0, u[0][0] + 1e-3),
                    r"^normal Gram mismatch at \(0,0\): "),
    "inner_side": (lambda u, v: v.__setitem__(0, [-x for x in v[0]]),
                   r"^vertex 0 not on the inner side of its face$"),
    "face_plane": (lambda u, v: v.__setitem__(
                       0, [x + 1e-3 * y for x, y in zip(v[0], u[1])]),
                   r"^vertex 0 off face plane 1: <u,v>="),
    "vertex_norm": (lambda u, v: v.__setitem__(0, [1.01 * x for x in v[0]]),
                    r"^vertex 0 norm .* inconsistent with type VertexType\."),
}


@pytest.mark.parametrize("theta", [(PI / 6,) * 6,
                                   (1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2,
                                    PI - 1.2)], ids=["hyperideal", "regular"])
@pytest.mark.parametrize("kind", sorted(_BREAKS))
def test_check_reconstruction_failure_messages(theta, kind):
    from sixjvol.tetra import _check_reconstruction
    G = gram(theta)
    t = sv.reconstruct(G)
    args = (list(t.vertex_types), float(np.linalg.det(G.mat)))
    _check_reconstruction(G, t.normals, t.vertices, *args)
    u, v = [list(r) for r in t.normals], [list(r) for r in t.vertices]
    breaks, message = _BREAKS[kind]
    breaks(u, v)
    with pytest.raises(ArithmeticError, match=message):
        _check_reconstruction(G, u, v, *args)


def test_reconstruct_invariants_random(rng):
    for th in sample_theta31(rng, 40):
        G = gram(th)
        t = sv.reconstruct(G)
        # normals reproduce the Gram matrix
        for i in range(4):
            for j in range(4):
                dot = sv.minkowski_dot(t.normals[i], t.normals[j])
                assert dot == pytest.approx(G.mat[i, j], abs=1e-9)
        # outward-normal conditions
        for i in range(4):
            for j in range(4):
                dot = sv.minkowski_dot(t.normals[i], t.vertices[j])
                if i == j:
                    assert dot < 0
                else:
                    assert dot == pytest.approx(0.0, abs=1e-9)
        # vertex normalization matches the vertex type
        for i in range(4):
            sq = sv.minkowski_dot(t.vertices[i], t.vertices[i])
            if t.vertex_types[i] is sv.VertexType.REGULAR:
                assert sq == pytest.approx(-1.0, abs=1e-9)
            elif t.vertex_types[i] is sv.VertexType.HYPERIDEAL:
                assert sq == pytest.approx(1.0, abs=1e-9)
            else:
                assert sq == pytest.approx(0.0, abs=1e-9)
        # angles recovered from the normals
        back = angles_from_normals(t)
        assert np.allclose(back, th, atol=1e-9)


def test_vertex_inner_products_match_cofactors(rng):
    for th in sample_theta31(rng, 30):
        G = gram(th)
        t = sv.reconstruct(G)
        cof = sv.cofactor_matrix(G.mat)
        for i in range(4):
            for j in range(i + 1, 4):
                cii, cjj = cof[i, i], cof[j, j]
                if abs(cii) < 1e-9 or abs(cjj) < 1e-9:
                    continue
                dot = sv.minkowski_dot(t.vertices[i], t.vertices[j])
                expect = -cof[i, j] / math.sqrt(abs(cii * cjj))
                assert dot == pytest.approx(expect, abs=1e-9)


def test_jacobi_cofactor_identity(rng):
    # G_ij^2 - G_ii G_jj = (cos^2 theta_ij - 1) det G
    thetas = rng.uniform(0.0, PI, size=(60, 6))
    for th in thetas:
        G = gram(th)
        det = np.linalg.det(G.mat)
        cof = sv.cofactor_matrix(G.mat)
        for k, (i, j) in EDGE_COMPLEMENT.items():
            # the cofactor pair (i, j) sits opposite edge k, whose Gram
            # entry is -cos theta_k
            lhs = cof[i - 1, j - 1] ** 2 - cof[i - 1, i - 1] * cof[j - 1, j - 1]
            rhs = (math.cos(th[k - 1]) ** 2 - 1.0) * det
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_gauge_orthogonal_remix_preserves_all_inner_products(rng):
    for th in sample_theta31(rng, 10):
        t = sv.reconstruct(gram(th))
        q3, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        Q = np.block([[q3, np.zeros((3, 1))], [np.zeros((1, 3)), np.eye(1)]])
        remix = [Q @ np.array(v) for v in (*t.normals, *t.vertices)]
        orig = [*t.normals, *t.vertices]
        for a in range(8):
            for b in range(8):
                assert sv.minkowski_dot(remix[a], remix[b]) == pytest.approx(
                    sv.minkowski_dot(orig[a], orig[b]), abs=1e-9)


def test_vertex_type_examples():
    G = gram((0.0,) * 6)
    for i in range(1, 5):
        assert sv.vertex_type(G, i) is sv.VertexType.HYPERIDEAL
    G = gram((PI / 3,) * 6)
    for i in range(1, 5):
        assert sv.vertex_type(G, i) is sv.VertexType.IDEAL
    th = (1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2)
    G = gram(th)
    for i in range(1, 5):
        assert sv.vertex_type(G, i) is sv.VertexType.REGULAR


def test_distance_equilateral_and_errors():
    G = gram((PI / 6,) * 6)
    d0 = sv.distance(G, 1, 2)
    assert d0.kind is sv.DistanceKind.PLANE_PLANE
    assert not d0.ideal
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert sv.distance(G, i, j).d == pytest.approx(d0.d, rel=1e-12)
    with pytest.raises(ValueError, match="two distinct indices"):
        sv.distance(G, 2, 2)
    with pytest.raises(ValueError, match=r"index must be in 1\.\.4, got 0"):
        sv.distance(G, 0, 3)


def test_edge_distance_matches_distance(rng):
    # Random (3,1) samples plus ideal (pi/3) and all-hyperideal (pi/6)
    # vertices, so every kind and the ideal flag occur.
    for th in list(sample_theta31(rng, 20)) + [(PI / 3,) * 6, (PI / 6,) * 6]:
        G = gram(th)
        t = sv.reconstruct(G)
        for e in range(6):
            k, l = EDGE_COMPLEMENT[e + 1]
            assert t.edge_distance(e) == sv.distance(G, k, l)


def test_distance_ideal_endpoint_is_flagged_infinite():
    G = gram((PI / 3,) * 6)
    d = sv.distance(G, 1, 2)
    assert d.ideal and math.isinf(d.d)


def test_distance_round_trip_random(rng):
    for th in sample_theta31(rng, 60):
        G = gram(th)
        cof = sv.cofactor_matrix(G.mat)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                cii, cjj = cof[i - 1, i - 1], cof[j - 1, j - 1]
                cij = cof[i - 1, j - 1]
                if abs(cii) < 1e-6 or abs(cjj) < 1e-6:
                    continue
                ratio = abs(cij) / math.sqrt(abs(cii * cjj))
                d = sv.distance(G, i, j)
                if cii > 0 and cjj > 0:
                    assert d.kind is sv.DistanceKind.VERTEX_VERTEX
                    assert math.cosh(d.d) == pytest.approx(ratio, rel=1e-10)
                elif cii < 0 and cjj < 0:
                    assert d.kind is sv.DistanceKind.PLANE_PLANE
                    assert math.cosh(d.d) == pytest.approx(ratio, rel=1e-10)
                else:
                    assert d.kind is sv.DistanceKind.VERTEX_PLANE
                    assert math.sinh(d.d) == pytest.approx(ratio, rel=1e-10)


def test_edge_length_signs_follow_cofactors(rng):
    for th in sample_theta31(rng, 40):
        G = gram(th)
        cof = sv.cofactor_matrix(G.mat)
        try:
            lengths = sv.edge_length_tuple(G)
        except ValueError:
            continue  # a line missing the ball; out of scope
        for k in range(1, 7):
            i, j = EDGE_COMPLEMENT[k]
            c = cof[i - 1, j - 1]
            l = lengths[k - 1]
            if math.isinf(l):
                continue
            if c > 1e-9:
                assert l >= 0
            elif c < -1e-9:
                assert l <= 0
        for k in range(1, 7):
            # edge_length takes the two faces meeting at edge k: the
            # complement of the complementary vertex pair
            i, j = sorted({1, 2, 3, 4} - set(EDGE_COMPLEMENT[k]))
            assert sv.edge_length(G, i, j) == pytest.approx(
                lengths[k - 1], rel=1e-12)


# theta = (pi/12)(1, 4, 6, 4, 7, 6): admissible, signature (3,1), case
# 2c.  On edge 3 (faces 2 and 3) the mixed-pair cofactor cof_14 is
# +1.67e-16, inside DEFAULT_TOL of zero, so tol_sign reads 0 and the
# length l_3 = -4.71e-16 is negative, as a non-positive cofactor asks.
def test_length_at_a_near_zero_cofactor_is_negative():
    theta = sv.AngleSixTuple(tuple(PI / 12 * k for k in (1, 4, 6, 4, 7, 6)))
    al = sv.AlphaSixTuple.from_theta(theta, (-1,) * 6)
    assert sv.admissible(al)
    G = sv.gram_from_alpha(al)
    assert sv.signature(G).as_pair() == (3, 1)
    cof = sv.cofactor_matrix(G.mat)
    assert 0.0 < cof[0, 3] <= 1e-9
    assert cof[0, 0] > 1e-9 and cof[3, 3] < -1e-9  # a mixed pair
    t = sv.reconstruct(G)
    assert t.case.label == "2c"
    for length in (t.edge_lengths[2], sv.edge_length_tuple(G)[2],
                   sv.edge_length(G, 2, 3)):
        assert math.copysign(1.0, length) == -1.0


def test_case_label_examples():
    assert sv.case_label(gram((PI / 6,) * 6)).label == "5a"
    assert sv.case_label(gram((0.0,) * 6)).label == "5a"
    assert sv.case_label(gram((PI / 3,) * 6)).label == "1a"
    th = (1.2, PI - 1.2, PI - 1.2, 1.2, PI - 1.2, PI - 1.2)
    lab = sv.case_label(gram(th))
    assert lab.label == "1c"
    assert str(lab) == "1c"


def test_case_label_covers_random_samples(rng):
    seen = set()
    for th in sample_theta31(rng, 150):
        lab = sv.case_label(gram(th))
        assert lab.label[0] in "12345"
        assert lab.label[1] in "abcd"
        seen.add(lab.label)
    assert len(seen) >= 3


@pytest.mark.parametrize("theta, label, operations", [
    ((0.86, 1.81, 2.52, 0.84, 0.89, 2.58), "3a", (1, 2)),
    ((3.02, 1.26, 0.93, 2.65, 0.4, 2.3), "5b", (1, 3)),
    ((0.64, 0.83, 2.35, 0.88, 1.52, 3.07), "2c", (4,)),
])
def test_case_label_needs_a_move(theta, label, operations):
    lab = sv.case_label(gram(theta))
    assert (lab.label, lab.operations) == (label, operations)


def test_case_of_signs_digest():
    """Every sign pattern (four diagonal signs outer, six off-diagonal
    signs inner, in _PAIRS order) keeps its case and operations, or its
    refusal: sha256 over the repr of each (label, operations), or None."""
    assert tetra._PAIRS == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    h = hashlib.sha256()
    refused = 0
    for diag in itertools.product((-1, 0, 1), repeat=4):
        for off in itertools.product((-1, 0, 1), repeat=6):
            case = tetra._case_of_signs(diag, off)
            if case is None:
                refused += 1
                h.update(repr(None).encode())
            else:
                h.update(repr((case.label, case.operations)).encode())
    assert refused == 50089
    assert h.hexdigest() == ("34133b0fbc6ebdae9fcd71ac36ce368c"
                             "c63da5e199db001e4d351a4e5b608457")


def test_case_label_refusal_names_the_pattern():
    # a (3,1) tuple with an ideal vertex 2 and three hyperideal ones
    # whose bad pairs have no letter under any move
    th = (0.0, 0.0, 0.0, PI / 6, PI / 4, 5 * PI / 6)
    assert sv.signature(gram(th)).as_pair() == (3, 1)
    msg = ("unclassified pattern: diag=[-1, 0, -1, -1] off={(0, 1): 1, "
           "(0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 0, (2, 3): -1}")
    with pytest.raises(ValueError) as exc:
        sv.case_label(gram(th))
    assert str(exc.value) == msg


def test_segment_side():
    G = gram((PI / 6,) * 6)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert sv.segment_side(G, i, j) is sv.SegmentSide.SEGMENT_MEETS
            assert sv.segment_side(G, j, i) is sv.segment_side(G, i, j)
    # regression: a pair whose dual-line intersection lies on the
    # complement side
    th = (0.403915, 1.568528, 1.889663, 0.090129, 0.464724, 2.916061)
    G2 = gram(th)
    assert sv.segment_side(G2, 1, 2) is sv.SegmentSide.COMPLEMENT_MEETS
    with pytest.raises(ValueError, match="hyperideal endpoints"):
        sv.segment_side(gram((PI / 3,) * 6), 1, 2)


def test_segment_side_deep_truncation_rejected():
    # a line that misses the ball needs cof_ii cof_jj > cof_ij^2, which
    # Jacobi's identity rules out at signature (3,1); this tuple has
    # signature (2,2) and is refused as such
    th = (2.1154302348219067, 0.6352803873370101, 2.8319292545242996,
          0.6821913702458734, 0.10390719488470904, 0.6307342714617925)
    with pytest.raises(ValueError) as exc:
        sv.segment_side(gram(th), 1, 2)
    assert str(exc.value) == ("not a generalized hyperbolic tetrahedron: "
                              "signature (2, 2, 0)")


def test_every_tetra_question_refuses_a_spherical_gram_matrix():
    # pi/2 x6 gives the identity up to rounding, signature (4,0,0): all
    # seven questions refuse it with the one message of `tetra._cofactors`
    G = gram((PI / 2,) * 6)
    assert np.allclose(G.mat, np.eye(4), rtol=0.0, atol=1e-15)
    questions = [sv.reconstruct, sv.case_label, sv.edge_length_tuple,
                 lambda G: sv.vertex_type(G, 1),
                 lambda G: sv.distance(G, 1, 2),
                 lambda G: sv.edge_length(G, 1, 2),
                 lambda G: sv.segment_side(G, 1, 2)]
    for question in questions:
        with pytest.raises(ValueError) as exc:
            question(G)
        assert str(exc.value) == ("not a generalized hyperbolic "
                                  "tetrahedron: signature (4, 0, 0)")


# reconstruct takes the ten cofactor signs once and derives the vertex
# types, the signed lengths and the case from them; the scalar functions
# read the cofactors on their own.  Both must agree exactly, a length's
# sign of zero included (floats compare by repr), and a matrix that
# reconstruct refuses must fail first where the scalar functions do:
# the lengths before the case.  Gram matrices of angles never fail
# there, so the refusals come from symmetric unit-diagonal matrices with
# entries up to 2.5 in size; the first of these has both an arccosh
# argument below 1 and a sign pattern with no case.
def test_reconstruct_fields_are_the_scalar_functions():
    from sixjvol.gram import EDGE_TO_FACEPAIR
    rng = np.random.default_rng(11)
    rows = sv.sample_hyperbolic_alpha(400, rng)
    grams = [sv.gram_from_alpha(sv.AlphaSixTuple.from_alpha(r)) for r in rows]
    grams += [gram((PI / 3,) * 6), gram((0.0,) * 6)]
    both = [(-0.682, 0.457, -0.308, 0.591, -0.772, 2.335)]
    for entries in both + list(rng.uniform(-2.5, 2.5, size=(200, 6))):
        m = np.eye(4)
        for (i, j), x in zip(EDGE_TO_FACEPAIR, entries):
            m[i, j] = m[j, i] = x
        G = sv.GramMatrix(m)
        if sv.signature(G).as_pair() == (3, 1):
            grams.append(G)
    built = refused = 0
    for G in grams:
        try:
            t = sv.reconstruct(G)
        except ValueError as exc:
            refused += 1
            with pytest.raises(ValueError) as first:
                sv.edge_length_tuple(G)
                sv.case_label(G)
            assert str(first.value) == str(exc)
            continue
        built += 1
        lengths = [repr(x) for x in t.edge_lengths]
        assert lengths == [repr(x) for x in sv.edge_length_tuple(G)]
        assert lengths == [repr(sv.edge_length(G, i + 1, j + 1))
                           for i, j in EDGE_TO_FACEPAIR]
        assert t.case == sv.case_label(G)
        assert t.vertex_types == tuple(sv.vertex_type(G, i)
                                       for i in range(1, 5))
    assert built > 300 and refused > 0
    flat = sv.reconstruct(gram((0.0,) * 6))
    assert [repr(x) for x in flat.edge_lengths] == ["0.0"] * 6


def test_index_arguments_follow_the_colour_rule():
    # A 1-based index is taken as an int when it is an int, a numpy
    # integer or an integral float; anything else is a TypeError, never
    # truncated.  The range check and its message come after, both from
    # `qnum._one_based`.
    G = gram((PI / 6,) * 6)
    theta = sv.AngleSixTuple((PI / 6,) * 6)
    colors = sv.tuple_of((2, 4, 4, 2, 4, 4), 31)
    pair = "index must be in 1..4, got {}"
    cof = "cofactor index must be in 1..4, got {}"
    vertex = "vertex index must be in 1..4, got {}"
    calls = [
        (lambda i: sv.edge_length(G, i, 2), pair),
        (lambda i: sv.edge_length(G, 2, i), pair),
        (lambda i: sv.distance(G, i, 2), pair),
        (lambda i: sv.distance(G, 2, i), pair),
        (lambda i: sv.segment_side(G, i, 2), pair),
        (lambda i: sv.segment_side(G, 2, i), pair),
        (lambda i: sv.cofactor(G, i, 2), cof),
        (lambda i: sv.cofactor(G, 2, i), cof),
        (lambda i: sv.vertex_type(G, i), vertex),
        (lambda i: sv.change_angles_opposite_vertex(theta, i).theta, vertex),
        (lambda i: sv.change_colors_face(colors, i).colors,
         "face must be in 1..4, got {}"),
        (lambda i: sv.change_colors_quad(colors, i).colors,
         "quad must be in 1..3, got {}"),
    ]
    for call, message in calls:
        want = call(1)
        assert call(1.0) == want and call(np.int64(1)) == want
        assert call(np.float64(1.0)) == want
        for bad in (1.5, "1", float("nan")):
            with pytest.raises(TypeError) as exc:
                call(bad)
            assert str(exc.value) == f"index must be an integer, got {bad!r}"
        for out in (0, 5):
            with pytest.raises(ValueError) as exc:
                call(out)
            assert str(exc.value) == message.format(out)
