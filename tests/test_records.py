"""The contract of the immutable input and geometry records: how they
are built, what they refuse, how they compare, print and pickle."""

import math
import pickle

import numpy as np
import pytest

import sixjvol as sv

PI = math.pi
THETA = (PI / 6, PI / 5, PI / 4, PI / 6, PI / 5, PI / 4)


def records():
    """One instance of each record, built positionally as the package
    and its benchmark build them, with the names of its fields."""
    theta = sv.AngleSixTuple(THETA)
    alpha = sv.AlphaSixTuple.from_theta(theta, (-1,) * 6)
    G = sv.gram_from_angles(theta)
    tet = sv.reconstruct(G)
    return [
        (theta, ("theta",)),
        (alpha, ("alpha", "mu")),
        (G, ("mat",)),
        (tet, ("gram", "normals", "vertices", "vertex_types",
               "edge_lengths", "case")),
        (sv.GrowthPlan(alpha, (101, 103, 105)), ("alpha", "r_list")),
        (sv.prism_graph(), ("n_edges", "tet_decomposition")),
        (sv.PrismSpec((0.3, 0.4, 0.2), (0.5, 0.9, 0.7), (1.1, 0.6, 0.8)),
         ("vertical", "base_b", "base_c")),
    ]


def test_records_refuse_assignment_and_deletion():
    for rec, fields in records():
        for name in fields + ("not_a_field",):
            value = getattr(rec, name, None)
            with pytest.raises(AttributeError):
                setattr(rec, name, value)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        for name in fields:
            getattr(rec, name)  # still there


def test_records_build_by_keyword_like_positionally():
    theta = sv.AngleSixTuple(theta=THETA)
    assert theta.theta == tuple(THETA)
    alpha = sv.AlphaSixTuple(alpha=(PI,) * 6, mu=(1,) * 6)
    assert sv.GramMatrix(mat=np.eye(4)).mat.tolist() == np.eye(4).tolist()
    plan = sv.GrowthPlan(alpha=alpha, r_list=[101, 103])
    assert plan == sv.GrowthPlan(alpha, (101, 103))
    assert plan.r_list == (101, 103)
    spec = sv.PrismSpec(vertical=[0.3, 0.4, 0.2], base_b=(0.5, 0.9, 0.7),
                        base_c=(1.1, 0.6, 0.8))
    assert spec == sv.PrismSpec((0.3, 0.4, 0.2), (0.5, 0.9, 0.7),
                                (1.1, 0.6, 0.8))
    assert spec.vertical == (0.3, 0.4, 0.2)
    g = sv.BlowUpGraph(n_edges=6, tet_decomposition=((0, 1, 2, 3, 4, 5),))
    assert g == sv.BlowUpGraph(6, ((0, 1, 2, 3, 4, 5),))
    tet = sv.reconstruct(sv.gram_from_angles(theta))
    again = sv.GeneralizedTetrahedron(
        gram=tet.gram, normals=tet.normals, vertices=tet.vertices,
        vertex_types=tet.vertex_types, edge_lengths=tet.edge_lengths,
        case=tet.case)
    assert again.edge_distance(0) == tet.edge_distance(0)


def test_records_store_converted_fields():
    theta = sv.AngleSixTuple([0, 1, 0, 1, 0, 1])
    assert theta.theta == (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    assert all(type(x) is float for x in theta.theta)
    G = sv.GramMatrix(np.eye(4, dtype=int))
    assert G.mat.dtype == np.float64
    plan = sv.GrowthPlan(sv.AlphaSixTuple((PI,) * 6, (1,) * 6),
                         np.array([101, 103]))
    assert plan.r_list == (101, 103)
    assert all(type(r) is int for r in plan.r_list)
    spec = sv.PrismSpec([0, 0, 0], [1, 1, 1], np.array([1, 1, 1]))
    assert spec.base_c == (1.0, 1.0, 1.0)
    assert all(type(x) is float for x in spec.vertical + spec.base_c)
    g = sv.BlowUpGraph(2, [[0, 1, 0, 0, 1, 1], (0, 1, 0, 0, 1, 1)])
    assert g.tet_decomposition == ((0, 1, 0, 0, 1, 1),) * 2


def refusal(build):
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


def test_record_validation_messages_and_order():
    al = sv.AlphaSixTuple((PI,) * 6, (1,) * 6)
    nan_3x3 = np.full((3, 3), np.nan)
    asym = np.eye(4)
    asym[0, 1] = 0.5
    cases = [
        (lambda: sv.AngleSixTuple((4.0,) * 5), "need exactly six angles"),
        (lambda: sv.AngleSixTuple((0.0, 0, 0, 0, 0, 4.0)),
         "dihedral angle 4.0 outside [0, pi]"),
        (lambda: sv.AlphaSixTuple((7.0,) * 5, (1,) * 6),
         "need exactly six angles"),
        (lambda: sv.AlphaSixTuple((7.0,) * 6, (0,) * 6),
         "limit angle 7.0 outside [0, 2*pi]"),
        (lambda: sv.AlphaSixTuple((PI,) * 6, (0,) * 6),
         "branch signs must be six values in {-1,+1}"),
        (lambda: sv.GramMatrix(nan_3x3),
         "Gram matrix must be 4x4, got (3, 3)"),
        (lambda: sv.GramMatrix(np.full((4, 4), np.inf)),
         "Gram matrix entries must be finite"),
        (lambda: sv.GramMatrix(asym), "Gram matrix must be symmetric"),
        (lambda: sv.GramMatrix(2 * np.eye(4)),
         "Gram matrix must have unit diagonal"),
        (lambda: sv.GrowthPlan(al, (8, 6)),
         "levels must be odd integers >= 5, got 8"),
        (lambda: sv.GrowthPlan(al, (3, 101)),
         "levels must be odd integers >= 5, got 3"),
        (lambda: sv.GrowthPlan(al, (103, 101)),
         "levels must be strictly increasing"),
        (lambda: sv.PrismSpec((PI,) * 2, (0.3,) * 3, (0.3,) * 3),
         "vertical needs exactly three angles"),
        (lambda: sv.PrismSpec((PI,) * 3, (0.3,) * 2, (0.3,) * 3),
         "base_b needs exactly three angles"),
        (lambda: sv.PrismSpec((PI,) * 3, (0.3,) * 3, (0.3,) * 4),
         "base_c needs exactly three angles"),
        (lambda: sv.PrismSpec((PI / 2,) * 3, (0.3,) * 3, (0.3,) * 3),
         "apex not hyperideal: vertical angles must sum below pi"),
    ]
    for build, message in cases:
        assert refusal(build) == message


def test_record_equality_and_hashing():
    by_type = {type(rec): rec for rec, _ in records()}
    # Equal only to themselves, hashable by identity: never compared
    # field by field, so the ndarray fields are never asked for a truth
    # value.
    for cls in (sv.AngleSixTuple, sv.AlphaSixTuple, sv.GramMatrix):
        rec = by_type[cls]
        twin = pickle.loads(pickle.dumps(rec))
        assert rec == rec and rec != twin and not rec == twin
        assert {rec: 1}[rec] == 1 and twin not in {rec}
    # The tetrahedron compares and hashes by value, its Gram matrix by
    # identity: a second reconstruction of one GramMatrix is equal to
    # the first, one of an equal copy of that matrix is not.
    tet = by_type[sv.GeneralizedTetrahedron]
    again = sv.reconstruct(tet.gram)
    assert tet == again and hash(tet) == hash(again) and tet is not again
    assert len({tet, again}) == 1
    copy = sv.reconstruct(pickle.loads(pickle.dumps(tet.gram)))
    assert copy.normals == tet.normals and copy.vertices == tet.vertices
    assert copy != tet

    # Field equality and hashing.
    alpha = by_type[sv.AlphaSixTuple]
    plan = sv.GrowthPlan(alpha, (101, 103, 105))
    assert plan == by_type[sv.GrowthPlan]
    assert hash(plan) == hash(by_type[sv.GrowthPlan])
    assert plan != sv.GrowthPlan(alpha, (101, 103))
    other_alpha = sv.AlphaSixTuple(alpha.alpha, alpha.mu)
    assert plan != sv.GrowthPlan(other_alpha, (101, 103, 105))
    spec = by_type[sv.PrismSpec]
    twin = sv.PrismSpec(spec.vertical, spec.base_b, list(spec.base_c))
    assert spec == twin and hash(spec) == hash(twin) and spec is not twin
    assert len({spec, twin}) == 1
    assert spec != sv.PrismSpec(spec.vertical, spec.base_c, spec.base_b)

    graph = by_type[sv.BlowUpGraph]
    twin = sv.BlowUpGraph(9, [[0, 1, 2, 3, 4, 5], [0, 1, 2, 6, 7, 8]])
    assert graph == twin and hash(graph) == hash(twin)
    assert len({graph, twin}) == 1
    assert graph != sv.BlowUpGraph(9, ((0, 1, 2, 6, 7, 8),
                                       (0, 1, 2, 3, 4, 5)))
    assert graph != sv.BlowUpGraph(10, graph.tet_decomposition)


def test_record_reprs():
    by_type = {type(rec): rec for rec, _ in records()}
    theta = by_type[sv.AngleSixTuple]
    assert repr(theta) == f"AngleSixTuple(theta={tuple(THETA)!r})"
    alpha = by_type[sv.AlphaSixTuple]
    assert repr(alpha) == (f"AlphaSixTuple(alpha={alpha.alpha!r}, "
                           f"mu={alpha.mu!r})")
    G = by_type[sv.GramMatrix]
    assert repr(G) == f"GramMatrix(mat={G.mat!r})"
    tet = by_type[sv.GeneralizedTetrahedron]
    assert repr(tet) == (
        f"GeneralizedTetrahedron(gram={tet.gram!r}, "
        f"normals={tet.normals!r}, vertices={tet.vertices!r}, "
        f"vertex_types={tet.vertex_types!r}, "
        f"edge_lengths={tet.edge_lengths!r}, case={tet.case!r})")
    plan = by_type[sv.GrowthPlan]
    assert repr(plan) == f"GrowthPlan(alpha={alpha!r}, r_list=(101, 103, 105))"
    assert repr(by_type[sv.BlowUpGraph]) == (
        "BlowUpGraph(n_edges=9, "
        "tet_decomposition=((0, 1, 2, 3, 4, 5), (0, 1, 2, 6, 7, 8)))")
    assert repr(by_type[sv.PrismSpec]) == (
        "PrismSpec(vertical=(0.3, 0.4, 0.2), base_b=(0.5, 0.9, 0.7), "
        "base_c=(1.1, 0.6, 0.8))")


def test_records_pickle_round_trip():
    for rec, fields in records():
        copy = pickle.loads(pickle.dumps(rec))
        assert type(copy) is type(rec) and copy is not rec
        assert repr(copy) == repr(rec)
        if isinstance(rec, (sv.PrismSpec, sv.BlowUpGraph)):
            assert copy == rec
        if isinstance(rec, sv.GrowthPlan):  # a new alpha, equal only to itself
            assert copy.alpha.alpha == rec.alpha.alpha
            assert copy.alpha.mu is rec.alpha.mu
            assert copy.r_list == rec.r_list
    G = sv.gram_from_angles(sv.AngleSixTuple(THETA))
    G = pickle.loads(pickle.dumps(G))
    tet = pickle.loads(pickle.dumps(sv.reconstruct(G)))
    assert np.array_equal(tet.gram.mat, G.mat)
    want = sv.reconstruct(G)
    assert tet.normals == want.normals and tet.vertices == want.vertices
    assert tet.edge_lengths == want.edge_lengths and tet.case == want.case
