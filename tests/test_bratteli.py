import gc

import pytest

from tbh.bratteli import (
    build_diagram,
    dimension_vector,
    export,
    from_json,
    paths_to,
    to_dot,
)
from tbh.errors import VertexNotFound
from tbh import partitions
from tbh.params import HeckeParams
from tbh.partitions import (
    Tableau,
    add_box_set,
    content,
    enum_Pk,
    gamma_rect,
    parents,
    tableaux_to,
    weyl_dim,
)

from reference import box, carrier_dimension


def test_level_sizes_1111():
    diagram = build_diagram(HeckeParams(1, 1, 1, 1, 1))
    assert [len(level) for level in diagram.levels] == [1, 2, 3]


def test_figure_level_sizes_and_labels_4242():
    # One vertex, the six base shapes, then their eighteen one-box
    # extensions of which twelve have a unique lower neighbor.
    params = HeckeParams(4, 2, 4, 2, 1)
    diagram = build_diagram(params)
    assert [len(level) for level in diagram.levels] == [1, 6, 18]
    first_labels = {label for _, _, label in diagram.edges[0]}
    assert first_labels == {16, 8, 2, -2, -8, -16}
    a, p = 4, 4
    assert first_labels == {
        4 * a,
        3 * a - p,
        2 * (a - p + 1),
        2 * (a - p - 1),
        a - 3 * p,
        -4 * p,
    }
    one_parent = sum(
        1 for mu in diagram.levels[2] if len(parents(mu, params)) == 1
    )
    assert one_parent == 12


def test_first_vertex_outgoing_labels_follow_gamma_recursion():
    # Lexicographically first level-1 vertex of the b=q=2 family has
    # outgoing content labels {a+2, a-2, -p}.
    for a, p in [(4, 4), (3, 4), (5, 3)]:
        params = HeckeParams(a, 2, p, 2, 1)
        diagram = build_diagram(params)
        first = diagram.levels[1][0]
        labels = {
            label for si, _, label in diagram.edges[1] if diagram.levels[1][si] == first
        }
        assert labels == {a + 2, a - 2, -p}


def test_edge_label_coherence_and_multiplicity_free():
    params = HeckeParams(2, 2, 2, 1, 2)
    diagram = build_diagram(params)
    seen = set()
    for si, di, label in diagram.edges[0]:
        assert label == gamma_rect(diagram.levels[1][di], params)
    for rank in range(1, diagram.num_ranks - 1):
        for si, di, label in diagram.edges[rank]:
            src = diagram.levels[rank][si]
            dst = diagram.levels[rank + 1][di]
            assert (rank, si, di) not in seen
            seen.add((rank, si, di))
            added = [
                (r + 1, dst[r])
                for r in range(len(dst))
                if dst[r] != (src[r] if r < len(src) else 0)
            ]
            assert len(added) == 1
            assert label == content(*added[0]) and type(label) is int


def test_paths_examples():
    params = HeckeParams(1, 1, 1, 1, 1)
    diagram = build_diagram(params)
    basis = paths_to(diagram, (2, 1), 2)
    assert [t.shapes for t in basis.paths] == [((2,), (2, 1)), ((1, 1), (2, 1))]
    assert len(paths_to(diagram, (3,), 2).paths) == 1
    for lam in diagram.levels[1]:
        assert len(paths_to(diagram, lam, 1).paths) == 1
    with pytest.raises(VertexNotFound):
        paths_to(diagram, (5,), 2)


def test_paths_and_box_partitions_leave_no_garbage_cycles():
    # A recursive closure is a reference cycle that keeps its memo alive
    # until a cyclic collection; neither enumeration may build one.
    params = HeckeParams(2, 2, 2, 2, 5)
    diagram = build_diagram(params)
    lam = max(diagram.levels[-1], key=lambda mu: dimension_vector(diagram, 6)[mu])
    calls = [
        lambda: paths_to(diagram, lam, 6),
        lambda: partitions._partitions_in_box(3, 4),
    ]
    for call in calls:
        gc.collect()
        gc.disable()
        try:
            assert call()
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_paths_agree_with_tableau_enumeration():
    params = HeckeParams(2, 2, 2, 2, 2)
    diagram = build_diagram(params)
    for lam in diagram.levels[3]:
        via_diagram = [t.shapes for t in paths_to(diagram, lam, 3).paths]
        via_tableaux = [t.shapes for t in tableaux_to(lam, 2, params)]
        assert via_diagram == via_tableaux


def test_dimension_vector_examples():
    params = HeckeParams(1, 1, 1, 1, 2)
    diagram = build_diagram(params)
    assert dimension_vector(diagram, 2) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    assert all(v == 1 for v in dimension_vector(diagram, 1).values())


def test_dimension_recurrence():
    params = HeckeParams(2, 1, 1, 1, 3)
    diagram = build_diagram(params)
    for rank in range(1, diagram.num_ranks - 1):
        lower = dimension_vector(diagram, rank)
        upper = dimension_vector(diagram, rank + 1)
        for mu, cnt in upper.items():
            total = sum(
                lower[diagram.levels[rank][si]]
                for si, di, _ in diagram.edges[rank]
                if diagram.levels[rank + 1][di] == mu
            )
            assert total == cnt


def test_weyl_dimension_sum_identity():
    # sum over shapes of path count x weyl dim = n^k x dim M x dim N
    for abpq, k in [((1, 1, 1, 1), 2), ((2, 1, 1, 1), 2), ((2, 2, 2, 1), 1)]:
        params = HeckeParams(*abpq, k)
        n = params.p + params.q + k
        diagram = build_diagram(params)
        expected = (
            n**k
            * weyl_dim((params.a,) * params.p, n)
            * weyl_dim((params.b,) * params.q, n)
        )
        assert carrier_dimension(diagram, diagram.num_ranks - 1, n) == expected


def test_height_truncation():
    params = HeckeParams(1, 1, 1, 1, 1)
    diagram = build_diagram(params, max_height=2)
    assert diagram.levels[2] == ((3,), (2, 1))


@pytest.mark.parametrize("max_height", [None, 2, 3])
def test_levels_and_edges_match_one_box_additions(max_height):
    params = HeckeParams(2, 1, 2, 1, 3)
    diagram = build_diagram(params, max_height=max_height)
    for i in range(params.k + 1):
        assert set(diagram.levels[i + 1]) == enum_Pk(params, i, max_height)
    for rank in range(1, diagram.num_ranks - 1):
        src, dst = diagram.levels[rank], diagram.levels[rank + 1]
        got = [(src[si], dst[di], label) for si, di, label in diagram.edges[rank]]
        want = {
            (lam, mu, content(*box(Tableau((lam, mu)), 1)))
            for lam in src
            for mu in add_box_set(lam, max_height)
        }
        assert len(got) == len(want) and set(got) == want


def test_json_round_trip():
    # Content labels are stored as ints and read back as Fractions; both
    # compare equal, so the diagram round-trips.
    diagram = build_diagram(HeckeParams(1, 1, 1, 1, 3))
    again = from_json(export(diagram, "json"))
    assert again == diagram


def test_json_golden():
    # Frozen after first run; guards serialization schema drift.
    import json

    doc = json.loads(export(build_diagram(HeckeParams(1, 1, 1, 1, 1)), "json"))
    assert doc["params"] == {"a": 1, "b": 1, "p": 1, "q": 1, "k": 1}
    assert doc["levels"] == [[[1]], [[2], [1, 1]], [[3], [2, 1], [1, 1, 1]]]
    assert doc["edges"][0] == [
        {"src": 0, "dst": 0, "label": "1/1"},
        {"src": 0, "dst": 1, "label": "-1/1"},
    ]
    assert doc["edges"][1] == [
        {"src": 0, "dst": 0, "label": "2/1"},
        {"src": 0, "dst": 1, "label": "-1/1"},
        {"src": 1, "dst": 1, "label": "1/1"},
        {"src": 1, "dst": 2, "label": "-2/1"},
    ]


def test_dot_output_shape():
    params = HeckeParams(1, 1, 1, 1, 0)
    dot = to_dot(build_diagram(params)).decode()
    assert dot.startswith("digraph bratteli {")
    assert dot.count("subgraph") == 2  # a k=0 diagram has two ranks
    assert dot.count("->") == 2  # one edge per base shape
    assert 'label="1/1"' in dot


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export(build_diagram(HeckeParams(1, 1, 1, 1, 0)), "xml")
