import random

import pytest

import covertnet

from covertnet import (
    FileFormatError,
    GraphError,
    LabeledGraph,
    Role,
    SpectralBisection,
    connected_components,
    crossing_subgraph,
    dump_edge_list,
    dump_roles,
    induced_subgraph,
    largest_connected_component,
    load_edge_list,
    load_roles,
    reference_network,
    remove_nodes,
)

from util import gnp_graph, path_graph


def test_basic_construction():
    g = LabeledGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert g.nodes == ("a", "b", "c")
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.has_node("a") and not g.has_node("z")
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert g.neighbors("b") == frozenset({"a", "c"})
    assert g.degree("b") == 2
    assert g.edges() == [("a", "b"), ("b", "c")]


def test_nodes_keep_insertion_order():
    g = LabeledGraph(["z", "a", "m"])
    assert g.nodes == ("z", "a", "m")


def test_edges_are_sorted_pairs():
    g = LabeledGraph(["c", "a", "b"], [("c", "a"), ("c", "b")])
    assert g.edges() == [("a", "c"), ("b", "c")]


def test_construction_rejections():
    with pytest.raises(GraphError):
        LabeledGraph(["a", "a"])
    with pytest.raises(GraphError):
        LabeledGraph(["a"], [("a", "a")])
    with pytest.raises(GraphError):
        LabeledGraph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(GraphError):
        LabeledGraph(["a"], [("a", "b")])
    with pytest.raises(GraphError):
        LabeledGraph([""])
    with pytest.raises(GraphError):
        LabeledGraph(["has space"])
    with pytest.raises(GraphError):
        LabeledGraph(["has,comma"])
    with pytest.raises(GraphError):
        LabeledGraph(["#hash"])
    with pytest.raises(GraphError):
        LabeledGraph([42])


def test_neighbors_of_unknown_node():
    g = LabeledGraph(["a"])
    with pytest.raises(GraphError):
        g.neighbors("b")


def test_graph_is_a_value():
    g1 = LabeledGraph(["a", "b"], [("a", "b")])
    g2 = LabeledGraph(["b", "a"], [("b", "a")])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    g3 = g1.with_roles({"a": Role.GUIDE})
    assert g3 != g1
    assert g3.role("a") is Role.GUIDE
    assert g1.role("a") is None  # original untouched


def test_roles_mapping_is_readonly():
    g = LabeledGraph(["a"], roles={"a": Role.EXPLOITER})
    with pytest.raises(TypeError):
        g.roles["a"] = Role.GUIDE


def test_role_validation():
    with pytest.raises(GraphError):
        LabeledGraph(["a"], roles={"b": Role.GUIDE})
    with pytest.raises(GraphError):
        LabeledGraph(["a"], roles={"a": "Guide"})
    g = LabeledGraph(["a"])
    with pytest.raises(GraphError):
        g.role("b")


def test_load_edge_list_happy_path():
    text = """
    # roster
    a b
    b c   # inline comment
    loner

    c d
    """
    g = load_edge_list(text)
    assert g.nodes == ("a", "b", "c", "loner", "d")
    assert g.edge_count == 3
    assert g.degree("loner") == 0


def test_load_edge_list_errors_carry_line_numbers():
    with pytest.raises(FileFormatError, match="line 2"):
        load_edge_list("a b\na a")
    with pytest.raises(FileFormatError, match="line 3"):
        load_edge_list("a b\n\nb a")
    with pytest.raises(FileFormatError, match="line 1"):
        load_edge_list("a b c")
    with pytest.raises(FileFormatError, match="line 2"):
        load_edge_list("a b\nx y,z")


def test_load_edge_list_reports_a_bad_label_at_its_first_mention():
    # labels are checked once, on first sight; good labels seen before
    # the bad one, and mentioned again, do not move the reported line
    text = "a b\nb c\n\nc a\na d,e\nd,e b\n"
    with pytest.raises(FileFormatError) as err:
        load_edge_list(text)
    assert str(err.value) == (
        "line 5: label 'd,e' contains whitespace, a comma, or starts with '#'"
    )


def test_edge_list_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        g = gnp_graph(rng, rng.randrange(1, 15), 0.3)
        again = load_edge_list(dump_edge_list(g))
        assert again == g
    assert load_edge_list(dump_edge_list(LabeledGraph())) == LabeledGraph()


def test_dump_edge_list_lists_isolated_nodes_first():
    g = LabeledGraph(["b", "solo", "a"], [("b", "a")])
    assert dump_edge_list(g) == "solo\na b\n"


def test_roles_round_trip():
    g = LabeledGraph(["a", "b"], [("a", "b")])
    tagged = load_roles("a,Exploiter\nb,Guide\n", g)
    assert tagged.role("a") is Role.EXPLOITER
    assert load_roles(dump_roles(tagged), g) == tagged


def test_load_roles_errors():
    g = LabeledGraph(["a", "b"])
    with pytest.raises(FileFormatError, match="line 1"):
        load_roles("z,Guide", g)
    with pytest.raises(FileFormatError, match="line 1"):
        load_roles("a,NotARole", g)
    with pytest.raises(FileFormatError, match="line 2"):
        load_roles("a,Guide\na,Exploiter", g)
    with pytest.raises(FileFormatError, match="line 1"):
        load_roles("just-one-field", g)


def test_induced_subgraph():
    g = LabeledGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    sub = induced_subgraph(g, ["a", "c"])
    assert sub.nodes == ("a", "c")
    assert sub.edges() == [("a", "c")]
    with pytest.raises(GraphError):
        induced_subgraph(g, ["nope"])


def test_remove_nodes_drops_incident_edges():
    g = LabeledGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    h = remove_nodes(g, ["b"])
    assert h.nodes == ("a", "c")
    assert h.edge_count == 0
    with pytest.raises(GraphError):
        remove_nodes(g, ["nope"])


def test_remove_nodes_keeps_roles():
    g = LabeledGraph(["a", "b"], roles={"a": Role.GUIDE, "b": Role.EXPLOITER})
    assert remove_nodes(g, ["b"]).role("a") is Role.GUIDE


def test_connected_components_ordering():
    g = LabeledGraph(
        ["x", "y", "a", "b", "q"],
        [("x", "y"), ("a", "b")],
    )
    comps = connected_components(g)
    # equal-size components tie-break on smallest member label
    assert comps == [frozenset({"a", "b"}), frozenset({"x", "y"}), frozenset({"q"})]
    assert largest_connected_component(g) == frozenset({"a", "b"})


def test_largest_component_of_empty_graph():
    assert largest_connected_component(LabeledGraph()) == frozenset()


def test_components_partition_random_graphs():
    rng = random.Random(5)
    for _ in range(30):
        g = gnp_graph(rng, rng.randrange(2, 25), 0.08)
        comps = connected_components(g)
        seen = [v for comp in comps for v in comp]
        assert sorted(seen) == sorted(g.nodes)
        assert len(seen) == len(set(seen))
        for u, v in g.edges():
            homes = [c for c in comps if u in c]
            assert len(homes) == 1 and v in homes[0]


def test_path_is_connected():
    g = path_graph(6)
    assert len(connected_components(g)) == 1


def test_every_exported_name_resolves():
    for name in covertnet.__all__:
        assert hasattr(covertnet, name), name


def _assert_built_as(g, nodes, edges, roles=None):
    # a graph built on the trusted path must equal the graph the public
    # constructor builds, with every check, from the same nodes and edges
    rebuilt = LabeledGraph(nodes, edges, roles)
    assert g == rebuilt
    assert g.nodes == rebuilt.nodes == tuple(nodes)
    assert g.edge_count == rebuilt.edge_count == len(edges)
    assert g.edges() == rebuilt.edges()


def _trusted_path_inputs(rng):
    yield reference_network()
    yield LabeledGraph()
    yield LabeledGraph(["solo"], roles={"solo": Role.GUIDE})
    for _ in range(100):
        # low densities leave isolated nodes
        g = gnp_graph(rng, rng.randrange(2, 30), rng.uniform(0.0, 0.4))
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        roles = {v: rng.choice(list(Role)) for v in nodes if rng.random() < 0.3}
        yield LabeledGraph(nodes, g.edges(), roles)


def _subset(rng, g):
    return {v for v in g.nodes if rng.random() < 0.6}


def test_derived_graphs_equal_a_checked_rebuild():
    rng = random.Random(12)
    for g in _trusted_path_inputs(rng):
        _assert_built_as(g, g.nodes, g.edges(), g.roles)
        lines = [v for v in g.nodes if g.degree(v) == 0]
        lines += [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in g.edges()]
        rng.shuffle(lines)
        mentions = dict.fromkeys(v for line in lines for v in line.split())
        _assert_built_as(load_edge_list("\n".join(lines)), mentions, g.edges())
        roles = {v: rng.choice(list(Role)) for v in _subset(rng, g)}
        _assert_built_as(g.with_roles(roles), g.nodes, g.edges(), {**g.roles, **roles})
        for keep in (_subset(rng, g), set(g.nodes) - _subset(rng, g)):
            nodes = [v for v in g.nodes if v in keep]
            edges = [(u, v) for u, v in g.edges() if u in keep and v in keep]
            roles = {v: r for v, r in g.roles.items() if v in keep}
            _assert_built_as(induced_subgraph(g, keep), nodes, edges, roles)
            _assert_built_as(remove_nodes(g, set(g.nodes) - keep), nodes, edges, roles)
        part_m = frozenset(_subset(rng, g))
        split = SpectralBisection(part_m, frozenset(g.nodes) - part_m, 0.0, {})
        edges = [(u, v) for u, v in g.edges() if (u in part_m) != (v in part_m)]
        touched = {v for e in edges for v in e}
        _assert_built_as(crossing_subgraph(g, split), [v for v in g.nodes if v in touched], edges)
