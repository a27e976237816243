"""Named graphs and complexes that only the tests build."""

from rzformal import Graph, SimplicialComplex


def empty_graph(m):
    return Graph(m, [])


def complete_graph(m):
    return Graph(m, [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)])


def cycle_graph(m):
    if m < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(m, [(i, i % m + 1) for i in range(1, m + 1)])


def void_complex(m):
    """The complex on ambient {1..m} with no faces at all."""
    return SimplicialComplex((1 << m) - 1, [])


def simplex(m):
    """The full simplex on {1..m}."""
    return SimplicialComplex((1 << m) - 1, [(1 << m) - 1])
