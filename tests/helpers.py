"""Graphs and an edge-list writer shared by the test modules."""
import numpy as np

from netrand import Graph


def complete_graph(n):
    return Graph(np.ones((n, n), dtype=np.uint8))


def identity_graph(n):
    return Graph(np.eye(n, dtype=np.uint8))


def write_edge_list(g, path, header=None):
    """Write a binary ``Graph`` to ``path`` as one 'i j' line per edge i < j, after '# header'."""
    rows, cols = np.nonzero(np.triu(g.matrix, 1))
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.writelines(f"{i} {j}\n" for i, j in zip(rows.tolist(), cols.tolist()))
