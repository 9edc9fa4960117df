"""Reference postorder test for the lemma-availability tests.

A pool lemma may reference only a node strictly earlier in postorder than
the leaf being expanded.  `ggtkit.lr_engine` tracks that set through the
left-to-right expansion order; these functions decide it directly from the
tree, by walking from the node up to the leaf's branch.
"""

from __future__ import annotations


def path_of(leaf) -> tuple[list, dict]:
    """The branch from the root down to `leaf`, and each node's depth on it."""
    path = []
    w = leaf
    while w is not None:
        path.append(w)
        w = w.parent
    path.reverse()
    return path, {id(t): i for i, t in enumerate(path)}


def _child_index(node) -> int:
    return next(idx for idx, kid in enumerate(node.parent.kids) if kid is node)


def left_of(node, path, index) -> bool:
    """Is `node` strictly earlier in postorder than the leaf `path` ends at?

    A node on the branch itself, or one not attached to the tree, is not.
    """
    w = node
    route = None
    while w is not None and id(w) not in index:
        route = w
        w = w.parent
    if w is None or route is None:
        return False
    return _child_index(route) < _child_index(path[index[id(w)] + 1])
