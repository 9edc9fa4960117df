"""Reference postorder numbering for the lemma-availability tests.

A pool lemma may reference only a node strictly earlier in postorder than
the leaf being expanded.  `ggtkit.lr_engine` numbers nodes as its walk
passes them; these functions number the finished build tree directly, by
a separate traversal of its `kids` lists.
"""

from __future__ import annotations


def postorder(root) -> tuple[dict, dict]:
    """Each node's postorder position, and the first position in its subtree.

    Both maps are keyed by `id(node)`.  A subtree occupies the positions
    from its first one up to its root's own.
    """
    pos: dict[int, int] = {}
    first: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            pos[id(node)] = len(pos)
            first[id(node)] = first[id(node.kids[0])] if node.kids else pos[id(node)]
            continue
        stack.append((node, True))
        stack.extend((kid, False) for kid in reversed(node.kids))
    return pos, first
