"""The reference walk of the coherence moves: every rule of
`terms._MOVE_RULES` at every position of a node, each followed by one
rebuild of the whole tree and one `reduce_node`.

It shares no code with the id walker of `connectivity_check`, which it is
the oracle for, and it builds no `Term`.  The rules are read at call time,
so tests that narrow `_MOVE_RULES` with monkeypatch narrow this walk too.
"""
from ringops import terms
from ringops.terms import reduce_node


def positions(node, path=()):
    """(position, subterm) for every subterm of the node, in preorder."""
    yield path, node
    if node[0] in ("+", "*"):
        yield from positions(node[1], path + (0,))
        yield from positions(node[2], path + (1,))


def _replace(node, path, replacement):
    if not path:
        return replacement
    if path[0] == 0:
        return (node[0], _replace(node[1], path[1:], replacement), node[2])
    return (node[0], node[1], _replace(node[2], path[1:], replacement))


def position_moves(node):
    """(rule name, position, `reduce_node` of the rewritten node) for each
    rule at each position: positions in preorder, rules in `_MOVE_RULES`
    order."""
    return [
        (name, path, reduce_node(_replace(node, path, replaced)))
        for path, sub in positions(node)
        for name, rule in terms._MOVE_RULES
        if (replaced := rule(sub)) is not None
    ]
