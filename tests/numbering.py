"""The numbering of Case 1's cover that `place_F` chooses, by the twelve-pairs rule.

Each numbering of F, in the order of `permutations(sorted(F))`, puts its
i-th edge on the i-th corner slot of u1v1, u1v2, u2v2, u2v1; lifting edge
uv onto slot xy makes the pairs xy, uy and xv.  The first numbering whose
twelve pairs are distinct is the one that leaves no parallel edge at Z.
"""
from itertools import permutations


def reference_numbering(L, F, u1, u2, v1, v2):
    """The `edge_lift` moves of the first numbering whose twelve new pairs are distinct, or None."""
    corners = [(u1, v1), (u1, v2), (u2, v2), (u2, v1)]
    a = L.a
    for perm in permutations(sorted(F)):
        moves = [(eid, x, y) for eid, (x, y) in zip(perm, corners)]
        made = set()
        for eid, x, y in moves:
            e = L.edges[eid]
            u, v = (e.u, e.v) if (e.u < a) == (x < a) else (e.v, e.u)
            made.update(((x, y), (u, y), (x, v)))
        if len(made) == 3 * len(moves):
            return moves
    return None
