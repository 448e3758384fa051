"""A label-class read-back of routes, the reference composed routes are compared against.

A final graph's edges are grouped by label; each original demand's class
is ordered into an Euler trail from its first end and cut short of its
cycles.
"""
from tpb import Path, StructuralError


def reference_euler_trail(edges, s, t):
    """Order a label class that meets s into its Euler trail to t: lowest neighbour, then lowest index."""
    adj = {}
    for k, e in enumerate(edges):
        adj.setdefault(e.u, []).append((k, e.v))
        adj.setdefault(e.v, []).append((k, e.u))
    for lst in adj.values():
        lst.sort(key=lambda kv: (kv[1], kv[0]))
    if s not in adj:
        raise StructuralError("label class misses its terminal")
    used = [False] * len(edges)
    ptr = {v: 0 for v in adj}
    stack = [s]
    out = []
    while stack:
        w = stack[-1]
        lst = adj[w]
        i = ptr[w]
        while i < len(lst) and used[lst[i][0]]:
            i += 1
        if i == len(lst):
            ptr[w] = i
            out.append(stack.pop())
        else:
            used[lst[i][0]] = True
            ptr[w] = i + 1
            stack.append(lst[i][1])
    out.reverse()
    if len(out) != len(edges) + 1 or out[0] != s or out[-1] != t:
        raise StructuralError("label class does not form a walk between its terminals")
    return out


def reference_shortcut_walk(walk):
    """Drop cycles from a walk, closing each one as soon as it appears."""
    out = []
    pos = {}
    for w in walk:
        if w in pos:
            cut = pos[w]
            for dropped in out[cut + 1:]:
                del pos[dropped]
            del out[cut + 1:]
        else:
            pos[w] = len(out)
            out.append(w)
    return out


def reference_extract(final, original):
    """Every class through the Euler trail and the shortcut, as extraction once ran."""
    classes = {}
    for e in final.edges.values():
        classes.setdefault(e.label, []).append(e)
    routes = {}
    for eid in sorted(original.edges):
        e0 = original.edges[eid]
        cls = classes.get(e0.label)
        if not cls:
            raise StructuralError(f"label {e0.label} has no edges left to trace")
        walk = reference_euler_trail(sorted(cls, key=lambda e: e.id), e0.u, e0.v)
        routes[eid] = Path(tuple(reference_shortcut_walk(walk)))
    return routes
