"""Graph inputs and reference checks for the benchmark, in the standard
library only.

Nothing here imports kpartite: inputs are generated and outputs are checked
with code that shares no logic with the program, so an optimisation of the
program cannot change what is measured or how it is judged.

Small graphs are lists of integer bitmasks (bit v of ``masks[u]`` is edge
uv); large graphs are lists of neighbour sets.
"""

from __future__ import annotations

import random

# --- generators ---------------------------------------------------------------


def random_parts(rng: random.Random, n: int, lo: int = 2, hi: int = 8) -> list[int]:
    """Part sizes in ``[lo, hi]`` that sum to exactly ``n`` (``n >= lo``)."""
    parts = []
    remaining = n
    while remaining:
        if lo <= remaining <= hi:
            parts.append(remaining)
            break
        a = rng.randint(lo, min(hi, remaining - lo))
        parts.append(a)
        remaining -= a
    return parts


def clique_union_sets(parts: list[int]) -> list[set[int]]:
    adj: list[set[int]] = []
    start = 0
    for a in parts:
        block = range(start, start + a)
        adj.extend(set(block) - {v} for v in block)
        start += a
    return adj


def edges_of(adj: list[set[int]]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in sorted(adj[u]) if u < v]


def switch_mix(adj: list[set[int]], rng: random.Random, switches: int) -> None:
    """Apply ``switches`` successful random 2-switches in place; every vertex
    keeps its degree."""
    edges = edges_of(adj)
    m = len(edges)
    done = 0
    while done < switches:
        i, j = rng.randrange(m), rng.randrange(m)
        a, b = edges[i]
        c, d = edges[j]
        if len({a, b, c, d}) != 4:
            continue
        if rng.random() < 0.5:
            c, d = d, c
        if c in adj[a] or d in adj[b]:
            continue
        adj[a].discard(b)
        adj[b].discard(a)
        adj[c].discard(d)
        adj[d].discard(c)
        adj[a].add(c)
        adj[c].add(a)
        adj[b].add(d)
        adj[d].add(b)
        edges[i] = (a, c)
        edges[j] = (b, d)
        done += 1


def relabel(adj: list[set[int]], rng: random.Random) -> list[set[int]]:
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    out: list[set[int]] = [set() for _ in adj]
    for u, neigh in enumerate(adj):
        out[perm[u]] = {perm[v] for v in neigh}
    return out


def clique_union_member(rng: random.Random, n: int) -> tuple[list[int], list[set[int]]]:
    """A relabelled graph with the degree sequence of a union of cliques of
    sizes 2..8 summing to ``n`` that is not that clique union."""
    parts = random_parts(rng, n)
    while True:
        adj = clique_union_sets(parts)
        m = sum(len(s) for s in adj) // 2
        switch_mix(adj, rng, max(8, m // 2))
        if not is_clique_union(sets_to_masks(adj)):
            return sorted(parts), relabel(adj, rng)


def complement_sets(adj: list[set[int]]) -> list[set[int]]:
    everyone = set(range(len(adj)))
    return [everyone - s - {v} for v, s in enumerate(adj)]


def sets_to_masks(adj: list[set[int]]) -> list[int]:
    return [sum(1 << v for v in s) for s in adj]


def _classes_equal(rows: list[int]) -> bool:
    """Whether ``rows[v]`` (a vertex set containing v) is the same set for
    every member, i.e. the rows are the classes of an equivalence."""
    for row in rows:
        rest = row
        while rest:
            low = rest & -rest
            if rows[low.bit_length() - 1] != row:
                return False
            rest ^= low
    return True


def is_clique_union(masks: list[int]) -> bool:
    return _classes_equal([mu | (1 << v) for v, mu in enumerate(masks)])


def is_complete_multipartite(masks: list[int]) -> bool:
    full = (1 << len(masks)) - 1
    return _classes_equal([full ^ mu for mu in masks])


# --- formats --------------------------------------------------------------------


def encode_graph6(masks: list[int]) -> str:
    """graph6 line: size header, then the upper triangle column by column,
    six bits per byte with offset 63."""
    n = len(masks)
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = []
    for j in range(1, n):
        # bit i of column j, i ascending; reversing the binary string of the
        # low j bits gives them in that order.
        bits.append(format(masks[j] & ((1 << j) - 1), f"0{j}b")[::-1])
    flat = "".join(bits)
    flat += "0" * (-len(flat) % 6)
    body = "".join(chr(int(flat[k : k + 6], 2) + 63) for k in range(0, len(flat), 6))
    return head + body


def decode_graph6(line: str) -> list[int]:
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    data = s.encode("ascii")
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6 or any(b < 63 or b > 126 for b in body):
        raise ValueError(f"malformed graph6 body for n={n}")
    flat = "".join(format(b - 63, "06b") for b in body)
    masks = [0] * n
    k = 0
    for j in range(1, n):
        masks[j] = int(flat[k : k + j][::-1], 2)
        k += j
    for j in range(n):
        col = masks[j] & ((1 << j) - 1)
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= 1 << j
            col ^= low
    return masks


def write_edge_list(adj: list[set[int]]) -> str:
    lines = [f"n={len(adj)}"]
    lines.extend(f"{u} {v}" for u, v in edges_of(adj))
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> list[set[int]]:
    """Edge list as the file format defines it: labels are renumbered
    0..n-1 in first-seen order, and an ``n=`` header adds isolated vertices.
    Raises ValueError on loops, repeated edges or a header below the label
    count."""
    labels: dict[str, int] = {}
    pairs = []
    header = None
    for raw in text.split("\n"):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("n="):
            header = int(line[2:])
            continue
        a, b = line.split()
        pairs.append((labels.setdefault(a, len(labels)), labels.setdefault(b, len(labels))))
    n = len(labels) if header is None else header
    if n < len(labels):
        raise ValueError("edge list names more vertices than its header")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        if u == v or v in adj[u]:
            raise ValueError(f"loop or repeated edge {u} {v}")
        adj[u].add(v)
        adj[v].add(u)
    return adj


# --- reference checks -------------------------------------------------------------


def _distinct_in_range(adj: list[set[int]], vs: list[int]) -> bool:
    return len(set(vs)) == len(vs) and all(0 <= v < len(adj) for v in vs)


def is_independent(adj: list[set[int]], vertices) -> bool:
    vs = list(vertices)
    chosen = set(vs)
    return _distinct_in_range(adj, vs) and not any(adj[v] & chosen for v in vs)


def is_clique(adj: list[set[int]], vertices) -> bool:
    vs = list(vertices)
    chosen = set(vs)
    return _distinct_in_range(adj, vs) and all(chosen - {v} <= adj[v] for v in vs)


def brute_force_alpha(masks: list[int]) -> int:
    """Independence number over all 2^n subsets (n <= 20)."""
    n = len(masks)
    independent = bytearray(1 << n)
    independent[0] = 1
    best = 0
    for subset in range(1, 1 << n):
        low = subset & -subset
        rest = subset ^ low
        if independent[rest] and not (masks[low.bit_length() - 1] & rest):
            independent[subset] = 1
            best = max(best, subset.bit_count())
    return best


def complement_masks(masks: list[int]) -> list[int]:
    full = (1 << len(masks)) - 1
    return [full ^ mu ^ (1 << v) for v, mu in enumerate(masks)]


def contains_induced(masks: list[int], pattern: list[int]) -> bool:
    """Whether some vertex subset induces ``pattern``, by trying every
    injective placement of the pattern's vertices."""
    n, p = len(masks), len(pattern)

    def place(i: int, image: list[int]) -> bool:
        if i == p:
            return True
        for v in range(n):
            if v in image:
                continue
            if all(
                bool((masks[v] >> image[j]) & 1) == bool((pattern[i] >> j) & 1)
                for j in range(i)
            ):
                image.append(v)
                if place(i + 1, image):
                    return True
                image.pop()
        return False

    return place(0, [])


def path_masks(n: int) -> list[int]:
    return sets_to_masks([{u for u in (v - 1, v + 1) if 0 <= u < n} for v in range(n)])


def cycle_masks(n: int) -> list[int]:
    return sets_to_masks([{(v - 1) % n, (v + 1) % n} for v in range(n)])


def degrees(adj: list[set[int]]) -> list[int]:
    return [len(s) for s in adj]
