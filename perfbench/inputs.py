"""Seeded inputs for the two workloads.

``generate(workload, seed, workdir)`` writes the files the program reads and
returns ``(requests, expected)``: ``requests`` is the cycle of requests the
workload process repeats, as plain JSON (file paths and parameters only);
``expected`` maps each request id to what the validators need, and never
leaves this process.  The same seed gives the same inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import graphs

HERE = Path(__file__).resolve().parent
TABLES = HERE / "tables.json"

CAMPAIGN_MAX_TOTAL = 10
BOUNDS_PROFILES = ((4, 6), (5, 5))
SHARP_PROFILE = (3, 3, 4)
SHARP_PATTERNS = ("p4", "c5")

ANALYZE_SIZES = (100, 157, 214, 271, 329, 386, 443, 500)
WALK_STEPS = 5000

# The witness and Havel-Hakimi requests each hold about a quarter of busy
# time at the seed (see NOTES.md).
WITNESS_SIZES = (4000, 5333, 6667, 8000)
REALIZE_SIZES = (1500, 2000, 2500, 3000)


def partitions(total: int, minimum: int = 1):
    if total == 0:
        yield ()
        return
    for first in range(minimum, total + 1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def load_tables() -> dict:
    return json.loads(TABLES.read_text())


def campaign(seed: int, workdir: Path):
    """Exhaustive, so the seed is not used."""
    tables = load_tables()["campaign"]
    requests, expected = [], {}
    for total in range(1, CAMPAIGN_MAX_TOTAL + 1):
        for parts in partitions(total):
            rid = "check-" + "-".join(map(str, parts))
            requests.append({"id": rid, "kind": "check", "parts": list(parts)})
            expected[rid] = {"parts": parts, "count": tables["counts"][" ".join(map(str, parts))]}
    for parts in BOUNDS_PROFILES:
        rid = "bounds-" + "-".join(map(str, parts))
        requests.append({"id": rid, "kind": "bounds", "parts": list(parts)})
        expected[rid] = {"parts": parts, "count": tables["counts"][" ".join(map(str, parts))]}
    requests.append(
        {"id": "sharp", "kind": "sharp", "parts": list(SHARP_PROFILE), "patterns": list(SHARP_PATTERNS)}
    )
    expected["sharp"] = {"parts": SHARP_PROFILE}
    return requests, expected


def analyze_request(rng: random.Random, n: int, kind: str, workdir: Path):
    """A sparse clique-union-class member, or for ``kind="dense"`` the
    complement of one: a complete-multipartite-class member."""
    parts, adj = graphs.clique_union_member(rng, n)
    if kind == "dense":
        adj = graphs.complement_sets(adj)
    rid = f"{kind}-{n}"
    masks = graphs.sets_to_masks(adj)
    line = graphs.encode_graph6(masks)
    path = workdir / f"{rid}.g6"
    path.write_text(line + "\n")
    request = {"id": rid, "kind": kind, "input": str(path), "walk_seed": rng.randrange(2**31), "walk_steps": WALK_STEPS}
    return request, {"kind": kind, "parts": parts, "adj": adj, "masks": masks, "graph6": line}


def witness_request(rng: random.Random, n: int, workdir: Path):
    parts, adj = graphs.clique_union_member(rng, n)
    rid = f"witness-{n}"
    path = workdir / f"{rid}.edges"
    text = graphs.write_edge_list(adj)
    path.write_text(text)
    # The program renumbers edge-list labels in first-seen order; the
    # validator checks against the graph as the file defines it.
    return {"id": rid, "kind": "witness", "input": str(path)}, {
        "kind": "witness",
        "parts": parts,
        "adj": graphs.parse_edge_list(text),
    }


def realize_request(rng: random.Random, n: int, workdir: Path):
    parts = graphs.random_parts(rng, n)
    degs = [a - 1 for a in parts for _ in range(a)]
    rng.shuffle(degs)
    rid = f"realize-{n}"
    path = workdir / f"{rid}.txt"
    path.write_text(" ".join(map(str, degs)) + "\n")
    return {"id": rid, "kind": "realize", "input": str(path)}, {"kind": "realize", "degrees": sorted(degs)}


def service(seed: int, workdir: Path):
    """Single-graph requests: a graph6 analysis request for each size in
    ANALYZE_SIZES, sparse and dense, then edge-list witness requests
    alternating with degree-list Havel-Hakimi requests."""
    rng = random.Random(f"service-{seed}")
    pairs = [analyze_request(rng, n, kind, workdir) for n in ANALYZE_SIZES for kind in ("sparse", "dense")]
    for wn, rn in zip(WITNESS_SIZES, REALIZE_SIZES):
        pairs.append(witness_request(rng, wn, workdir))
        pairs.append(realize_request(rng, rn, workdir))
    return [r for r, _ in pairs], {r["id"]: e for r, e in pairs}


GENERATORS = {"campaign": campaign, "service": service}


def generate(workload: str, seed: int, workdir: Path):
    return GENERATORS[workload](seed, workdir)
