"""Rebuild ``tables.json``: the expected values that validators compare
against.

* ``campaign.counts``: realizations per clique-size profile with total <= 10,
  as the program reported them when the benchmark was defined.  Totals up
  to 7 are cross-checked against the networkx graph atlas, which lists every
  graph on at most 7 vertices.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_tables.py
"""

from __future__ import annotations

import json
from collections import Counter

import networkx as nx

import inputs


def campaign_counts() -> dict:
    from kpartite import PartitionProfile, check_profile

    counts = {}
    for total in range(1, inputs.CAMPAIGN_MAX_TOTAL + 1):
        for parts in inputs.partitions(total):
            counts[" ".join(map(str, parts))] = check_profile(
                PartitionProfile(parts), with_reports=False
            ).realization_count
    atlas = Counter(
        tuple(sorted(d for _, d in g.degree())) for g in nx.graph_atlas_g() if g.number_of_nodes() > 0
    )
    checked = 0
    for total in range(1, 8):
        for parts in inputs.partitions(total):
            degs = tuple(sorted(a - 1 for a in parts for _ in range(a)))
            if atlas[degs] != counts[" ".join(map(str, parts))]:
                raise SystemExit(f"profile {parts}: atlas has {atlas[degs]} graphs")
            checked += 1
    print(f"campaign: {len(counts)} profiles, {sum(counts.values())} realizations, {checked} atlas-checked")
    return {"counts": counts, "atlas_checked_max_total": 7}


def main() -> None:
    tables = {"campaign": campaign_counts()}
    inputs.TABLES.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
