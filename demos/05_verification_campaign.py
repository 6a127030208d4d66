#!/usr/bin/env python3
"""Desk-scale verification of the characterization.

For every clique-size profile with at most 8 vertices, enumerate all graphs
with the matching degree sequence and confirm that the clique union itself is
the unique realization with independence number k while every other
realization reaches k + 1.  Then locate the sharp 10-vertex example whose
independence number is exactly k + 1 and which contains an induced 4-path
and 5-cycle, and export a bound-comparison table.
"""

from kpartite import (
    PartitionProfile,
    bounds_report_csv,
    check_profile,
    contains_induced,
    cycle_graph,
    encode_graph6,
    find_sharp_example,
    iter_profiles,
    max_independent_set,
    path_graph,
)

print("=== Campaign over all profiles with at most 8 vertices ===")
total = 0
all_hold = True
for profile in iter_profiles(8):
    result = check_profile(profile)
    total += result.realization_count
    all_hold = all_hold and result.theorem_holds
    if result.realization_count > 1:
        print(result.summary_line())
print(f"... {total} realizations checked, characterization holds everywhere: {all_hold}")

print()
print("=== Sharp example: alpha exactly k + 1 with induced P4 and C5 ===")
g = find_sharp_example(PartitionProfile((3, 3, 4)), [path_graph(4), cycle_graph(5)])
print("graph6:", encode_graph6(g))
print("alpha:", max_independent_set(g).size, "(k = 3, so the bound k+1 is tight)")
print("induced P4:", contains_induced(g, path_graph(4)))
print("induced C5:", contains_induced(g, cycle_graph(5)))

print()
print("=== Bound table for the classes of K3uK3 and K2uK2 ===")
csv_text = bounds_report_csv([PartitionProfile((3, 3)), PartitionProfile((2, 2))])
print(csv_text)
print("rows flagged True in the last column are non-canonical realizations where")
print("every classical bound stays below k + 1 <= alpha.")
