"""Validators for the program's outputs, in the standard library only.

Each ``check_<kind>(expected, record)`` returns the list of problems found in
one request's output; an empty list means the output is correct.  Checks
compare against what the generator built (or the recorded tables) and never
against the program's own view, and none depends on enumeration order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import graphs

TOLERANCE = 1e-9


def clique_union_parts(degrees) -> list[int] | None:
    """Clique sizes of the clique union with this degree multiset: a clique
    of size a holds a vertices of degree a - 1."""
    parts = []
    for d, mult in Counter(degrees).items():
        if mult % (d + 1):
            return None
        parts += [d + 1] * (mult // (d + 1))
    return sorted(parts)


def multipartite_parts(degrees) -> list[int] | None:
    """Part sizes of the complete multipartite graph with this degree
    multiset: a part of size a holds a vertices of degree n - a."""
    n = len(degrees)
    parts = []
    for d, mult in Counter(degrees).items():
        if mult % (n - d):
            return None
        parts += [n - d] * (mult // (n - d))
    return sorted(parts)


def family_expectations(masks: list[int]) -> dict:
    """What recognition and the sharpened bounds must report for a graph."""
    degs = [mu.bit_count() for mu in masks]
    cu, mp = clique_union_parts(degs), multipartite_parts(degs)
    icu = sorted(cu) if cu is not None and graphs.is_clique_union(masks) else None
    icm = sorted(mp) if mp is not None and graphs.is_complete_multipartite(masks) else None
    return {
        "degrees": degs,
        "m": sum(degs) // 2,
        "clique_union_from_degrees": cu,
        "multipartite_from_degrees": mp,
        "is_clique_union": icu,
        "is_complete_multipartite": icm,
        "sharpened_alpha": None if cu is None else len(cu) + (icu is None),
        "sharpened_omega": None if mp is None else len(mp) + (icm is None),
        "caro_wei": sum((Fraction(1, d + 1) for d in degs), Fraction(0)),
    }


def _family(exp: dict) -> dict:
    if "family" not in exp:
        exp["family"] = family_expectations(exp["masks"])
    return exp["family"]


def check_report(report: dict, masks: list[int], line: str, fam: dict) -> list[str]:
    """A bound report without exact values: identity, family bounds and
    Caro-Wei match."""
    problems = []
    n, m = len(masks), fam["m"]
    expect = {
        "graph_id": line,
        "n": n,
        "m": m,
        "sharpened_alpha": fam["sharpened_alpha"],
        "sharpened_omega": fam["sharpened_omega"],
        "exact_alpha": None,
        "exact_omega": None,
    }
    for key, value in expect.items():
        if report.get(key) != value:
            problems.append(f"report {key}={report.get(key)!r}, expected {value!r}")
    if Fraction(report["caro_wei"]) != fam["caro_wei"]:
        problems.append("report caro_wei differs from sum 1/(d+1)")
    if Fraction(report["turan_alpha"]) != Fraction(n * n, n + 2 * m):
        problems.append("report turan_alpha differs from n^2/(n+2m)")
    return problems


def _classical_below(report: dict, alpha: int, omega: int) -> list[str]:
    problems = []
    for key in ("caro_wei", "turan_alpha", "hansen_zheng"):
        if Fraction(report[key]) > alpha:
            problems.append(f"{key}={report[key]} exceeds alpha={alpha}")
    for key in ("myers_liu",):
        if Fraction(report[key]) > omega:
            problems.append(f"{key}={report[key]} exceeds omega={omega}")
    if float(report["edwards_elphick"]) > omega + TOLERANCE:
        problems.append(f"edwards_elphick={report['edwards_elphick']} exceeds omega={omega}")
    return problems


def check_certificate(cert: dict, adj: list[set[int]], kind: str, least: int) -> list[str]:
    vertices = cert["vertices"]
    problems = []
    if cert["kind"] != kind:
        problems.append(f"certificate kind {cert['kind']!r}, expected {kind!r}")
    valid = graphs.is_independent if kind == "independent-set" else graphs.is_clique
    if not valid(adj, vertices):
        problems.append(f"certificate is not a valid {kind}")
    if len(vertices) < least:
        problems.append(f"certificate size {len(vertices)}, expected >= {least}")
    return problems


# --- campaign -----------------------------------------------------------------------


def check_check(exp: dict, rec: dict) -> list[str]:
    k = len(exp["parts"])
    problems = []
    if tuple(rec["parts"]) != tuple(exp["parts"]):
        problems.append(f"profile {rec['parts']} answered for {exp['parts']}")
    if rec["count"] != exp["count"]:
        problems.append(f"{rec['count']} realizations, expected {exp['count']}")
    if not rec["canonical_found"] or rec["canonical_alpha"] != k:
        problems.append("canonical clique union missing or alpha != k")
    single = exp["count"] == 1
    if (rec["min_alpha"] is None) != single or (not single and rec["min_alpha"] < k + 1):
        problems.append(f"min non-canonical alpha {rec['min_alpha']} violates the theorem")
    if not rec["holds"]:
        problems.append("theorem reported not to hold")
    return problems


def check_bounds(exp: dict, rec: dict) -> list[str]:
    parts = tuple(exp["parts"])
    k = len(parts)
    degrees = sorted(a - 1 for a in parts for _ in range(a))
    rows = list(csv.DictReader(io.StringIO(rec["csv"])))
    problems = []
    if len(rows) != exp["count"]:
        problems.append(f"{len(rows)} rows, expected {exp['count']}")
    if len({r["graph_id"] for r in rows}) != len(rows):
        problems.append("repeated graph in bounds report")
    canonical_rows = 0
    for row in rows:
        masks = graphs.decode_graph6(row["graph_id"])
        fam = family_expectations(masks)
        alpha = graphs.brute_force_alpha(masks)
        omega = graphs.brute_force_alpha(graphs.complement_masks(masks))
        canonical = fam["is_clique_union"] is not None
        canonical_rows += canonical
        bad = []
        if row["profile"] != " ".join(map(str, parts)) or sorted(fam["degrees"]) != degrees:
            bad.append("graph outside the profile's degree class")
        if (int(row["n"]), int(row["m"])) != (len(masks), fam["m"]):
            bad.append("n or m wrong")
        if (int(row["exact_alpha"]), int(row["exact_omega"])) != (alpha, omega):
            bad.append(f"exact alpha/omega {row['exact_alpha']}/{row['exact_omega']}, brute force {alpha}/{omega}")
        if (canonical and alpha != k) or (not canonical and alpha < k + 1):
            bad.append("theorem fails on this realization")
        if row["canonical"] != str(canonical) or row["sharpened_alpha"] != str(fam["sharpened_alpha"]):
            bad.append("canonical flag or sharpened alpha wrong")
        bad += _classical_below(row, alpha, omega)
        flagged = (
            not canonical
            and all(Fraction(row[key]) < k + 1 for key in ("caro_wei", "turan_alpha", "hansen_zheng"))
            and alpha >= k + 1
        )
        if row["sharpness_flagged"] != str(flagged):
            bad.append("sharpness flag wrong")
        problems += [f"{row['graph_id']}: {b}" for b in bad]
    if canonical_rows != 1:
        problems.append(f"{canonical_rows} canonical rows, expected 1")
    return problems


def check_sharp(exp: dict, rec: dict) -> list[str]:
    parts = exp["parts"]
    if rec["graph"] is None:
        return ["no sharp example found"]
    n = rec["graph"]["n"]
    masks = [0] * n
    for u, v in rec["graph"]["edges"]:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    problems = []
    if sorted(mu.bit_count() for mu in masks) != sorted(a - 1 for a in parts for _ in range(a)):
        problems.append("sharp example outside the profile's degree class")
    if graphs.is_clique_union(masks):
        problems.append("sharp example is the canonical clique union")
    if graphs.brute_force_alpha(masks) != len(parts) + 1:
        problems.append("sharp example alpha != k + 1")
    for name, pattern in (("P4", graphs.path_masks(4)), ("C5", graphs.cycle_masks(5))):
        if not graphs.contains_induced(masks, pattern):
            problems.append(f"sharp example has no induced {name}")
    return problems


# --- service ------------------------------------------------------------------------


def check_analyze(exp: dict, rec: dict) -> list[str]:
    masks, fam = exp["masks"], _family(exp)
    parts = sorted(exp["parts"])
    problems = []
    if not rec["graphical"]:
        problems.append("graphical sequence reported non-graphical")
    for key in ("clique_union_from_degrees", "multipartite_from_degrees", "is_clique_union", "is_complete_multipartite"):
        got = None if rec[key] is None else sorted(rec[key])
        if got != fam[key]:
            problems.append(f"{key}={got}, expected {fam[key]}")
    if fam["clique_union_from_degrees" if exp["kind"] == "sparse" else "multipartite_from_degrees"] != parts:
        problems.append("recognized profile differs from the generated parts")
    kind = "independent-set" if exp["kind"] == "sparse" else "clique"
    problems += check_certificate(rec["certificate"], exp["adj"], kind, len(parts) + 1)
    problems += check_report(rec["report"], masks, exp["graph6"], fam)
    walked = graphs.decode_graph6(Path(rec["output"]).read_text())
    if [mu.bit_count() for mu in walked] != fam["degrees"]:
        problems.append("walk output changed a vertex degree")
    return problems


def check_witness(exp: dict, rec: dict) -> list[str]:
    cert = json.loads(Path(rec["output"]).read_text())
    parts = sorted(exp["parts"])
    problems = []
    if not rec["graphical"] or rec["is_clique_union"] is not None:
        problems.append("member reported non-graphical or canonical")
    if sorted(cert["parts"]) != parts or cert["k"] != len(parts):
        problems.append("recognized parts differ from the generated parts")
    if cert["size"] != len(cert["vertices"]):
        problems.append("certificate size field disagrees with its vertices")
    problems += check_certificate(cert, exp["adj"], "independent-set", len(parts) + 1)
    return problems


def check_realize(exp: dict, rec: dict) -> list[str]:
    problems = []
    if not rec["graphical"]:
        problems.append("graphical sequence reported non-graphical")
    try:
        adj = graphs.parse_edge_list(Path(rec["output"]).read_text())
    except ValueError as exc:
        return problems + [f"output edge list: {exc}"]
    if sorted(graphs.degrees(adj)) != exp["degrees"]:
        problems.append("realization does not have the input degree sequence")
    return problems


CHECKS = {
    "check": check_check,
    "bounds": check_bounds,
    "sharp": check_sharp,
    "sparse": check_analyze,
    "dense": check_analyze,
    "witness": check_witness,
    "realize": check_realize,
}


def _fingerprint(record: dict) -> str:
    """Identity of an output for de-duplication: the record with each output
    file replaced by a hash of its content."""
    flat = dict(record)
    if "output" in flat:
        flat["output"] = hashlib.sha256(Path(flat["output"]).read_bytes()).hexdigest()
    return json.dumps(flat, sort_keys=True, default=str)


def validate(requests: list[dict], expected: dict, items: list[dict]) -> dict:
    """Judge every item; identical outputs of one request are judged once.
    Returns per-item verdicts, the failure count and sample problems."""
    kinds = {r["id"]: r["kind"] for r in requests}
    verdicts: dict[tuple[str, str], list[str]] = {}
    failed_items = []
    samples: list[str] = []
    for index, item in enumerate(items):
        if "error" in item:
            problems = [item["error"]]
        else:
            key = (item["id"], _fingerprint(item["record"]))
            if key not in verdicts:
                try:
                    verdicts[key] = CHECKS[kinds[item["id"]]](expected[item["id"]], item["record"])
                except (KeyError, ValueError, TypeError, OSError) as exc:
                    verdicts[key] = [f"malformed output: {type(exc).__name__}: {exc}"]
            problems = verdicts[key]
        if problems:
            failed_items.append(index)
            if len(samples) < 5:
                samples.append(f"{item['id']} (cycle {item['cycle']}): {'; '.join(problems[:3])}")
    cycles = {item["cycle"] for item in items}
    complete = len(items) == len(cycles) * len(requests) and len(items) > 0
    if not complete:
        samples.append("some cycle did not answer every request")
    return {"failed": failed_items, "complete": complete, "problems": samples}
