"""The workload process: one fresh, single-threaded interpreter that calls
kpartite as a closed loop with one caller.

It repeats the cycle of requests in the manifest, timing each request and
nothing else, and stops at the end of the cycle nearest to ``--seconds``,
after at least ``MIN_CYCLES`` cycles.  With ``--trace 1`` it instead
runs one cycle with every public layer wrapped (see spans.py) between two
untraced cycles, and reports per-layer metrics; the overhead is the traced
busy time minus the mean of the untraced ones.  Outputs are written as records for the parent
process to validate; nothing here judges them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import spans

NAMED_GRAPHS = {"p4": ("path_graph", 4), "c5": ("cycle_graph", 5)}
# Every timed run does at least MIN_CYCLES cycles, so that each request's
# median latency is taken over at least five copies, and the two requests
# beyond the service workload's tail percentile have ten timed copies.
MIN_CYCLES = 5

# name -> unit; the order and names match BENCHMARK.json's per_layer list.
PER_LAYER = {
    "formats.decode_graph6.s": "s",
    "formats.decode_graph6.calls": "count",
    "formats.bytes_in": "bytes",
    "formats.encode_graph6.s": "s",
    "formats.encode_graph6.calls": "count",
    "formats.save_graph.s": "s",
    "formats.bytes_out": "bytes",
    "formats.decode_edge_list.s": "s",
    "graph.Graph.calls": "count",
    "graph.Graph.self_s": "s",
    "graph.complement.calls": "count",
    "graph.complement.s": "s",
    "graph.connected_components.s": "s",
    "graph.induced_subgraph.calls": "count",
    "graph.induced_subgraph.s": "s",
    "sequences.is_graphical.calls": "count",
    "sequences.is_graphical.s": "s",
    "recognition.is_clique_union.s": "s",
    "recognition.is_complete_multipartite.s": "s",
    "isomorphism.labeling_is_canonical.calls": "count",
    "isomorphism.labeling_is_canonical.s": "s",
    "isomorphism.labeling_is_canonical.accept_ratio": "ratio",
    "isomorphism.canonical_key.calls": "count",
    "isomorphism.canonical_key.s": "s",
    "isomorphism.key_cache.hits": "count",
    "isomorphism.key_cache.misses": "count",
    "isomorphism.contains_induced.s": "s",
    "realizations.enumerate.items": "count",
    "realizations.enumerate.self_s": "s",
    "realizations.havel_hakimi_realize.s": "s",
    "realizations.random_switch_walk.s": "s",
    "realizations.walk.steps_per_s": "1/s",
    "exact.max_independent_set.calls": "count",
    "exact.max_independent_set.s": "s",
    "exact.max_clique.calls": "count",
    "exact.max_clique.s": "s",
    "bounds.compare_bounds.calls": "count",
    "bounds.compare_bounds.self_s": "s",
    "witness.witness_independent_set.self_s": "s",
    "witness.witness_clique.self_s": "s",
    "witness.ops": "count",
    "harness.check_profile.calls": "count",
    "harness.check_profile.s": "s",
    "harness.check_profile.max_s": "s",
    "harness.bounds_report_rows.s": "s",
    "harness.find_sharp_example.s": "s",
    "kpartite.import_s": "s",
    "trace.items": "count",
    "trace.spans": "count",
    "trace.busy_s": "s",
    "trace.glue_self_s": "s",
    "trace.untraced_busy_s": "s",
    "trace.overhead_s": "s",
}


class Context:
    """What a request needs besides its own parameters."""

    def __init__(self, kp, outdir: Path) -> None:
        self.kp = kp
        self.outdir = outdir
        self.cycle = 0
        self.counter = None  # an OpCounter while tracing

    def out(self, rid: str, suffix: str) -> str:
        return str(self.outdir / f"{rid}-c{self.cycle}{suffix}")


def _profile(p):
    return None if p is None else list(p.parts)


def _cert(c):
    return {"kind": c.kind, "vertices": sorted(c.vertices)}


# Each request kind is a timed ``work`` step and an untimed ``record`` step
# that turns the program's outputs into plain JSON for the validators.


def check_work(ctx, req):
    kp = ctx.kp
    return kp.check_profile(kp.PartitionProfile(req["parts"]), with_reports=False)


def check_record(ctx, req, r):
    return {
        "parts": list(r.profile.parts),
        "count": r.realization_count,
        "canonical_found": r.canonical_found,
        "canonical_alpha": r.canonical_alpha,
        "min_alpha": r.min_alpha_noncanonical,
        "holds": r.theorem_holds,
    }


def bounds_work(ctx, req):
    kp = ctx.kp
    return kp.bounds_report_csv([kp.PartitionProfile(req["parts"])])


def bounds_record(ctx, req, text):
    return {"csv": text}


def sharp_work(ctx, req):
    kp = ctx.kp
    patterns = [getattr(kp, fn)(size) for fn, size in (NAMED_GRAPHS[p] for p in req["patterns"])]
    return kp.find_sharp_example(kp.PartitionProfile(req["parts"]), patterns)


def sharp_record(ctx, req, g):
    return {"graph": None if g is None else {"n": g.n, "edges": g.edges()}}


def analyze_work(ctx, req):
    kp = ctx.kp
    g = kp.load_graph(req["input"])
    degrees = kp.DegreeSequence(g.degrees())
    recognized = (
        kp.is_graphical(degrees),
        kp.multipartite_profile_from_degrees(degrees),
        kp.clique_union_profile_from_degrees(degrees),
        kp.is_clique_union(g),
        kp.is_complete_multipartite(g),
    )
    witness = kp.witness_clique if req["kind"] == "dense" else kp.witness_independent_set
    cert = witness(g, ctx.counter)
    report = kp.compare_bounds(g)
    walked = kp.random_switch_walk(g, req["walk_steps"], req["walk_seed"])
    out = ctx.out(req["id"], ".g6")
    kp.save_graph(walked, out)
    return recognized, cert, report, out


def analyze_record(ctx, req, result):
    (graphical, mp, cu, icu, icm), cert, report, out = result
    return {
        "graphical": graphical,
        "multipartite_from_degrees": _profile(mp),
        "clique_union_from_degrees": _profile(cu),
        "is_clique_union": _profile(icu),
        "is_complete_multipartite": _profile(icm),
        "certificate": _cert(cert),
        "report": report.to_json_dict(),
        "output": out,
    }


def witness_work(ctx, req):
    kp = ctx.kp
    g = kp.load_graph(req["input"])
    degrees = kp.DegreeSequence(g.degrees())
    graphical = kp.is_graphical(degrees)
    profile = kp.clique_union_profile_from_degrees(degrees)
    canonical = kp.is_clique_union(g)
    cert = kp.witness_independent_set(g, ctx.counter)
    out = ctx.out(req["id"], ".json")
    payload = {
        "kind": cert.kind,
        "size": cert.size,
        "vertices": list(cert.sorted_vertices()),
        "k": profile.k,
        "parts": list(profile.parts),
    }
    Path(out).write_text(json.dumps(payload) + "\n")
    return graphical, canonical, out


def witness_record(ctx, req, result):
    graphical, canonical, out = result
    return {"graphical": graphical, "is_clique_union": _profile(canonical), "output": out}


def realize_work(ctx, req):
    kp = ctx.kp
    degrees = kp.parse_degree_list(Path(req["input"]).read_text())
    graphical = kp.is_graphical(degrees)
    g = kp.havel_hakimi_realize(degrees)
    out = ctx.out(req["id"], ".edges")
    kp.save_graph(g, out)
    return graphical, out


def realize_record(ctx, req, result):
    graphical, out = result
    return {"graphical": graphical, "output": out}


KINDS = {
    "check": (check_work, check_record),
    "bounds": (bounds_work, bounds_record),
    "sharp": (sharp_work, sharp_record),
    "sparse": (analyze_work, analyze_record),
    "dense": (analyze_work, analyze_record),
    "witness": (witness_work, witness_record),
    "realize": (realize_work, realize_record),
}


def run_cycle(ctx, requests, items, tracer=None) -> float:
    """Run every request once; append one entry per request to ``items`` and
    return the busy time."""
    busy = 0.0
    for req in requests:
        work, record = KINDS[req["kind"]]
        entry = {"id": req["id"], "cycle": ctx.cycle}
        start = time.perf_counter()
        try:
            if tracer is None:
                result = work(ctx, req)
            else:
                with tracer.span(spans.ITEM):
                    result = work(ctx, req)
            entry["t"] = time.perf_counter() - start
            entry["record"] = record(ctx, req, result)
        except Exception as exc:  # a failed request is counted, not fatal
            entry.setdefault("t", time.perf_counter() - start)
            entry["error"] = f"{type(exc).__name__}: {exc}"
        busy += entry["t"]
        items.append(entry)
    ctx.cycle += 1
    return busy


def timed_loop(ctx, requests, seconds: float) -> dict:
    items: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        cycle_start = time.perf_counter()
        run_cycle(ctx, requests, items)
        now = time.perf_counter()
        # Stop at the cycle boundary nearest to the deadline, so that runs
        # last --seconds on average whatever the cycle length.
        if ctx.cycle >= MIN_CYCLES and now + (now - cycle_start) / 2 >= deadline:
            break
    return {"items": items, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def traced_run(ctx, requests, spans_path: Path) -> dict:
    kp = ctx.kp
    # The canonical-key cache (and its statistics) is cleared before each
    # cycle, so every cycle starts as cold as a fresh process and the traced
    # counts repeat exactly.
    key_cache = getattr(kp.isomorphism, "_canonical_key_cached", None)
    clear_cache = key_cache.cache_clear if key_cache else (lambda: None)
    items: list[dict] = []
    untraced = [run_cycle(ctx, requests, items)]
    clear_cache()
    ctx.counter = kp.OpCounter()
    tracer = spans.Tracer()
    undo = tracer.install()
    try:
        run_cycle(ctx, requests, items, tracer)
    finally:
        undo()
    cache = key_cache.cache_info() if key_cache else None
    ops = ctx.counter.count
    ctx.counter = None
    clear_cache()
    untraced.append(run_cycle(ctx, requests, items))
    untraced_busy = sum(untraced) / 2
    tracer.dump(spans_path)

    summary = tracer.summary()
    counts = tracer.counts

    def stat(name: str, key: str):
        return summary.get(name, {}).get(key, 0)

    busy = stat(spans.ITEM, "s")

    metrics = {}
    for metric in PER_LAYER:
        layer, _, key = metric.rpartition(".")
        if key in ("s", "self_s", "calls", "max_s"):
            metrics[metric] = stat(layer, key)
    canon_calls = stat("isomorphism.labeling_is_canonical", "calls")
    walk_s = stat("realizations.random_switch_walk", "s")
    steps = sum(r.get("walk_steps", 0) for r in requests)
    metrics.update(
        {
            "formats.bytes_in": counts["formats.bytes_in"],
            "formats.bytes_out": counts["formats.bytes_out"],
            "isomorphism.labeling_is_canonical.accept_ratio": (
                counts["isomorphism.labeling_is_canonical.accepted"] / canon_calls if canon_calls else 0
            ),
            "isomorphism.key_cache.hits": cache.hits if cache else 0,
            "isomorphism.key_cache.misses": cache.misses if cache else 0,
            "realizations.enumerate.items": counts["realizations.enumerate.items"],
            "realizations.walk.steps_per_s": steps / walk_s if walk_s else 0,
            "witness.ops": ops,
            "trace.items": len(requests),
            "trace.spans": len(tracer.start),
            "trace.busy_s": busy,
            "trace.glue_self_s": stat(spans.ITEM, "self_s"),
            "trace.untraced_busy_s": untraced_busy,
            "trace.overhead_s": busy - untraced_busy,
        }
    )
    return {"items": items, "metrics": metrics, "layers": summary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import kpartite

    import_s = time.perf_counter() - start
    manifest = json.loads(Path(args.manifest).read_text())
    ctx = Context(kpartite, Path(manifest["outdir"]))
    if args.trace:
        result = traced_run(ctx, manifest["requests"], Path(manifest["spans"]))
        result["metrics"]["kpartite.import_s"] = import_s
    else:
        result = timed_loop(ctx, manifest["requests"], args.seconds)
    result["import_s"] = import_s
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
