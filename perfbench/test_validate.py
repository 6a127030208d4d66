"""Self-test of the benchmark's validators: real outputs pass, and a
corrupted certificate, a wrong realization count or a broken output degree
sequence makes ``fail_frac`` positive.

    python3 -m pytest perfbench/test_validate.py -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import kpartite  # noqa: E402

import graphs  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import validate  # noqa: E402
import worker  # noqa: E402


def answer(tmp_path: Path, request: dict) -> dict:
    """One item as the workload process records it."""
    ctx = worker.Context(kpartite, tmp_path)
    work, record = worker.KINDS[request["kind"]]
    return {"id": request["id"], "cycle": 0, "t": 0.01, "record": record(ctx, request, work(ctx, request))}


def fail_frac(request: dict, expected: dict, item: dict) -> float:
    verdict = validate.validate([request], {request["id"]: expected}, [item])
    return len(verdict["failed"]) / len([item])


def test_witness_certificate_corruption_is_caught(tmp_path):
    request, expected = inputs.witness_request(random.Random(1), 60, tmp_path)
    item = answer(tmp_path, request)
    assert fail_frac(request, expected, item) == 0
    out = Path(item["record"]["output"])
    cert = json.loads(out.read_text())
    u = cert["vertices"][0]
    cert["vertices"][1] = min(expected["adj"][u])  # now holds an edge
    out.write_text(json.dumps(cert))
    assert fail_frac(request, expected, item) > 0


def test_analyze_certificate_and_walk_corruption_are_caught(tmp_path):
    request, expected = inputs.analyze_request(random.Random(2), 40, "dense", tmp_path)
    item = answer(tmp_path, request)
    assert fail_frac(request, expected, item) == 0
    bad = json.loads(json.dumps(item))
    vertices = bad["record"]["certificate"]["vertices"]
    u = vertices[0]
    vertices[1] = min(set(range(40)) - expected["adj"][u] - {u})  # not a clique now
    assert fail_frac(request, expected, bad) > 0

    out = Path(item["record"]["output"])
    masks = graphs.decode_graph6(out.read_text())
    masks[0] ^= 1 << 1
    masks[1] ^= 1 << 0
    out.write_text(graphs.encode_graph6(masks) + "\n")
    assert fail_frac(request, expected, item) > 0


def test_wrong_realization_count_is_caught(tmp_path):
    requests, expected = inputs.campaign(0, tmp_path)
    request = next(r for r in requests if r["parts"] == [2, 2, 3])
    item = answer(tmp_path, request)
    assert fail_frac(request, expected[request["id"]], item) == 0
    item["record"]["count"] += 1
    assert fail_frac(request, expected[request["id"]], item) > 0


def test_broken_realization_degrees_are_caught(tmp_path):
    request, expected = inputs.realize_request(random.Random(3), 50, tmp_path)
    item = answer(tmp_path, request)
    assert fail_frac(request, expected, item) == 0
    out = Path(item["record"]["output"])
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:-1]) + "\n")  # drop one edge
    assert fail_frac(request, expected, item) > 0


def test_program_error_counts_as_failure():
    request = {"id": "r", "kind": "realize"}
    item = {"id": "r", "cycle": 0, "t": 0.01, "error": "NonGraphicalError: ..."}
    assert fail_frac(request, {}, item) > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [*worker.PER_LAYER, "calib_s"]
    assert [m["unit"] for m in spec["per_layer"]] == [*worker.PER_LAYER.values(), "s"]
    items = [{"id": f"r{i}", "cycle": c, "t": 0.01 * (i + 1), "record": {}} for c in range(3) for i in range(40)]
    metrics, _ = run.end_to_end("service", items, {"failed": []}, 0.2, 30_000)
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(metrics[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
