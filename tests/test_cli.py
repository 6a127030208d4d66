import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import kpartite
from kpartite import (
    clique_union,
    complete_multipartite,
    cycle_graph,
    decode_graph6,
    degree_sequence,
    encode_graph6,
    is_isomorphic,
    petersen_graph,
    save_graph,
)
from kpartite import cli
from kpartite.cli import main, parse_named_graph

from .conftest import random_graph_corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_named_graph():
    assert parse_named_graph("p4").n == 4
    assert parse_named_graph("c5").m == 5
    assert parse_named_graph("k4").m == 6
    assert parse_named_graph("e3").m == 0
    assert parse_named_graph("petersen").n == 10
    with pytest.raises(ValueError):
        parse_named_graph("q7")


def test_recognize_degrees(capsys):
    code, out, _ = run(capsys, "recognize", "--degrees", "2,2,2,2,2,2,3,3,3,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["graphical"] is True
    assert payload["clique_union_profile_from_degrees"] == [3, 3, 4]
    assert payload["multipartite_profile_from_degrees"] is None


def test_recognize_degrees_rejects_any_degree_of_n_or_more(capsys):
    for degrees in ("3,3,3", "0,3,3"):
        code, out, err = run(capsys, "recognize", "--degrees", degrees)
        assert code == 2 and out == ""
        assert err == "error: degree 3 impossible in a simple graph on 3 vertices\n"


def test_recognize_input_file(tmp_path, capsys):
    path = tmp_path / "c4.g6"
    save_graph(cycle_graph(4), str(path))
    code, out, _ = run(capsys, "recognize", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["complete_multipartite"] == [2, 2]
    assert payload["clique_union"] is None


def test_exact_alpha_and_omega(tmp_path, capsys):
    path = tmp_path / "pet.g6"
    save_graph(petersen_graph(), str(path))
    code, out, _ = run(capsys, "exact", "--alpha", "--input", str(path))
    assert code == 0 and json.loads(out)["size"] == 4
    code, out, _ = run(capsys, "exact", "--omega", "--input", str(path))
    assert code == 0 and json.loads(out)["size"] == 2


def test_bounds_single_and_batch(tmp_path, capsys):
    single = tmp_path / "c6.g6"
    save_graph(cycle_graph(6), str(single))
    code, out, _ = run(capsys, "bounds", "--input", str(single), "--exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["sharpened_alpha"] == 3 and payload["exact_alpha"] == 3

    batch = tmp_path / "batch.g6"
    batch.write_text(
        encode_graph6(cycle_graph(6)) + "\n" + encode_graph6(clique_union([3, 3])) + "\n"
    )
    code, out, _ = run(capsys, "bounds", "--input", str(batch))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("schema_version,")
    assert len(lines) == 3


def test_bounds_reports_match_recorded_digests(tmp_path, capsys):
    # The JSON report and the batch CSV are published outputs: their bytes are
    # pinned over canonical and non-canonical family members and graphs
    # outside both families.
    corpus = [
        clique_union([2, 3]),
        complete_multipartite([1, 2, 2]),
        cycle_graph(6),
        petersen_graph(),
        clique_union([1, 4, 4]),
        complete_multipartite([3, 3]),
        *random_graph_corpus(8, 9, seed=71),
    ]
    json_digest, csv_digest = hashlib.sha256(), hashlib.sha256()
    for i, g in enumerate(corpus[:4]):
        path = tmp_path / f"g{i}.g6"
        save_graph(g, str(path))
        for exact in ((), ("--exact",)):
            code, out, err = run(capsys, "bounds", "--input", str(path), *exact)
            assert code == 0 and err == ""
            json_digest.update(out.encode())
    batch = tmp_path / "batch.g6"
    batch.write_text("".join(f"{encode_graph6(g)}\n" for g in corpus))
    for exact in ((), ("--exact",)):
        code, out, err = run(capsys, "bounds", "--input", str(batch), *exact)
        assert code == 0 and err == "" and len(out.splitlines()) == len(corpus) + 1
        csv_digest.update(out.encode())
    assert json_digest.hexdigest() == (
        "8b1ea8d422ecce929891a7a9d14a3b79500cfbd32aa31dc04c63d8405c099910"
    )
    assert csv_digest.hexdigest() == (
        "8d2239bedf04c974c4706795210b2f740e3ace87d3b82287aab2a175a41b3f10"
    )


def _four_clique_edge_list(n):
    """2500 disjoint K4 on the labels 0..9999, one 2-switch joining the
    first two, under the header ``n=<n>``."""
    edges = {(u, v) for b in range(0, 10000, 4) for u, v in combinations(range(b, b + 4), 2)}
    edges -= {(0, 1), (4, 5)}
    edges |= {(0, 4), (1, 5)}
    return f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


def test_bounds_input_vertex_cap(tmp_path, capsys, monkeypatch):
    assert cli.BOUNDS_MAX_VERTICES == 10000
    # At the cap the report is byte-identical to the one recorded before the
    # cap existed.
    at_cap = tmp_path / "at_cap.edges"
    at_cap.write_text(_four_clique_edge_list(10000))
    code, out, err = run(capsys, "bounds", "--input", str(at_cap))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "08fd14dc413403fe3cb41fdf21d33f1d5684aa6874cbbec45ba8519e3d6512f1"
    )

    # One vertex more, alone or in a batch, and the edgeless graph at the
    # edge-list cap exit 2 before any report is built.
    def no_report(*args, **kwargs):
        raise AssertionError("compare_bounds ran on an oversized input")

    monkeypatch.setattr(cli, "compare_bounds", no_report)
    batch = tmp_path / "batch"
    batch.mkdir()
    save_graph(cycle_graph(6), str(batch / "a.g6"))
    (batch / "b.edges").write_text(_four_clique_edge_list(10001))
    (tmp_path / "cap.edges").write_text("n=258047\n")
    for path in (batch / "b.edges", batch, tmp_path / "cap.edges"):
        code, out, err = run(capsys, "bounds", "--input", str(path))
        assert code == 2 and out == ""
        assert "at most 10000 vertices" in err, err


def test_second_edge_list_header_exits_2(tmp_path, capsys):
    path = tmp_path / "two.edges"
    path.write_text("n=9\n0 1\nn=3\n")
    code, out, err = run(capsys, "recognize", "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: second vertex-count header: 'n=3'\n", err


def test_bounds_profile_campaign(capsys):
    code, out, _ = run(capsys, "bounds", "--profiles", "3,3", "2,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("profile,schema_version,")
    assert any(line.startswith("3 3,") for line in lines[1:])


def test_bounds_profiles_refuses_the_single_graph_options(capsys):
    # The campaign rows always carry the exact values and are always CSV, so
    # --exact and --format are read only with --input.
    for extra in (["--exact"], ["--format", "edges"], ["--exact", "--format", "edges"]):
        code, out, err = run(capsys, "bounds", "--profiles", "2,2", *extra)
        assert code == 2 and out == ""
        assert err == "error: --exact and --format apply to bounds --input only\n", err


def test_bounds_profiles_capped_before_any_enumeration(capsys, monkeypatch):
    # (5,5) is within the cap, but (4,7) is not: the command exits 2 before
    # the first profile is checked.
    def never(*args, **kwargs):
        raise AssertionError("a profile was enumerated before the cap check")

    monkeypatch.setattr(kpartite.harness, "enumerate_realizations", never)
    code, out, err = run(capsys, "bounds", "--profiles", "5,5", "4,7")
    assert code == 2 and out == ""
    assert err == "error: enumeration supports at most 10 vertices, got 11\n"


def test_witness_command(tmp_path, capsys):
    path = tmp_path / "c6.g6"
    save_graph(cycle_graph(6), str(path))
    code, out, _ = run(capsys, "witness", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 3 and payload["k"] == 2 and payload["parts"] == [3, 3]

    canonical = tmp_path / "k33.g6"
    save_graph(clique_union([3, 3]), str(canonical))
    code, _, err = run(capsys, "witness", "--input", str(canonical))
    assert code == 2 and "canonical" in err


def test_witness_clique_errors_name_the_multipartite_family(tmp_path, capsys):
    foreign = tmp_path / "p4.g6"
    save_graph(parse_named_graph("p4"), str(foreign))
    code, out, err = run(capsys, "witness", "--clique", "--input", str(foreign))
    assert code == 2 and out == ""
    assert err == (
        "error: degree sequence does not match any complete multipartite graph\n"
    )

    canonical = tmp_path / "k334.g6"
    save_graph(complete_multipartite([3, 3, 4]), str(canonical))
    code, out, err = run(capsys, "witness", "--clique", "--input", str(canonical))
    assert code == 2 and out == ""
    assert err == (
        "error: graph is the canonical complete multipartite graph; "
        "no larger clique exists\n"
    )


def test_realize_and_enumerate(capsys):
    code, out, _ = run(capsys, "realize", "--degrees", "2,2,2,2")
    assert code == 0
    assert is_isomorphic(decode_graph6(out.strip()), cycle_graph(4))

    code, out, err = run(capsys, "enumerate", "--degrees", "2,2,2,2,2,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "2 realizations" in err


def test_format_flag_applies_to_stdout_and_enumerate_rejects_single_graph_formats(
    tmp_path, capsys
):
    code, out, _ = run(capsys, "realize", "--degrees", "1,1", "--format", "edges")
    assert code == 0 and out == "n=2\n0 1\n"
    k4 = tmp_path / "k4.col"
    k4.write_text("p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    # --format names the input and the output format.
    code, out, _ = run(capsys, "reduce4", "--input", str(k4), "--format", "dimacs")
    assert code == 0 and out.startswith("p edge 16 24\n")
    code, out, _ = run(capsys, "realize", "--degrees", "1,1")
    assert code == 0 and out == "A_\n"

    edges, txt = tmp_path / "e.edges", tmp_path / "e.txt"
    for argv in (
        ["--format", "edges"],
        ["--format", "dimacs"],
        ["--out", str(edges)],
        ["--out", str(txt)],
    ):
        code, out, err = run(capsys, "enumerate", "--degrees", "2,2,2,2,2,2", *argv)
        assert code == 2 and out == "" and "graph6" in err
    assert not edges.exists() and not txt.exists()
    code, out, _ = run(capsys, "enumerate", "--degrees", "2,2,2,2,2,2", "--format", "graph6")
    assert code == 0 and len(out.splitlines()) == 2


def test_sample_and_reduce4(tmp_path, capsys):
    path = tmp_path / "k334.g6"
    save_graph(clique_union([3, 3, 4]), str(path))
    code, out, _ = run(capsys, "sample", "--input", str(path), "--steps", "50", "--seed", "3")
    assert code == 0
    sampled = decode_graph6(out.strip())
    assert degree_sequence(sampled) == degree_sequence(clique_union([3, 3, 4]))
    code2, out2, _ = run(capsys, "sample", "--input", str(path), "--steps", "50", "--seed", "3")
    assert out2 == out
    code, out, err = run(capsys, "sample", "--input", str(path), "--steps", "50", "--seed", "-1")
    assert code == 2 and out == "" and err.startswith("error:")

    cubic = tmp_path / "k4.g6"
    save_graph(parse_k4(), str(cubic))
    code, out, _ = run(capsys, "reduce4", "--input", str(cubic))
    assert code == 0
    assert decode_graph6(out.strip()).n == 16


def parse_k4():
    from kpartite import complete_graph

    return complete_graph(4)


def test_verify_theorem_cli(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--max-n", "5")
    assert code == 0
    assert "0 violations" in out
    assert "holds=True" in out
    # The cap is checked before the first profile is enumerated.
    code, out, err = run(capsys, "verify-theorem", "--max-n", "11")
    assert code == 2 and out == "" and "capped at total 10" in err


def test_verify_theorem_out_file_holds_the_whole_report(tmp_path, capsys):
    code, printed, _ = run(capsys, "verify-theorem", "--max-n", "6")
    assert code == 0
    path = tmp_path / "verify6.txt"
    code, out, _ = run(capsys, "verify-theorem", "--max-n", "6", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == printed.encode()
    assert printed.endswith("\nchecked 29 profiles up to total 6: 0 violations\n")


def test_seed_and_format_only_where_they_are_read(tmp_path, capsys):
    path = tmp_path / "c6.g6"
    save_graph(cycle_graph(6), str(path))
    refused = [
        ("verify-theorem", "--max-n", "3", "--seed", "1"),
        ("exact", "--alpha", "--input", str(path), "--seed", "1"),
        ("witness", "--input", str(path), "--seed", "1"),
        ("verify-theorem", "--max-n", "3", "--format", "graph6"),
        ("find-sharp", "--profile", "3,3", "--format", "edges"),
    ]
    for argv in refused:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err

def test_verify_theorem_rejects_negative_totals(capsys):
    code, out, err = run(capsys, "verify-theorem", "--max-n", "-3")
    assert code == 2 and out == ""
    assert err == "error: max_n must be non-negative, got -3\n"
    code, out, _ = run(capsys, "verify-theorem", "--max-n", "0")
    assert code == 0 and out == "checked 0 profiles up to total 0: 0 violations\n"


def test_find_sharp_cli(capsys):
    code, out, _ = run(capsys, "find-sharp", "--profile", "3,3", "--patterns", "")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 3 and payload["k"] == 2

    code, out, err = run(capsys, "find-sharp", "--profile", "3,3", "--patterns", "c5")
    assert code == 0 and out == "" and "no matching realization" in err


def test_find_sharp_checks_patterns_before_any_enumeration(capsys, monkeypatch):
    # (2,2) has no non-canonical realization, so no pattern would reach
    # contains_induced; the cap is checked before the first realization.
    code, out, err = run(capsys, "find-sharp", "--profile", "2,2", "--patterns", "p7")
    assert code == 2 and out == ""
    assert err == "error: pattern is limited to 6 vertices\n"

    def never(*args, **kwargs):
        raise AssertionError("enumerate_realizations called before the pattern cap check")

    monkeypatch.setattr(kpartite.harness, "enumerate_realizations", never)
    code, out, err = run(capsys, "find-sharp", "--profile", "3,3", "--patterns", "p4,p7")
    assert code == 2 and out == ""
    assert err == "error: pattern is limited to 6 vertices\n"


def test_find_sharp_refuses_named_patterns_before_building_them(capsys, monkeypatch):
    # p3000000 or e400000000 would exhaust memory before a cap on the built
    # graph could refuse it, so the count is checked before the build.
    def never(count):
        raise AssertionError(f"built a {count}-vertex pattern above the cap")

    monkeypatch.setattr(kpartite.cli, "path_graph", never)
    monkeypatch.setattr(kpartite.cli, "empty_graph", never)
    for name in ("p7", "e7"):
        code, out, err = run(capsys, "find-sharp", "--profile", "2,2", "--patterns", name)
        assert code == 2 and out == ""
        assert err == "error: pattern is limited to 6 vertices\n"


def test_empty_profiles_exit_2(capsys):
    code, out, err = run(capsys, "find-sharp", "--profile", "")
    assert code == 2 and out == ""
    assert err == "error: profile '' has no part sizes\n"
    code, out, err = run(capsys, "bounds", "--profiles", "3,3", "")
    assert code == 2 and out == ""
    assert err == "error: profile '' has no part sizes\n"


def test_invalid_inputs_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "exact", "--alpha", "--input", str(tmp_path / "nope.g6"))
    assert code == 2
    bad = tmp_path / "bad.g6"
    bad.write_text("not graph6 at all\x01\n")
    code, _, err = run(capsys, "recognize", "--input", str(bad))
    assert code == 2
    code, _, err = run(capsys, "realize", "--degrees", "1,1,1")
    assert code == 2
    for name, text in (("big.edges", "n=258048\n0 1\n"), ("big.col", "p edge 258048 1\n")):
        (tmp_path / name).write_text(text)
        code, _, err = run(capsys, "recognize", "--input", str(tmp_path / name))
        assert code == 2 and "258047" in err


def test_recognize_degrees_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "degrees.txt"
    path.write_text("2 2 2 2 2 2 3 3 3 3\n")
    code, out, _ = run(capsys, "recognize", "--degrees-file", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["clique_union_profile_from_degrees"] == [3, 3, 4]
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    code, stdin_out, _ = run(capsys, "recognize", "--degrees-file", "-")
    assert code == 0 and stdin_out == out

    code, out, _ = run(capsys, "realize", "--degrees-file", str(path))
    assert code == 0
    g = decode_graph6(out.strip())
    assert sorted(g.degrees()) == [2] * 6 + [3] * 4


def test_output_file_flag(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "recognize", "--degrees", "2,2,2,2", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["graphical"] is True


def test_import_loads_only_the_standard_library():
    script = (
        "import sys; before = set(sys.modules); import kpartite, kpartite.cli; "
        "new = {name.split('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(new - sys.stdlib_module_names - {'kpartite'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(kpartite.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
