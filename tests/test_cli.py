import hashlib
import io
import json
import os
import subprocess
import sys
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


def test_bounds_profile_campaign(capsys):
    code, out, _ = run(capsys, "bounds", "--profiles", "3,3", "2,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("profile,schema_version,")
    assert any(line.startswith("3 3,") for line in lines[1:])


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


def test_find_sharp_cli(capsys):
    code, out, _ = run(capsys, "find-sharp", "--profile", "3,3", "--patterns", "")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 3 and payload["k"] == 2

    code, out, err = run(capsys, "find-sharp", "--profile", "3,3", "--patterns", "c5")
    assert code == 0 and out == "" and "no matching realization" in err


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
