import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thetaconf import (PosetView, boundary_matrices, degree, enumerate_nord,
                       hasse, order_complex)
from thetaconf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--labels", "a,b")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "a 0 b\t4"
    assert lines[1] == "a 1 b\t3"


def test_enumerate_counts(capsys):
    for n, labels, expected in ((1, "a,b,c", 6), (2, "a,b,c", 24)):
        code, out, _ = run(capsys, "enumerate", "--n", str(n),
                           "--labels", labels)
        assert code == 0
        assert len(out.strip().splitlines()) == expected


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--labels", "a,b",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["orderings"][1] == {
        "labels": ["a", "b"], "word": [1], "n": 2,
        "text": "a 1 b", "degree": 3}


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "1", "--labels", "a,b",
                       "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["text,degree", "a 0 b,2", "b 0 a,2"]


def test_enumerate_rejects_bad_labels(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "2", "--labels", "a,,b")
    assert code == 2
    assert "empty label" in err
    code, _, err = run(capsys, "enumerate", "--n", "2", "--labels", "a,a")
    assert code == 2
    assert "duplicate" in err


def test_enumerate_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "3",
                       "--labels", "a,b,c,d,e,f,g,h",
                       "--max-morphisms", "100")
    assert code == 2
    assert "cap" in err


def test_hasse_dot(capsys):
    code, out, _ = run(capsys, "hasse", "--n", "2", "--labels", "a,b")
    assert code == 0
    assert out.splitlines()[0] == "digraph hasse {"
    assert '  "a 1 b" -> "a 0 b";' in out
    assert out.count("->") == 4


def test_hasse_json(capsys):
    code, out, _ = run(capsys, "hasse", "--n", "2", "--labels", "a,b",
                       "--format", "json")
    payload = json.loads(out)
    assert len(payload["nodes"]) == 4
    assert len(payload["edges"]) == 4
    assert ["a 1 b", "a 0 b"] in payload["edges"]


def test_hasse_singleton_and_line(capsys):
    _, out, _ = run(capsys, "hasse", "--n", "2", "--labels", "a",
                    "--format", "text")
    assert out.strip().splitlines() == ["nodes: 1", "edges: 0"]
    _, out, _ = run(capsys, "hasse", "--n", "1", "--labels", "a,b,c",
                    "--format", "text")
    assert out.strip().splitlines()[:2] == ["nodes: 6", "edges: 0"]


def test_homology_json(capsys):
    code, out, _ = run(capsys, "homology", "--n", "2", "--labels", "a,b",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["betti"] == [1, 1]
    assert payload["torsion"] == [[], []]
    assert payload["euler"] == 0


def test_homology_text(capsys):
    code, out, _ = run(capsys, "homology", "--n", "2", "--labels", "a,b,c")
    assert code == 0
    assert "betti: [1, 3, 2]" in out


def test_homology_boundary_csv(capsys):
    code, out, _ = run(capsys, "homology", "--n", "2", "--labels", "a,b",
                       "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "degree,row,col,value"
    # the circle: four edges, each with two endpoints
    entries = [line.split(",") for line in lines[1:]]
    assert len(entries) == 8
    assert all(row[0] == "1" for row in entries)
    assert {row[3] for row in entries} == {"1", "-1"}


def test_homology_csv_rows_are_written_in_batches(tmp_path, capsys):
    # each listing is longer than one write batch, and its reference is
    # rendered here from the library and joined
    cc = boundary_matrices(order_complex(
        PosetView.of_orderings(("a", "b", "c"), 3), 10 ** 6))
    rows = ["degree,row,col,value"] + [
        f"{k},{row},{col},{value}" for k in range(1, len(cc.dims))
        for col, column in enumerate(cc.boundaries[k - 1])
        for row, value in sorted(column.items())]
    listing = [f"{o.text()}\t{degree(o)}"
               for o in enumerate_nord("abcdef", 2)]
    view = PosetView.of_orderings("abcde", 2)
    dot = (["digraph hasse {"]
           + [f'  "{o.text()}";' for o in view.elements]
           + [f'  "{a.text()}" -> "{b.text()}";' for a, b in hasse(view)]
           + ["}"])
    for args, lines in (
            (("homology", "--n", "3", "--labels", "a,b,c", "--format", "csv"),
             rows),
            (("enumerate", "--n", "2", "--labels", "a,b,c,d,e,f"), listing),
            (("hasse", "--n", "2", "--labels", "a,b,c,d,e"), dot)):
        assert len(lines) > 4096
        code, out, _ = run(capsys, *args)
        assert code == 0 and out == "\n".join(lines) + "\n"
        target = tmp_path / "listing"
        run(capsys, *args, "--output", str(target))
        assert target.read_text(encoding="utf-8") == out


def _cli_edges(out: str, fmt: str) -> list[tuple[str, str]]:
    if fmt == "json":
        return [tuple(edge) for edge in json.loads(out)["edges"]]
    if fmt == "dot":
        return [tuple(end.strip('"') for end in line.strip(" ;").split(" -> "))
                for line in out.splitlines() if " -> " in line]
    return [tuple(line.split(" -> ")) for line in out.splitlines()[2:]]


@pytest.mark.parametrize("fmt", ["text", "dot", "json"])
@pytest.mark.parametrize("n, labels", [(1, "a,b,c"), (2, "a,b,c"),
                                       (3, "a,b,c"), (2, "a,b,c,d")])
def test_hasse_edges_are_the_library_covers(capsys, fmt, n, labels):
    # the CLI reads covers by index; `hasse` renders both ends of each
    view = PosetView.of_orderings(tuple(labels.split(",")), n)
    expected = [(a.text(), b.text()) for a, b in hasse(view)]
    code, out, _ = run(capsys, "hasse", "--n", str(n), "--labels", labels,
                       "--format", fmt)
    assert code == 0
    assert _cli_edges(out, fmt) == expected


POINTS = "a 0 0\nb 0 1\nc 1 0\n"


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "2", "--labels", "a,b,c", "--format", "text"),
    ("enumerate", "--n", "2", "--labels", "a,b,c", "--format", "json"),
    ("enumerate", "--n", "2", "--labels", "a,b,c", "--format", "csv"),
    ("hasse", "--n", "2", "--labels", "a,b,c", "--format", "text"),
    ("hasse", "--n", "2", "--labels", "a,b,c", "--format", "json"),
    ("hasse", "--n", "2", "--labels", "a,b,c", "--format", "dot"),
    ("homology", "--n", "2", "--labels", "a,b,c", "--format", "text"),
    ("homology", "--n", "2", "--labels", "a,b,c", "--format", "json"),
    ("homology", "--n", "2", "--labels", "a,b,c", "--format", "csv"),
    ("classify", "--points", "POINTS", "--format", "text"),
    ("classify", "--points", "POINTS", "--format", "json"),
    ("verify", "poset", "--n", "1", "--labels", "a,b", "--format", "text"),
    ("verify", "poset", "--n", "1", "--labels", "a,b", "--format", "json"),
], ids=" ".join)
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    points = tmp_path / "points.txt"
    points.write_text(POINTS, encoding="utf-8")
    argv = [str(points) if arg == "POINTS" else arg for arg in argv]
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "out"
    code_file, out_file, _ = run(capsys, *argv, "--output", str(target))
    assert code == code_file == 0 and out and out_file == ""
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "3", "--labels", "a,b,c,d", "--max-morphisms", "100"),
    ("homology", "--n", "2", "--labels", "a,b,c,d,e"),
], ids=" ".join)
def test_capped_run_creates_no_output_file(tmp_path, capsys, argv):
    # the work, and its cap, come before the writer opens the file
    target = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2 and out == "" and "exceed the cap" in err
    assert not target.exists()


def test_homology_cap(capsys):
    code, _, err = run(capsys, "homology", "--n", "2", "--labels", "a,b,c",
                       "--max-chains", "5")
    assert code == 2
    assert "cap" in err.lower()


def test_classify_file(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("a 0 0\nb 0 1\n")
    code, out, _ = run(capsys, "classify", "--n", "2",
                       "--points", str(points))
    assert code == 0
    assert out.strip() == "a 1 b"


def test_classify_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("p 3 4 5\n"))
    code, out, _ = run(capsys, "classify", "--points", "-")
    assert code == 0
    assert out.strip() == "p"


def test_classify_json(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("a 0 0\nb 1 0\n")
    code, out, _ = run(capsys, "classify", "--n", "2",
                       "--points", str(points), "--format", "json")
    payload = json.loads(out)
    assert payload["text"] == "a 0 b"
    assert payload["word"] == [0]


def test_classify_dimension_mismatch(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("a 0 0\nb 0 1\n")
    code, _, err = run(capsys, "classify", "--n", "3",
                       "--points", str(points))
    assert code == 2
    assert "coordinates" in err


def test_classify_duplicate_rows(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("a 1 2\na 3 4\n")
    code, _, err = run(capsys, "classify", "--points", str(points))
    assert code == 2
    assert "duplicate" in err


def test_classify_overflowing_coordinate(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("a 1e999 0\nb 0 1\n"))
    code, _, err = run(capsys, "classify", "--points", "-")
    assert code == 2
    assert "line 1: bad coordinate '1e999'" in err


def test_classify_missing_file(capsys):
    code, _, err = run(capsys, "classify", "--points", "/no/such/file")
    assert code == 2
    assert "error" in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "poset", "--n", "1",
                       "--labels", "a,b")
    assert code == 0
    assert out.strip().endswith("result: PASS")


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "theorem-a", "--n", "2",
                       "--labels", "a,b", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "theorem-a"
    assert payload["passed"] is True
    assert payload["checks"][0]["betti"] == [1, 1]


@pytest.mark.parametrize("argv, counts", [
    (("cells", "--n", "2", "--labels", "a,b", "--samples", "20"),
     {"witness-roundtrip": 30}),
    (("theorem-b", "--labels", "a,b"),
     {"retract-after-embed": 102, "initiality": 96}),
])
def test_verify_labels_set_the_largest_label_count(capsys, argv, counts):
    # two labels: the round trips run to r = 3, the sweeps to r = 2
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["max_size"] == 2
    checked = {c["name"]: c["checked"] for c in payload["checks"]}
    assert {name: checked[name] for name in counts} == counts


def test_verify_failure_exit_code(monkeypatch, capsys):
    from thetaconf import cli

    def broken(**kwargs):
        return {"suite": "poset", "params": {}, "passed": False,
                "checks": [{"name": "stub", "passed": False, "checked": 1}]}

    monkeypatch.setitem(cli.SUITES, "poset", broken)
    code, out, _ = run(capsys, "verify", "poset")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("argv, message", [
    (("--n", "2", "--max-edges", "30"),
     "error: trees: 1073741824 exceed the cap 1000000"),
    (("--n", "3", "--max-edges", "11"),
     "error: tree pairs: 3152736 exceed the cap 1000000"),
], ids=["trees", "tree-pairs"])
def test_verify_morphisms_caps_its_trees(capsys, argv, message):
    code, out, err = run(capsys, "verify", "morphisms", *argv)
    assert code == 2
    assert out == ""
    assert err.strip() == message


HEIGHT_ARGV = [
    ("enumerate", "--labels", "a,b"),
    ("hasse", "--labels", "a,b"),
    ("homology", "--labels", "a,b"),
    ("verify", "theorem-a"),
    ("verify", "theorem-b"),
    ("verify", "morphisms"),
    ("verify", "poset"),
    ("verify", "cells"),
    ("verify", "cells", "--labels", "a,b"),
]


@pytest.mark.parametrize("argv", HEIGHT_ARGV)
def test_height_zero_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--n", "0")
    assert code == 2
    assert out == ""
    assert "height parameter must be >= 1, got 0" in err


@pytest.mark.parametrize("argv", HEIGHT_ARGV)
def test_negative_height_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--n", "-2")
    assert code == 2
    assert out == ""
    assert "height parameter must be >= 1, got -2" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "cells", "--samples", "-3"), "samples must be >= 0, got -3"),
    (("verify", "morphisms", "--max-edges", "-1"),
     "max_edges must be >= 0, got -1"),
])
def test_negative_sweep_size_is_an_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


@pytest.mark.parametrize("argv, name", [
    (("verify", "morphisms", "--n", "1", "--max-morphisms", "-1"),
     "max_count"),
    (("verify", "theorem-a", "--max-chains", "-1"), "max_chains"),
    (("enumerate", "--n", "2", "--labels", "a,b", "--max-morphisms", "-1"),
     "max_count"),
    (("homology", "--n", "1", "--labels", "a,b", "--max-chains", "-1"),
     "max_chains"),
])
def test_negative_cap_is_an_error(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {name} must be >= 0, got -1\n"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-m", "thetaconf", "enumerate", "--n", "1",
         "--labels", "a"], capture_output=True, text=True, env=env,
        timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "a\t1\n", "")


def test_classify_height_zero_is_an_error(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("a 0 0\nb 0 1\n")
    code, _, err = run(capsys, "classify", "--n", "0",
                       "--points", str(points))
    assert code == 2
    assert "--n is 0" in err


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, "hasse", "--n", "2", "--labels", "a,b",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("digraph hasse {")


def test_verify_seed_changes_nothing_structural(capsys):
    code_a, out_a, _ = run(capsys, "verify", "cells", "--n", "1",
                           "--labels", "a,b", "--samples", "20",
                           "--seed", "9", "--format", "json")
    code_b, out_b, _ = run(capsys, "verify", "cells", "--n", "1",
                           "--labels", "a,b", "--samples", "20",
                           "--seed", "9", "--format", "json")
    assert code_a == code_b == 0
    assert out_a == out_b



def _help(capsys, subcommand):
    with pytest.raises(SystemExit) as caught:
        main([subcommand, "--help"])
    assert caught.value.code == 0
    return " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("subcommand", ["enumerate", "hasse"])
def test_ordering_cap_help_says_it_counts_orderings(capsys, subcommand):
    assert "--max-morphisms MAX_MORPHISMS cap on the number of orderings" \
        in _help(capsys, subcommand)


@pytest.mark.parametrize("subcommand, helps", [
    ("homology", ["--max-chains MAX_CHAINS cap on the number of chains"]),
    ("verify", ["--n N sweep this height only",
                "--labels a,b,c only their count r is used: the largest "
                "label count of poset, theorem-b and cells",
                "--max-edges MAX_EDGES morphisms: largest edge count",
                "--max-morphisms MAX_MORPHISMS morphisms: cap on the morphisms",
                "--max-chains MAX_CHAINS theorem-a: cap on the chains",
                "--samples SAMPLES cells: random configurations"]),
])
def test_every_cap_and_sweep_size_says_what_it_counts(capsys, subcommand,
                                                      helps):
    text = _help(capsys, subcommand)
    for words in helps:
        assert words in text
