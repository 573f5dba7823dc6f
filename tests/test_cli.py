import json

import pytest

import hiernet.analytics as an
import hiernet.core as core
from hiernet import ensemble, gen
from hiernet.cli import main
from hiernet.core import deserialize, serialize, validate

DEMO_TEXT = (
    "BHNET 1\n"
    "p=4 gamma=2 n=9\n"
    "L2: 3\n"
    "L1: 3 4 2\n"
    "B2.1: 100\n"
    "B1.1: 011\n"
    "B1.2: 100110\n"
    "B1.3: 1\n"
)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.bhnet"
    path.write_text(DEMO_TEXT)
    return path


def test_generate_writes_valid_file(tmp_path, capsys):
    out = tmp_path / "net.bhnet"
    rc = main(["generate", "--nodes", "30", "--p", "3", "--mu", "0.5",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("n=30 gamma=") and "edges=" in line
    model = deserialize(out.read_text())
    assert validate(model) == [] and model.shape.n == 30


def test_generate_and_node_queries_run_no_pattern_pass(tmp_path, monkeypatch):
    def refuse(model):
        raise AssertionError("the pattern pass ran")

    monkeypatch.setattr(an, "cluster_aggregates", refuse)
    out = tmp_path / "net.bhnet"
    assert main(["generate", "--nodes", "30", "--p", "3", "--mu", "0.5",
                 "--seed", "7", "--out", str(out)]) == 0
    assert main(["analyze", "--input", str(out), "--node", "5",
                 "--props", "degree,c3,clustering"]) == 0
    assert main(["analyze", "--input", str(out),
                 "--props", "edges,degree-dist,clustering-dist"]) == 0


def test_validate_runs_once_per_file_and_never_on_generated_models(tmp_path, monkeypatch):
    calls = []

    def counted(model):
        calls.append(model)
        return validate(model)

    monkeypatch.setattr(core, "validate", counted)
    params = gen.GenParams(mode="by-nodes", p=3, mu=0.5, seed=7, n=243)
    copies = [gen.generate_network(params, stream=s) for s in (1, 2, 3)]
    forest = ensemble._forest(3, copies)
    assert an.distance_distribution(forest) and an.node_degree(copies[0], 1) >= 0
    spec = ensemble.EnsembleSpec(params=params, copies=5, properties=ensemble.PROPERTIES)
    ensemble.run_ensemble(spec, workers=1)
    assert calls == []  # generated, stacked and ensemble models are trusted as built
    # a file is never written unchecked: once per write, and not again after it
    text = serialize(copies[0])
    an.edge_count(copies[0])
    assert len(calls) == 1 and calls[0] is copies[0]
    out = tmp_path / "net.bhnet"
    calls.clear()
    assert main(["generate", "--nodes", "243", "--p", "3", "--mu", "0.5",
                 "--seed", "7", "--out", str(out)]) == 0
    assert len(calls) == 1
    for extra in ([], ["--node", "5", "--props", "degree,c3,clustering"]):
        calls.clear()
        assert main(["analyze", "--input", str(out),
                     *(extra or ["--props", ",".join(ensemble.PROPERTIES) + ",wedges"])]) == 0
        assert calls == []  # the canonical loader checks the file itself, and nothing after it
    assert deserialize(text) == copies[0] and calls == []
    # another spelling loads through the line walker, which validates once
    model = deserialize(text.replace("\nL1: ", "\nL1:  ", 1))
    assert len(calls) == 1 and calls[0] is model and model == copies[0]


def test_generate_regular_node_count(tmp_path, capsys):
    out = tmp_path / "reg.bhnet"
    rc = main(["generate", "--regular", "4", "--p", "3", "--mu", "0.1",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert deserialize(out.read_text()).shape.n == 81


def test_generate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.bhnet", tmp_path / "b.bhnet"
    flags = ["--levels", "5", "--p", "4", "--mu", "0.7", "--seed", "123"]
    assert main(["generate", *flags, "--out", str(a)]) == 0
    assert main(["generate", *flags, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_writes_the_serialize_bytes(tmp_path):
    # 3-digit cluster labels, each level written to the file as it is rendered
    out = tmp_path / "reg.bhnet"
    assert main(["generate", "--regular", "7", "--p", "3", "--mu", "0.5",
                 "--seed", "7", "--out", str(out)]) == 0
    model = gen.generate_network(gen.GenParams(mode="regular", p=3, mu=0.5, seed=7, gamma=7))
    assert out.read_bytes() == serialize(model).encode("ascii")


def test_generate_usage_errors(tmp_path):
    out = str(tmp_path / "x.bhnet")
    # missing mode flag
    assert main(["generate", "--p", "3", "--mu", "0.5", "--seed", "1", "--out", out]) == 2
    # two mode flags at once
    assert main(["generate", "--nodes", "5", "--regular", "2", "--p", "3",
                 "--mu", "0.5", "--seed", "1", "--out", out]) == 2
    # bad parameter value
    assert main(["generate", "--nodes", "5", "--p", "1", "--mu", "0.5",
                 "--seed", "1", "--out", out]) == 2


def test_analyze_scalar_props(demo_file, capsys):
    rc = main(["analyze", "--input", str(demo_file), "--props", "edges,c3,c4,wedges"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"edges": 18, "c3": 17, "c4": 43, "wedges": 68}


def test_analyze_distributions(demo_file, capsys):
    rc = main(["analyze", "--input", str(demo_file),
               "--props", "degree-dist,distance-dist,components,diameter"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree-dist"] == {"1": 2, "4": 3, "5": 2, "6": 2}
    assert doc["distance-dist"] == {"1": 18, "2": 4, "unreachable": 14}
    assert doc["components"] == {"2": 1, "7": 1}
    assert doc["diameter"] == 2


def test_analyze_per_node(demo_file, capsys):
    rc = main(["analyze", "--input", str(demo_file), "--props",
               "degree,c3,clustering", "--node", "5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degree"] == 6 and doc["c3"] == 11
    assert doc["clustering"] == pytest.approx(22 / 30)


def test_analyze_csv_format(demo_file, capsys):
    rc = main(["analyze", "--input", str(demo_file), "--props", "edges,degree-dist",
               "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "copy,property,value"
    assert lines[1] == "1,edges,18"
    assert lines[2] == "1,degree-dist,1:2;4:3;5:2;6:2"


def test_analyze_unknown_prop(demo_file):
    assert main(["analyze", "--input", str(demo_file), "--props", "edges,girth"]) == 2
    assert main(["analyze", "--input", str(demo_file), "--props", "edges",
                 "--node", "3"]) == 2


def test_analyze_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.bhnet"
    bad.write_text("BHNET 1\np=4 gamma=2 n=9\nL2: 5\n")
    rc = main(["analyze", "--input", str(bad), "--props", "edges"])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err
    assert main(["analyze", "--input", str(tmp_path / "absent.bhnet"),
                 "--props", "edges"]) == 1


def test_non_ascii_file_is_a_one_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.bhnet"
    bad.write_bytes(DEMO_TEXT.encode("ascii").replace(b"B1.2: 100110", b"B1.2: 10\xff110"))
    for argv in (["analyze", "--input", str(bad), "--props", "edges"],
                 ["export", "--input", str(bad), "--out", str(tmp_path / "e.txt")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "hiernet: error: line 7: non-ASCII character '\\xff'\n"


def test_generate_huge_regular_is_a_one_line_error(tmp_path, capsys):
    out = tmp_path / "x.bhnet"
    rc = main(["generate", "--regular", "10000", "--p", "3", "--mu", "0.5",
               "--seed", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds the supported maximum" in err
    assert not out.exists()


def test_export(demo_file, tmp_path, capsys):
    out = tmp_path / "edges.txt"
    rc = main(["export", "--input", str(demo_file), "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "edges=18"
    lines = out.read_text().splitlines()
    assert len(lines) == 18 and lines[0] == "1 3"


def test_export_cap(demo_file, tmp_path, capsys):
    rc = main(["export", "--input", str(demo_file), "--out",
               str(tmp_path / "e.txt"), "--cap", "5"])
    assert rc == 1
    assert "cap" in capsys.readouterr().err


def test_out_of_memory_is_a_one_line_error(demo_file, tmp_path, capsys, monkeypatch):
    # as numpy raises it for an N x N expansion far past the machine's memory
    def refuse(model, cap):
        raise MemoryError("Unable to allocate 2.31 TiB for an array with shape "
                          "(1594323, 1594323) and data type uint8")
    monkeypatch.setattr("hiernet.cli.edge_list_text", refuse)
    out = tmp_path / "e.txt"
    rc = main(["export", "--input", str(demo_file), "--out", str(out), "--cap", "2000000"])
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err == ("hiernet: error: out of memory: Unable to allocate "
                                       "2.31 TiB for an array with shape (1594323, 1594323) "
                                       "and data type uint8\n")


def test_export_past_physical_memory_is_a_one_line_error(demo_file, tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr("hiernet.oracle._physical_memory", lambda: 80)
    out = tmp_path / "e.txt"
    rc = main(["export", "--input", str(demo_file), "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err == ("hiernet: error: n=9 needs 81 bytes of adjacency, "
                                       "more than the 80 bytes of physical memory\n")


def test_export_negative_cap_is_a_usage_error(tmp_path, capsys):
    # refused before the input is read: the file need not exist
    rc = main(["export", "--input", str(tmp_path / "missing.bhnet"), "--out",
               str(tmp_path / "e.txt"), "--cap", "-5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "hiernet: parameter error: cap must be an integer >= 0, got -5\n"


def test_ensemble_json_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["ensemble", "--nodes", "25", "--p", "3", "--mu", "0.5", "--seed", "99",
               "--copies", "4", "--props", "edges,c3,degree-dist", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["copies"] == 4 and doc["seed"] == 99
    assert len(doc["results"]["edges"]) == 4
    assert set(doc["summary"]["edges"]) == {"mean", "std", "min", "max"}


def test_ensemble_csv_writes_summary_sidecar(tmp_path):
    out = tmp_path / "report.csv"
    args = ["ensemble", "--nodes", "25", "--p", "3", "--mu", "0.5", "--seed", "99",
            "--copies", "4", "--props", "edges,c4", "--format", "csv", "--out", str(out)]
    assert main(args) == 0
    assert out.read_text().splitlines()[0] == "copy,property,value"
    side = json.loads((tmp_path / "report.csv.summary.json").read_text())
    assert side["copies"] == 4 and "c4" in side["summary"]


def test_ensemble_reruns_are_byte_identical(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        main(["ensemble", "--levels", "4", "--p", "4", "--mu", "0.3", "--seed", "5",
              "--copies", "3", "--props", "edges,distance-dist", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_ensemble_workers_flag_is_transparent(tmp_path):
    base = ["ensemble", "--nodes", "30", "--p", "3", "--mu", "0.4", "--seed", "8",
            "--copies", "6", "--props", "edges,c3"]
    o1, o2 = tmp_path / "w1.json", tmp_path / "w2.json"
    assert main([*base, "--out", str(o1)]) == 0
    assert main([*base, "--workers", "3", "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_ensemble_unknown_prop(capsys):
    assert main(["ensemble", "--nodes", "10", "--p", "3", "--mu", "0.5", "--seed", "1",
                 "--copies", "2", "--props", "edges,girth"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown property 'girth'" in err


def _refuse_copies(*args):
    raise AssertionError("a copy ran")


@pytest.mark.parametrize("flags", [
    ["--copies", "1000000000", "--props", "edges"],
    ["--copies", "0", "--props", "edges"],
    ["--copies", "2", "--props", ","],
    ["--copies", "2", "--props", "edges", "--workers", "0"],
])
def test_ensemble_bad_flags_are_one_line_errors(flags, monkeypatch, capsys):
    monkeypatch.setattr(ensemble, "generate_network", _refuse_copies)
    assert main(["ensemble", "--nodes", "10", "--p", "3", "--mu", "0.5", "--seed", "1",
                 *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("hiernet: parameter error: ")


@pytest.mark.parametrize("mode", [["--nodes", "5"], ["--levels", "2"]])
def test_generate_huge_p_is_a_one_line_error(mode, tmp_path, capsys):
    out = tmp_path / "x.bhnet"
    assert main(["generate", *mode, "--p", "99999999999999999999", "--mu", "0.5",
                 "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "p must be an integer in 2.." in err
    assert not out.exists()


def test_generate_too_many_link_bits_is_a_one_line_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(gen, "MAX_LINK_BITS", 10)
    out = tmp_path / "x.bhnet"
    assert main(["generate", "--regular", "3", "--p", "3", "--mu", "0.5",
                 "--seed", "1", "--out", str(out)]) == 2  # 13 vertices of 3 bits
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "link bits" in err
    assert not out.exists()


def test_generate_too_wide_vertex_is_a_one_line_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(gen, "MAX_CHILDREN", 2)
    out = tmp_path / "x.bhnet"
    assert main(["generate", "--regular", "2", "--p", "3", "--mu", "0.5",
                 "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "3 children, more than the supported maximum 2" in err
    assert not out.exists()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "hiernet" in capsys.readouterr().out


def test_analyze_per_node_csv(demo_file, capsys):
    rc = main(["analyze", "--input", str(demo_file), "--props", "degree,clustering",
               "--node", "5", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["copy,property,value", "1,degree,6"]
    assert lines[2].startswith("1,clustering,") and float(lines[2][13:]) == pytest.approx(22 / 30)


# -- every error is one stderr line -------------------------------------------
#
# Each case: (argv, exit code).  "{demo}" is a valid BHNET file, "{text}" a
# file that is not BHNET, "{absent}" a path that does not exist and "{dir}"
# a scratch directory.  The analyze usage errors name the absent input, so
# they also show that flags and properties are checked before any file is
# read: reading it first would exit 1.
_GEN = ["--nodes", "10", "--p", "3", "--mu", "0.5", "--seed", "1"]
_ERROR_CASES = {
    "no-command": ([], 2),
    "unknown-command": (["girth"], 2),
    "unknown-flag": (["--bogus"], 2),
    "generate-bad-value": (["generate", *_GEN[:4], "--mu", "x", "--seed", "1",
                            "--out", "{dir}/x.bhnet"], 2),
    "generate-infinite-mu": (["generate", *_GEN[:4], "--mu", "inf", "--seed", "1",
                              "--out", "{dir}/x.bhnet"], 2),
    "generate-missing-flag": (["generate", *_GEN[:6], "--out", "{dir}/x.bhnet"], 2),
    "generate-bad-param": (["generate", "--nodes", "5", "--p", "1", "--mu", "0.5",
                            "--seed", "1", "--out", "{dir}/x.bhnet"], 2),
    "generate-missing-dir": (["generate", *_GEN, "--out", "{absent}/x.bhnet"], 1),
    "analyze-bad-value": (["analyze", "--input", "{absent}", "--props", "edges",
                           "--format", "xml"], 2),
    "analyze-bad-node-value": (["analyze", "--input", "{absent}", "--props", "degree",
                                "--node", "x"], 2),
    "analyze-missing-flag": (["analyze", "--input", "{absent}"], 2),
    "analyze-unknown-prop": (["analyze", "--input", "{absent}", "--props", "edges,girth"], 2),
    "analyze-unknown-node-prop": (["analyze", "--input", "{absent}", "--props", "edges",
                                   "--node", "3"], 2),
    "analyze-empty-props": (["analyze", "--input", "{absent}", "--props", ","], 2),
    "analyze-node-too-high": (["analyze", "--input", "{demo}", "--props", "degree",
                               "--node", "10"], 1),
    "analyze-node-zero": (["analyze", "--input", "{demo}", "--props", "c3", "--node", "0"], 1),
    "analyze-missing-input": (["analyze", "--input", "{absent}", "--props", "edges"], 1),
    "analyze-not-bhnet": (["analyze", "--input", "{text}", "--props", "edges"], 1),
    "ensemble-bad-value": (["ensemble", *_GEN, "--copies", "x", "--props", "edges"], 2),
    "ensemble-infinite-mu": (["ensemble", *_GEN[:4], "--mu", "inf", "--seed", "1",
                              "--copies", "2", "--props", "edges"], 2),
    "ensemble-missing-flag": (["ensemble", *_GEN, "--props", "edges"], 2),
    "ensemble-unknown-prop": (["ensemble", *_GEN, "--copies", "2", "--props", "girth"], 2),
    "ensemble-node-prop": (["ensemble", *_GEN, "--copies", "2", "--props", "degree"], 2),
    "ensemble-empty-props": (["ensemble", *_GEN, "--copies", "2", "--props", ","], 2),
    "ensemble-missing-dir": (["ensemble", *_GEN, "--copies", "1", "--props", "edges",
                              "--out", "{absent}/r.json"], 1),
    "export-bad-value": (["export", "--input", "{demo}", "--out", "{dir}/e.txt",
                          "--cap", "x"], 2),
    "export-missing-flag": (["export", "--input", "{demo}"], 2),
    "export-missing-input": (["export", "--input", "{absent}", "--out", "{dir}/e.txt"], 1),
    "export-not-bhnet": (["export", "--input", "{text}", "--out", "{dir}/e.txt"], 1),
}


@pytest.mark.parametrize("argv, code", list(_ERROR_CASES.values()), ids=list(_ERROR_CASES))
def test_cli_error_matrix(argv, code, demo_file, tmp_path, capsys):
    text = tmp_path / "notes.txt"
    text.write_text("not a network\n")
    paths = {"demo": demo_file, "text": text, "absent": tmp_path / "absent", "dir": tmp_path}
    assert main([a.format(**paths) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    prefix = "hiernet: parameter error: " if code == 2 else "hiernet: "
    assert captured.err.startswith(prefix)
