"""Command-line checks that are not transcripts.

Every pinned output of `reeb` is a case of `cli_transcripts.txt`, and each
case is a test of this module under its own name (see the end of the file).
The tests written out here compare the command line with the library, run
one kind of error across every command, run the module in a child process,
or check the transcript runner itself.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

import reebmetrics
from cli_transcripts import TRANSCRIPTS, in_process, parse, run_case
from reebmetrics.cli import _diagram_delta, main
from reebmetrics.diagram import Diagram, DiagramPoint
from reebmetrics.distortion import projection_correspondence
from reebmetrics.experiments import EXPERIMENTS, run_experiment
from reebmetrics.fileio import correspondence_to_json, graph_to_json, graph_to_text
from reebmetrics.generators import (
    cycle,
    figure1_left,
    figure1_right,
    figure5,
    random_graph,
    segment,
    y_graph,
)

CASES = parse(TRANSCRIPTS.read_text())


@pytest.fixture
def runner():
    return CliRunner()


def write(path, g):
    path.write_text(graph_to_text(g))
    return str(path)


GEN_CASES = [
    (["segment"], segment),
    (["cycle"], cycle),
    (["Y"], y_graph),
    (["y"], y_graph),
    (["figure1_left"], figure1_left),
    (["figure1_right"], figure1_right),
    (["figure5"], lambda: figure5(3)),
    (["figure5", "--n", "6"], lambda: figure5(6)),
    (["random"], lambda: random_graph(7)),
    (["random", "--seed", "3", "--n", "9"], lambda: random_graph(3, n_critical=9)),
]


@pytest.mark.parametrize("args, make", GEN_CASES, ids=[" ".join(a) for a, _ in GEN_CASES])
def test_gen_prints_the_generator_graph(runner, args, make):
    result = runner.invoke(main, ["gen", *args])
    assert result.exit_code == 0, result.output
    assert result.output == graph_to_text(make())
    result = runner.invoke(main, ["gen", *args, "--json"])
    assert result.exit_code == 0, result.output
    assert result.output == graph_to_json(make())


def test_experiment_command_runs_the_library_default(runner):
    # `reeb experiment` and `run_experiment` run each suite's own trial count
    for name in EXPERIMENTS:
        result = runner.invoke(main, ["experiment", name, "--format", "records"])
        assert result.exit_code == 0, result.output
        report = run_experiment(name)
        assert len(result.output.splitlines()) == len(report.records), name
        assert result.output == report.to_records_text(), name


PASS_THROUGH = "v a 0\nv b 1\nv c 2\ne a b\ne b c\n"
DISCONNECTED = "v a 0\nv b 1\nv c 2\nv d 3\ne a b\ne c d\n"


@pytest.mark.parametrize(
    "text, violation",
    [(PASS_THROUGH, "pass-through at vertex b"), (DISCONNECTED, "2 connected components")],
    ids=["pass-through", "disconnected"],
)
@pytest.mark.parametrize(
    "command", ["diagram", "bottleneck", "simplify", "merge", "transform", "intrinsic"]
)
def test_invalid_graph_is_a_one_line_error(runner, tmp_path, command, text, violation):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    good = write(tmp_path / "y.txt", y_graph())
    args = {
        "diagram": [bad],
        "bottleneck": [bad, good],
        "simplify": [bad, "1"],
        "merge": [bad, "1/2", "3/2"],
        "transform": [bad, "--anchors", good, "--alpha", "1/10"],
        "intrinsic": [bad, good],
    }[command]
    result = runner.invoke(main, [command, *map(str, args)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    [error] = result.output.splitlines()  # and nothing printed before it
    assert error.startswith("Error: invalid graph: ")
    assert violation in error
    assert "reeb convert --to canonical" in error


def test_module_run_is_the_command_line(runner, tmp_path):
    # `python -m reebmetrics.cli` runs the command it is given: the segment's
    # diagram as `reeb diagram` prints it, and exit 1 on a pass-through graph
    seg = write(tmp_path / "seg.txt", segment())
    bad = tmp_path / "bad.txt"
    bad.write_text(PASS_THROUGH)
    src = str(Path(reebmetrics.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*args):
        command = [sys.executable, "-m", "reebmetrics.cli", *args]
        return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)

    diagram = run("diagram", seg)
    assert diagram.returncode == 0, diagram.stderr
    assert diagram.stdout == runner.invoke(main, ["diagram", seg]).output == "Ext0 0 3\n"
    invalid = run("validate", str(bad))
    assert invalid.returncode == 1
    assert invalid.stdout == runner.invoke(main, ["validate", str(bad)]).output


def comb_pair_text(teeth: int) -> tuple[str, str]:
    """A comb with `teeth` downward teeth and a copy with every value moved
    by at most 8/256, as graph text; values are counts of 1/256.

    Tooth i forks off the trunk at 1024 i + 896 and ends 256 to 768 below,
    so every gap between values is at least 256 and the moves keep the
    structure. Both diagrams hold `teeth` Ord0 points and one Ext0 point,
    and some tooth end moves by exactly 8, so the bottleneck distance is
    8/256 = 0.03125.
    """
    values = {"b": 0}
    edges = []
    prev = "b"
    for i in range(1, teeth + 1):
        values[f"f{i}"] = fork = 1024 * i + 896
        values[f"t{i}"] = fork - 256 - (37 * i) % 513
        edges += [(prev, f"f{i}"), (f"f{i}", f"t{i}")]
        prev = f"f{i}"
    values["top"] = 1024 * (teeth + 1) + 128
    edges.append((prev, "top"))
    moved = {vid: value + (7 * k) % 17 - 8 for k, (vid, value) in enumerate(values.items())}
    edge_lines = [f"e {u} {v}\n" for u, v in edges]
    return tuple(
        "".join([*(f"v {vid} {value}/256\n" for vid, value in vals.items()), *edge_lines])
        for vals in (values, moved)
    )


def test_bottleneck_of_a_100002_vertex_comb_pair_runs_in_1_gb(tmp_path):
    # a valid input the dense n·k distance matrix could not hold: 50 000
    # Ord0 points a side. The child limits its own address space to 1 GB.
    paths = [tmp_path / "comb.txt", tmp_path / "moved.txt"]
    for path, text in zip(paths, comb_pair_text(50_000)):
        path.write_text(text)
    assert paths[0].read_text().count("\nv ") + 1 == 100_002
    limited = (
        "import resource, runpy, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "sys.argv = ['reeb', *sys.argv[1:]]\n"
        "runpy.run_module('reebmetrics.cli', run_name='__main__')\n"
    )
    src = str(Path(reebmetrics.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-c", limited, "bottleneck", *map(str, paths)]
    result = subprocess.run(
        command, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout == "0.03125\n"


# a missing path, and one file each that no reader parses
BAD_FILES = {
    "missing": None,
    "v b x": "v b x\n",
    "json": '{"vertices": 3}\n',
    "x y": "x y\n",
    # a JSON number is not an exact value: only strings parse
    "json number": '{"vertices": [{"id": "a", "value": 1}, {"id": "b", "value": 2}],'
    ' "edges": [["a", "b"]]}\n',
    # a zero denominator is a bad value, in either format
    "v b 1/0": "v b 1/0\n",
    "json 0/0": '{"vertices": [{"id": "a", "value": "0/0"}], "edges": []}\n',
}


@pytest.mark.parametrize("bad_file", BAD_FILES)
@pytest.mark.parametrize(
    "command, args",
    [
        ("diagram", ["BAD"]),
        ("bottleneck", ["Y", "BAD"]),
        ("merge", ["BAD", "1/2", "3/2"]),
        ("simplify", ["BAD", "1"]),
        ("transform", ["BAD", "--anchors", "Y", "--alpha", "1/10"]),
        ("transform", ["Y", "--anchors", "BAD", "--alpha", "1/10"]),
        ("iso", ["Y", "BAD"]),
        ("fdbound", ["BAD", "Y"]),
        ("fdbound", ["Y", "Y", "--witness", "file", "--witness-file", "BAD"]),
        ("pathlen", ["BAD"]),
        ("pathlen", ["MANIFEST"]),
        ("intrinsic", ["Y", "BAD"]),
        ("stats", ["BAD"]),
        ("convert", ["BAD"]),
        ("validate", ["BAD"]),
    ],
    ids=[
        "diagram", "bottleneck", "merge", "simplify", "transform", "transform-anchors",
        "iso", "fdbound", "fdbound-witness-file", "pathlen-manifest", "pathlen-step",
        "intrinsic", "stats", "convert", "validate",
    ],
)
def test_unreadable_file_is_a_one_line_error(runner, tmp_path, command, args, bad_file):
    bad = tmp_path / "bad.txt"
    if BAD_FILES[bad_file] is not None:
        bad.write_text(BAD_FILES[bad_file])
    manifest = tmp_path / "path.txt"
    manifest.write_text("0 y.txt\n1 bad.txt\n")
    paths = {"BAD": bad, "Y": write(tmp_path / "y.txt", y_graph()), "MANIFEST": manifest}
    result = runner.invoke(main, [command, *(str(paths.get(a, a)) for a in args)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    [error] = result.output.splitlines()  # and nothing printed before it
    assert error.startswith(f"Error: cannot read {bad}: "), error


@pytest.mark.parametrize(
    "args, message",
    [
        (["merge", "Y", "3", "2"], "merge band needs a <= b"),
        (["simplify", "Y", "--", "-1"], "alpha must be positive"),
        (["simplify", "Y", "x"], "not a decimal or ratio value: 'x'"),
        (["transform", "Y", "--anchors", "Y", "--alpha", "0"], "alpha must be positive"),
        (["transform", "Y", "--anchors", "Y", "--alpha", "x"], "not a decimal"),
        (["experiment", "stability", "--trials", "0"], "trials must be positive"),
        (["gen", "random", "--n", "1"], "need at least two critical values"),
        (["gen", "random", "--n", "0"], "need at least two critical values"),
        (["gen", "figure5", "--n", "-1"], "n must be nonnegative"),
        (["pathlen", "HALF"], "path must start at t=0 and end at t=1"),
        (["pathlen", "REPEAT"], "time stamps must strictly increase"),
        (["simplify", "Y", "1/0"], "zero denominator in value '1/0'"),
        (["merge", "Y", "0/0", "1"], "zero denominator in value '0/0'"),
        (["pathlen", "ZERO"], "zero denominator in value '1/0'"),
        # a command given the wrong kind of input as a whole
        (["diagram", "DIAGRAM"], "is a diagram, expected a graph"),
        (["fdbound", "Y", "Y", "--witness", "file"], "--witness file needs --witness-file"),
        (["fdbound", "Y", "Y", "--witness-file", "MISSING"], "--witness-file needs --witness file"),
        (["pathlen", "ONE"], "manifest needs at least two steps"),
    ],
    ids=[
        "merge-band", "simplify-negative", "simplify-x", "transform-zero", "transform-x",
        "experiment-trials", "gen-random", "gen-random-zero", "gen-figure5", "pathlen-half",
        "pathlen-repeat", "simplify-zero-denominator", "merge-zero-denominator",
        "pathlen-zero-denominator", "diagram-of-a-diagram", "fdbound-no-witness-file",
        "fdbound-witness-file-alone", "pathlen-one-step",
    ],
)
def test_bad_number_is_a_one_line_error(runner, tmp_path, args, message):
    (tmp_path / "half.txt").write_text("0 y.txt\n1/2 y.txt\n")
    (tmp_path / "repeat.txt").write_text("0 y.txt\n1 y.txt\n1 y.txt\n")
    (tmp_path / "zero.txt").write_text("0 y.txt\n1/0 y.txt\n")
    (tmp_path / "one.txt").write_text("0 y.txt\n")
    (tmp_path / "diagram.txt").write_text("Ord0 1 2\n")
    paths = {
        "Y": write(tmp_path / "y.txt", y_graph()),
        "HALF": tmp_path / "half.txt",
        "REPEAT": tmp_path / "repeat.txt",
        "ZERO": tmp_path / "zero.txt",
        "ONE": tmp_path / "one.txt",
        "DIAGRAM": tmp_path / "diagram.txt",
        "MISSING": tmp_path / "missing.json",  # never written
    }
    result = runner.invoke(main, [str(paths.get(a, a)) for a in args])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    [error] = result.output.splitlines()  # and nothing printed before it
    assert error.startswith("Error: ") and message in error, error


@pytest.mark.parametrize(
    "args, text, message",
    [
        (["diagram", "BAD"], "v a 0\nv a 1\n", "duplicate vertex id 'a'"),
        (["diagram", "BAD"], "v a 0\ne a b\n", "edge (a, b) references unknown vertex"),
        (
            ["fdbound", "Y", "Y", "--witness", "file", "--witness-file", "BAD"],
            "[]\n",
            "expected a JSON object with resolution, phi and psi",
        ),
    ],
    ids=["duplicate-id", "unknown-vertex", "witness-list"],
)
def test_whole_file_error_names_no_line(runner, tmp_path, args, text, message):
    # an error of the whole file, not of one line, once read "line 0: ..."
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    paths = {"BAD": bad, "Y": write(tmp_path / "y.txt", y_graph())}
    result = runner.invoke(main, [str(paths.get(a, a)) for a in args])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: cannot read {bad}: {message}\n"


def test_diagram_delta_is_a_multiset_difference():
    p, q = DiagramPoint("Ord0", 1, 2), DiagramPoint("Rel1", 3, 1)
    assert _diagram_delta(Diagram([p, p, q]), Diagram([p, q])) == "- Ord0 1 2"
    assert _diagram_delta(Diagram([q]), Diagram([p, q, p])) == "+ Ord0 1 2\n+ Ord0 1 2"
    assert _diagram_delta(Diagram([p, p]), Diagram([p, p])) == "(diagram unchanged)"


def vertex_pairs(*ids):
    return [[{"vertex": v}, {"vertex": v}] for v in ids]


@pytest.mark.parametrize(
    "pair, witness, message",
    [
        # a vertex-only map stated exact: the remainder would be dropped, and
        # its upper bound 0 fell below the lower bound 3/4
        (
            ("cycle", "segment"),
            {
                "resolution": "1",
                "exact": True,
                "phi": vertex_pairs("bot", "top"),
                "psi": vertex_pairs("bot", "top"),
            },
            "never exact",
        ),
        # one sample of 14 000 per graph once certified upper 0.002 for two
        # graphs that are not isomorphic
        (
            ("figure1_left", "figure1_right"),
            {"resolution": "1/1000", "phi": vertex_pairs("bot"), "psi": vertex_pairs("bot")},
            "phi maps 1 of the 14000 samples",
        ),
        (
            ("cycle", "segment"),
            {"resolution": "1", "phi": vertex_pairs("zz"), "psi": vertex_pairs("bot")},
            "zz",
        ),
        # a JSON number is not an exact value, and a float would not be exact
        (
            ("cycle", "segment"),
            {"resolution": 1, "phi": vertex_pairs("bot"), "psi": vertex_pairs("bot")},
            "not a decimal or ratio value: 1",
        ),
    ],
)
def test_fdbound_rejects_a_witness_file_that_certifies_nothing(
    runner, tmp_path, pair, witness, message
):
    a, b = (tmp_path / f"{name}.txt" for name in pair)
    for name, path in zip(pair, (a, b)):
        result = runner.invoke(main, ["gen", name, "-o", str(path)])
        assert result.exit_code == 0, result.output
    wf = tmp_path / "witness.json"
    wf.write_text(json.dumps(witness))
    args = ["fdbound", str(a), str(b), "--witness", "file", "--witness-file", str(wf)]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    [error] = result.output.splitlines()
    assert error.startswith("Error: bad witness file ")
    assert message in error


def witness_fixture(name):
    """A witness file of the transcript case `test_fdbound_witness_file`."""
    [case] = [case for case in CASES if case.name == "test_fdbound_witness_file"]
    return "".join(f"{line}\n" for line in case.files[name])


def test_the_witness_fixtures_are_what_the_library_writes():
    # collapse.json is the collapse witness of the Y onto the segment at
    # resolution 1/4, as `correspondence_to_json` writes it (with no `exact`
    # key: a file is never exact); short.json lacks its first phi pair
    c = projection_correspondence(y_graph(), segment(), resolution=F(1, 4))
    collapse = json.loads(witness_fixture("collapse.json"))
    assert json.loads(correspondence_to_json(c)) == collapse
    assert json.loads(witness_fixture("short.json")) == {**collapse, "phi": collapse["phi"][1:]}


@pytest.mark.parametrize("edge", ["1.9", "1.0", "true", '"1"'])
def test_fdbound_witness_edge_index_is_a_json_integer(runner, tmp_path, edge):
    # an edge index once went through int(): 1.9 read as edge 1, and 1.0,
    # true and "1" were taken alike
    a = write(tmp_path / "y.txt", y_graph())
    b = write(tmp_path / "seg.txt", segment())
    text = witness_fixture("collapse.json")
    assert '"edge": 1,' in text
    wf = tmp_path / "witness.json"
    wf.write_text(text.replace('"edge": 1,', f'"edge": {edge},', 1))
    args = ["fdbound", a, b, "--witness", "file", "--witness-file", str(wf)]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    [error] = result.output.splitlines()
    assert error.startswith("Error: bad witness file ")
    assert f"an edge index is a JSON integer, not {edge}" in error


@pytest.mark.parametrize("edge, value", [(-1, "0"), (-1, "1/4"), (1, "0")])
def test_fdbound_witness_edge_index_is_on_the_graph(runner, tmp_path, edge, value):
    # Python wraps a negative index: edge -1 at value 0 once read as the
    # segment's vertex bot and was accepted
    a = write(tmp_path / "y.txt", y_graph())
    b = write(tmp_path / "seg.txt", segment())
    payload = json.loads(witness_fixture("collapse.json"))
    pair = payload["phi"].index([{"vertex": "a"}, {"vertex": "bot"}])
    payload["phi"][pair][1] = {"edge": edge, "value": value}
    wf = tmp_path / "witness.json"
    wf.write_text(json.dumps(payload))
    args = ["fdbound", a, b, "--witness", "file", "--witness-file", str(wf)]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    [error] = result.output.splitlines()
    assert error.startswith("Error: bad witness file ")
    assert f"no edge {edge}: the graph has 1 edges" in error


@pytest.mark.parametrize(
    "manifest, line",
    [
        ("# steps\r\n\r\n  \r\n\t# indented\r\n0 y.txt\r\n \r\n1\r\n", 7),
        ("0 y.txt\n\n   # the end step\n1 y.txt\n  1/2  \n", 5),
    ],
)
def test_manifest_reports_the_physical_line(runner, tmp_path, manifest, line):
    # a step without a file name is named by its line in the file, counting
    # comments, blank and whitespace-only lines alike
    write(tmp_path / "y.txt", y_graph())
    path = tmp_path / "path.txt"
    path.write_bytes(manifest.encode())
    result = runner.invoke(main, ["pathlen", str(path)])
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: cannot read {path}: line {line}: expected '<t> <file>'\n"


# ---------------------------------------------------------------------------
# the transcript runner fails loudly
# ---------------------------------------------------------------------------


def case_text(name):
    """The setup lines of the transcript file and one of its cases."""
    text = TRANSCRIPTS.read_text()
    start = text.index(f"=== {name}\n")
    end = text.find("\n=== ", start) + 1 or None
    return text[: text.index("\n===") + 1] + text[start:end]


@pytest.mark.parametrize(
    "name, old, new, failure",
    [
        (
            "test_merge_and_transform_outputs_are_pinned",
            "| # distortion certificate 12.6\n",
            "| # distortion certificate 12.5\n",
            "stdout differs:",
        ),
        ("test_iso_exit_codes", "isomorphic\n? 1\n", "isomorphic\n? 0\n", "exit code 1"),
        (
            "test_merge_and_transform_outputs_are_pinned",
            "least anchor gap, 0\\.19",
            "least anchor gap, 0\\.2",
            "stderr does not match its `!` lines",
        ),
    ],
    ids=["stdout", "exit-code", "stderr"],
)
def test_a_changed_expectation_fails_its_case(tmp_path, name, old, new, failure):
    text = case_text(name)
    assert text.count(old) == 1
    [case] = parse(text.replace(old, new))
    [message] = run_case(case, in_process, tmp_path)
    assert failure in message, message


def test_a_traceback_fails_its_case(tmp_path, monkeypatch):
    def broken(g):
        raise RuntimeError("broken")

    monkeypatch.setattr("reebmetrics.cli.validate", broken)
    [case] = parse(case_text("test_validate_command"))
    assert "a Traceback on stderr" in "\n".join(run_case(case, in_process, tmp_path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("=== test_x\n$ stats y.txt\n? 1\nvertices 4\n", "line 4: not a line of a case here"),
        ("=== test_x\n$ stats y.txt\n? 1\n| vertices 4\n", "line 4: not a line of a case here"),
        ("=== test_x\n$ stats y.txt\n| vertices 4\n", "line 2: a command with no exit-code line"),
        ("$ stats y.txt\n? 0\n", "line 1: outside a case"),
        ("=== test_x\n$ stats y.txt\n? one\n", "line 3: an exit code is an integer"),
    ],
    ids=["unknown-line", "stdout-after-exit", "no-exit-code", "outside-a-case", "exit-code-word"],
)
def test_a_line_the_runner_cannot_place_is_an_error(text, message):
    with pytest.raises(ValueError, match=message):
        parse(text)


# ---------------------------------------------------------------------------
# every transcript case is a test of its own name
# ---------------------------------------------------------------------------


def check_case(case, directory):
    failures = run_case(case, in_process, directory)
    assert not failures, "\n".join(failures)


def case_test(group):
    """The test of the cases of one name, parametrized by id when they are
    named `test_x[id]`."""
    if len(group) == 1 and "[" not in group[0].name:
        [case] = group

        def test(tmp_path):
            check_case(case, tmp_path)

        return test

    @pytest.mark.parametrize(
        "case", group, ids=[case.name.partition("[")[2].removesuffix("]") for case in group]
    )
    def test(tmp_path, case):
        check_case(case, tmp_path)

    return test


_GROUPS = {}
for _case in CASES:
    _GROUPS.setdefault(_case.name.partition("[")[0], []).append(_case)
assert all(name.startswith("test_") for name in _GROUPS), "a case name starts with test_"
assert not _GROUPS.keys() & globals().keys(), "a case may not shadow a test above"
globals().update({name: case_test(group) for name, group in _GROUPS.items()})
