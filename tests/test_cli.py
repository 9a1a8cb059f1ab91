import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

import reebmetrics
from reebmetrics.cli import _diagram_delta, main
from reebmetrics.diagram import Diagram, DiagramPoint
from reebmetrics.experiments import EXPERIMENTS, run_experiment
from reebmetrics.fileio import graph_to_json, graph_to_text, parse_graph_text
from reebmetrics.generators import (
    cycle,
    figure1_left,
    figure1_right,
    figure5,
    random_graph,
    segment,
    y_graph,
)


@pytest.fixture
def runner():
    return CliRunner()


def write(path, g):
    path.write_text(graph_to_text(g))
    return str(path)


def test_gen_and_diagram(runner, tmp_path):
    out = tmp_path / "y.txt"
    result = runner.invoke(main, ["gen", "Y", "-o", str(out)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["diagram", str(out)])
    assert result.exit_code == 0
    assert "Ord0 1 2" in result.output
    assert "Ext0 0 3" in result.output


def test_bottleneck_graph_files(runner, tmp_path):
    a = write(tmp_path / "a.txt", figure1_left())
    b = write(tmp_path / "b.txt", figure1_right())
    result = runner.invoke(main, ["bottleneck", a, b])
    assert result.exit_code == 0
    assert result.output.strip() == "0"


def test_bottleneck_mixed_graph_and_diagram(runner, tmp_path):
    a = write(tmp_path / "a.txt", y_graph())
    d = tmp_path / "d.txt"
    runner.invoke(main, ["diagram", a], catch_exceptions=False)
    d.write_text(runner.invoke(main, ["diagram", a]).output)
    result = runner.invoke(main, ["bottleneck", a, str(d), "--witness"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "0"
    assert any(line.startswith("match") for line in lines[1:])


def test_bottleneck_outputs_are_pinned(runner, tmp_path):
    # a graph against a copy with two values moved: the nearest-neighbour
    # floor is the optimum
    a = write(tmp_path / "y.txt", y_graph())
    b = write(tmp_path / "y-perturbed.txt", y_graph().with_values({"b": F("1.05"), "c": F("1.95")}))
    result = runner.invoke(main, ["bottleneck", a, b])
    assert result.exit_code == 0, result.output
    assert result.output == "0.05\n"
    # Ord0 1 11 is 1 from Ord0 0 10, which Ord0 0 10 needs too: the floor
    # (1) is infeasible and the search above it finds 5
    left, right = tmp_path / "left.txt", tmp_path / "right.txt"
    left.write_text("Ord0 0 10\nOrd0 1 11\n")
    right.write_text("Ord0 0 10\nOrd0 20 21\n")
    result = runner.invoke(main, ["bottleneck", str(left), str(right), "--witness"])
    assert result.exit_code == 0, result.output
    assert result.output == (
        "5\n"
        "match Ord0 0 10 -- Ord0 0 10\n"
        "diagonal left Ord0 1 11\n"
        "diagonal right Ord0 20 21\n"
    )


def test_merge_command(runner, tmp_path):
    a = write(tmp_path / "y.txt", y_graph())
    result = runner.invoke(main, ["merge", a, "1.8", "2.6"])
    assert result.exit_code == 0
    assert "v b 1" in result.output
    assert "2.2" in result.output


def test_simplify_command(runner, tmp_path):
    a = write(tmp_path / "y.txt", y_graph())
    out = tmp_path / "s.txt"
    result = runner.invoke(main, ["simplify", a, "1.5", "-o", str(out)])
    assert result.exit_code == 0
    assert "certificate" in result.output
    g = parse_graph_text(out.read_text())
    assert len(g.vertex_ids) == 2


def test_simplify_prints_its_certificate_interval(runner, tmp_path):
    # the lines before `lower` are the command's output before it printed
    # the interval, byte for byte
    a = write(tmp_path / "y.txt", y_graph())
    result = runner.invoke(main, ["simplify", a, "1.5"])
    assert result.exit_code == 0
    assert result.output == (
        "v a 0\n"
        "v d 3\n"
        "e a d\n"
        "# distortion certificate 1\n"
        "# diagram delta\n"
        "- Ord0 1 2\n"
        "lower 0.25\n"
        "upper 1 (simplification moves)\n"
        "gap 0.75\n"
    )
    result = runner.invoke(main, ["simplify", a, "0.5"])
    assert result.exit_code == 0
    assert result.output.endswith(
        "# distortion certificate 0\n"
        "# diagram delta\n"
        "(diagram unchanged)\n"
        "lower 0\n"
        "upper 0 (simplification moves)\n"
        "gap 0\n"
    )
    # the graph CI simplifies at 1
    g = tmp_path / "random.txt"
    result = runner.invoke(main, ["gen", "random", "--seed", "5", "--n", "14", "-o", str(g)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["simplify", str(g), "1"])
    assert result.exit_code == 0, result.output
    assert result.output.endswith(
        "# distortion certificate 0.82\n"
        "# diagram delta\n"
        "- Ord0 2.21 2.55\n"
        "- Rel1 1.86 1.04\n"
        "- Rel1 7.84 7.48\n"
        "lower 0.205\n"
        "upper 0.82 (simplification moves)\n"
        "gap 0.615\n"
    )


def test_transform_command(runner, tmp_path):
    y = y_graph()
    perturbed = y.with_values({"b": "1.05", "c": "1.95"})
    a = write(tmp_path / "g.txt", perturbed)
    anchors = write(tmp_path / "f.txt", y)
    result = runner.invoke(
        main, ["transform", a, "--anchors", anchors, "--alpha", "0.05"]
    )
    assert result.exit_code == 0
    graph_lines = [l for l in result.output.splitlines() if l.startswith(("v ", "e "))]
    recovered = parse_graph_text("\n".join(graph_lines))
    from reebmetrics import is_level_isomorphic

    assert is_level_isomorphic(recovered, y)


def test_iso_exit_codes(runner, tmp_path):
    a = write(tmp_path / "a.txt", y_graph())
    b = write(tmp_path / "b.txt", y_graph())
    c = write(tmp_path / "c.txt", segment())
    assert runner.invoke(main, ["iso", a, b]).exit_code == 0
    assert runner.invoke(main, ["iso", a, c]).exit_code == 1


def test_fdbound_command(runner, tmp_path):
    a = write(tmp_path / "a.txt", y_graph())
    b = write(tmp_path / "b.txt", y_graph().with_values({"b": "1.05"}))
    result = runner.invoke(main, ["fdbound", a, b])
    assert result.exit_code == 0
    assert "lower" in result.output and "upper" in result.output


def test_intrinsic_command(runner, tmp_path):
    a = write(tmp_path / "a.txt", figure1_left())
    b = write(tmp_path / "b.txt", figure1_right())
    result = runner.invoke(main, ["intrinsic", a, b])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["lower 0", "upper bound 20", "gap 20"]
    y = y_graph()
    a = write(tmp_path / "y.txt", y)
    b = write(tmp_path / "y2.txt", y.with_values({"b": "1.05", "c": "1.95"}))
    result = runner.invoke(main, ["intrinsic", a, b])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "lower 0.025", "upper bound 0.05", "gap 0.025"
    ]


def test_pathlen_command(runner, tmp_path):
    y = y_graph()
    g1 = write(tmp_path / "g1.txt", y)
    g2 = write(tmp_path / "g2.txt", y.with_values({"b": "1.05"}))
    manifest = tmp_path / "path.txt"
    manifest.write_text("0 g1.txt\n1 g2.txt\n")
    result = runner.invoke(main, ["pathlen", str(manifest), "--metric", "db"])
    assert result.exit_code == 0
    assert "total 0.05" in result.output
    result = runner.invoke(main, ["pathlen", str(manifest), "--metric", "fd"])
    assert result.exit_code == 0
    assert "total 0.05" in result.output


def test_pathlen_three_step_manifest_is_pinned(runner, tmp_path):
    # Y to the segment to the cycle: the graphs share no structure, so both
    # steps take the contraction join; the same manifest runs in CI
    for name in ("Y", "segment", "cycle"):
        result = runner.invoke(main, ["gen", name, "-o", str(tmp_path / f"{name}.txt")])
        assert result.exit_code == 0, result.output
    manifest = tmp_path / "path.txt"
    manifest.write_text("0 Y.txt\n1/2 segment.txt\n1 cycle.txt\n")
    for metric, want in (("db", ["0.5", "1.5", "2"]), ("fd", ["4", "4.5", "8.5"])):
        result = runner.invoke(main, ["pathlen", str(manifest), "--metric", metric])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [
            f"step 0: {want[0]}", f"step 1: {want[1]}", f"total {want[2]}"
        ]


def test_pathlen_reads_json_steps_like_every_command(runner, tmp_path):
    # the same three steps as the pinned manifest, written as JSON graphs
    for name in ("Y", "segment", "cycle"):
        result = runner.invoke(main, ["gen", name, "--json", "-o", str(tmp_path / f"{name}.json")])
        assert result.exit_code == 0, result.output
    manifest = tmp_path / "path.txt"
    manifest.write_text("0 Y.json\n1/2 segment.json\n1 cycle.json\n")
    result = runner.invoke(main, ["pathlen", str(manifest), "--metric", "fd"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == ["step 0: 4", "step 1: 4.5", "total 8.5"]


def test_pathlen_rejects_a_diagram_step(runner, tmp_path):
    y = write(tmp_path / "y.txt", y_graph())
    (tmp_path / "d.txt").write_text(runner.invoke(main, ["diagram", y]).output)
    manifest = tmp_path / "path.txt"
    manifest.write_text("0 y.txt\n1 d.txt\n")
    result = runner.invoke(main, ["pathlen", str(manifest)])
    assert result.exit_code == 1
    assert result.output == f"Error: {tmp_path / 'd.txt'} is a diagram, expected a graph\n"


def test_stats_command(runner, tmp_path):
    # the whole output: a graph with a minimal gap, a one-vertex graph
    # (one critical value, so no `min_gap` line) and a 14-vertex random tree
    a = write(tmp_path / "y.txt", y_graph())
    one = tmp_path / "one.txt"
    one.write_text("v a 1\n")
    # two disjoint segments: E - V + 1 once printed `betti1 -1` here
    apart = tmp_path / "apart.txt"
    apart.write_text("v a 0\nv b 1\nv c 2\nv d 3\ne a b\ne c d\n")
    rand = tmp_path / "random.txt"
    result = runner.invoke(main, ["gen", "random", "--seed", "5", "--n", "14", "-o", str(rand)])
    assert result.exit_code == 0, result.output
    want = {
        a: "vertices 4\nedges 3\nbetti1 0\ncritical_values 0 1 2 3\nmin_gap 1\n",
        str(one): "vertices 1\nedges 0\nbetti1 0\ncritical_values 1\n",
        str(apart): "vertices 4\nedges 2\nbetti1 0\ncritical_values 0 1 2 3\nmin_gap 1\n",
        str(rand): (
            "vertices 14\nedges 13\nbetti1 0\ncritical_values 0.13 1.04 1.86 2.21 2.55 "
            "2.86 3.98 4.17 5.56 5.87 7.48 7.84 8.88 9.38\nmin_gap 0.19\n"
        ),
    }
    for path, output in want.items():
        result = runner.invoke(main, ["stats", path])
        assert result.exit_code == 0, result.output
        assert result.output == output, path


def test_validate_command(runner, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("v a 1\nv b 1\ne a b\n")
    assert runner.invoke(main, ["validate", str(bad)]).exit_code == 1
    good = write(tmp_path / "good.txt", segment())
    assert runner.invoke(main, ["validate", good]).exit_code == 0


def test_validate_and_convert_outputs_on_mixed_denominators(runner, tmp_path):
    # "0.5" and "1/2" are one value, so the graph's lattice puts a and b on
    # one level; pinned byte for byte
    level = tmp_path / "level.txt"
    level.write_text("v a 0.5\nv b 1/2\nv c 2\ne a b\ne b c\n")
    result = runner.invoke(main, ["validate", str(level)])
    assert result.exit_code == 1
    assert result.output == "level-edge at edge 0 (a, b): edge joins two vertices at value 0.5\n"

    # p and q pass through; the kept vertices print by value, 1.5 before 5/3
    chain = tmp_path / "chain.txt"
    chain.write_text(
        "v a -1/3\nv p 1/7\nv q 0.25\nv b 2/3\nv c 5/3\nv d 1.5\n"
        "e a p\ne p q\ne q b\ne b c\ne b d\n"
    )
    result = runner.invoke(main, ["convert", str(chain), "--to", "canonical"])
    assert result.exit_code == 0
    assert result.output == "v a -1/3\nv b 2/3\nv d 1.5\nv c 5/3\ne a b\ne b c\ne b d\n"


def test_convert_round_trip(runner, tmp_path):
    a = write(tmp_path / "y.txt", y_graph())
    as_json = runner.invoke(main, ["convert", a, "--to", "json"])
    assert as_json.exit_code == 0
    payload = json.loads(as_json.output)
    assert payload["name"] is None or isinstance(payload["name"], str)
    assert len(payload["vertices"]) == 4


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


def test_gen_figure5(runner, tmp_path):
    result = runner.invoke(main, ["gen", "figure5", "--n", "3"])
    assert result.exit_code == 0
    g = parse_graph_text(result.output)
    from reebmetrics import critical_values

    assert len(critical_values(g)) == 5


def test_experiment_command_records(runner):
    result = runner.invoke(
        main,
        ["experiment", "figure5", "--format", "records", "--trials", "1"],
    )
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.output.splitlines() if line]
    assert all(line["pass"] for line in lines)


def test_experiment_command_text(runner):
    result = runner.invoke(
        main, ["experiment", "stability", "--trials", "5", "--seed", "3"]
    )
    assert result.exit_code == 0
    assert result.output.startswith("PASS stability")


def test_experiment_command_runs_the_library_default(runner):
    # `reeb experiment` and `run_experiment` run each suite's own trial count
    for name in EXPERIMENTS:
        result = runner.invoke(main, ["experiment", name, "--format", "records"])
        assert result.exit_code == 0, result.output
        report = run_experiment(name)
        assert len(result.output.splitlines()) == len(report.records), name
        assert result.output == report.to_records_text(), name


def test_experiment_unknown_name(runner):
    result = runner.invoke(main, ["experiment", "nope"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Invalid value" in result.output


def test_gen_unknown_name(runner):
    result = runner.invoke(main, ["gen", "nope"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Invalid value" in result.output


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


def test_fdbound_witness_file(runner, tmp_path):
    from reebmetrics.distortion import projection_correspondence
    from reebmetrics.fileio import correspondence_to_json

    y, seg = y_graph(), segment()
    a = write(tmp_path / "y.txt", y)
    b = write(tmp_path / "seg.txt", seg)
    c = projection_correspondence(y, seg, resolution=F(1, 4))
    wf = tmp_path / "witness.json"
    wf.write_text(correspondence_to_json(c))
    assert "exact" not in json.loads(wf.read_text())  # a file is never exact
    result = runner.invoke(
        main, ["fdbound", a, b, "--witness", "file", "--witness-file", str(wf)]
    )
    assert result.exit_code == 0, result.output
    assert "lower 0.25" in result.output
    assert "upper 1 (file)" in result.output  # 1/2 sampled + 2*(1/4) remainder
    assert result.output.endswith("gap 0.75\nremainder 0.5\n")


def test_fdbound_collapse_witness(runner, tmp_path):
    a = write(tmp_path / "y.txt", y_graph())
    b = write(tmp_path / "seg.txt", segment())
    result = runner.invoke(main, ["fdbound", a, b, "--witness", "collapse"])
    assert result.exit_code == 0, result.output
    assert "lower 0.25" in result.output


def test_fdbound_collapse_picks_the_side_by_shape(runner, tmp_path):
    # the cycle has two vertices but two arcs: it is not a segment
    y = write(tmp_path / "y.txt", y_graph())
    loop = write(tmp_path / "cycle.txt", cycle())
    seg = write(tmp_path / "seg.txt", segment())
    for args in ([loop, y], [y, loop]):
        result = runner.invoke(main, ["fdbound", *args, "--witness", "collapse"])
        assert result.exit_code == 1
        assert "needs a segment" in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
    outputs = [
        runner.invoke(main, ["fdbound", *args, "--witness", "collapse"])
        for args in ([loop, seg], [seg, loop])
    ]
    assert [r.exit_code for r in outputs] == [0, 0]
    # the cycle's two parallel arcs collapse onto the one arc of the segment
    cycle_onto_segment = "lower 0.75\nupper 1.5 (collapse)\ngap 0.75\nremainder 0.75\n"
    assert [r.output for r in outputs] == [cycle_onto_segment] * 2


def test_fdbound_collapse_needs_an_ascending_spine(runner, tmp_path):
    # a valid graph whose maximum no ascending path from its minimum reaches:
    # the witness cannot be built, and the graph is not blamed for it
    no_spine = tmp_path / "no-spine.txt"
    no_spine.write_text("v a 0\nv b 2\nv c 1\nv d 3\ne a b\ne c b\ne c d\n")
    assert runner.invoke(main, ["validate", str(no_spine)]).output == "valid\n"
    seg = write(tmp_path / "seg.txt", segment())
    result = runner.invoke(main, ["fdbound", str(no_spine), seg, "--witness", "collapse"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output == (
        "Error: the collapse witness needs an ascending path from a minimum to a maximum\n"
    )


def test_fdbound_collapse_target_with_an_isolated_vertex_is_no_segment(runner, tmp_path):
    y = write(tmp_path / "y.txt", y_graph())
    target = tmp_path / "seg-plus-vertex.txt"
    target.write_text("v a 0\nv b 3\nv c 1\ne a b\n")
    for args in ([y, str(target)], [str(target), y]):
        result = runner.invoke(main, ["fdbound", *args, "--witness", "collapse"])
        assert result.exit_code == 1
        assert result.output == "Error: the collapse witness needs a segment on one side\n"


# ---------------------------------------------------------------------------
# exact outputs, pinned byte for byte
# ---------------------------------------------------------------------------


def pinned_pair(name):
    """The figure 1 pair, two seeded graphs, and a seeded graph with a copy
    whose values move by multiples of 1/21 of a quarter of its smallest arc
    span, which brings in denominators the original lacks."""
    if name == "figure1":
        return figure1_left(), figure1_right()
    if name == "random":
        return random_graph(21, n_critical=10), random_graph(22, n_critical=10)
    rng = random.Random(23)
    g = random_graph(rng, n_critical=9)
    gap = min(abs(g.value(u) - g.value(v)) for u, v in g.edges)
    return g, g.with_values(
        {v: g.value(v) + gap / 4 * F(rng.randint(-21, 21), 21) for v in g.vertex_ids}
    )


# `reeb diagram` of each side, `reeb bottleneck --witness` and `reeb fdbound`.
# The outputs were captured while every value was still compared as a
# `Fraction`; the `gap` lines of `fdbound` came later, below the unchanged
# bound lines.
PINNED = {
    "figure1": (
        (
            "Ord0 3 4\n"
            "Ord0 4 5\n"
            "Ext0 0 8\n"
            "Ext1 6 2\n"
        ),
        (
            "Ord0 3 4\n"
            "Ord0 4 5\n"
            "Ext0 0 8\n"
            "Ext1 6 2\n"
        ),
        (
            "0\n"
            "match Ord0 3 4 -- Ord0 3 4\n"
            "match Ord0 4 5 -- Ord0 4 5\n"
            "match Ext0 0 8 -- Ext0 0 8\n"
            "match Ext1 6 2 -- Ext1 6 2\n"
        ),
        (
            "lower 0\n"
            "upper 20 (contraction-join)\n"
            "gap 20\n"
        ),
    ),
    "random": (
        (
            "Ord0 1.48 2.37\n"
            "Rel1 0.7 0.14\n"
            "Rel1 7.69 5.99\n"
            "Rel1 8.12 0.14\n"
            "Ext0 0.14 9.55\n"
            "Ext1 4.38 3.79\n"
        ),
        (
            "Rel1 6.95 0.53\n"
            "Rel1 8.2 7.44\n"
            "Rel1 9.23 0.53\n"
            "Ext0 0.53 9.75\n"
            "Ext1 3.29 2.39\n"
            "Ext1 6.67 5.24\n"
        ),
        (
            "3.21\n"
            "match Rel1 7.69 5.99 -- Rel1 8.2 7.44\n"
            "match Rel1 8.12 0.14 -- Rel1 9.23 0.53\n"
            "match Ext0 0.14 9.55 -- Ext0 0.53 9.75\n"
            "diagonal left Ord0 1.48 2.37\n"
            "diagonal left Rel1 0.7 0.14\n"
            "diagonal left Ext1 4.38 3.79\n"
            "diagonal right Rel1 6.95 0.53\n"
            "diagonal right Ext1 3.29 2.39\n"
            "diagonal right Ext1 6.67 5.24\n"
        ),
        (
            "lower 1.605\n"
            "upper 28.71 (contraction-join)\n"
            "gap 27.105\n"
        ),
    ),
    "jitter": (
        (
            "Ord0 1.45 2.43\n"
            "Ord0 3.36 5.58\n"
            "Rel1 9.4 1.02\n"
            "Ext0 1.02 9.68\n"
            "Ext1 7.63 6.06\n"
        ),
        (
            "Ord0 943/700 1753/700\n"
            "Ord0 3.4 1921/350\n"
            "Rel1 1648/175 0.98\n"
            "Ext0 0.98 1704/175\n"
            "Ext1 5261/700 2123/350\n"
        ),
        (
            "4/35\n"
            "match Ord0 1.45 2.43 -- Ord0 943/700 1753/700\n"
            "match Ord0 3.36 5.58 -- Ord0 3.4 1921/350\n"
            "match Rel1 9.4 1.02 -- Rel1 1648/175 0.98\n"
            "match Ext0 1.02 9.68 -- Ext0 0.98 1704/175\n"
            "match Ext1 7.63 6.06 -- Ext1 5261/700 2123/350\n"
        ),
        (
            "lower 2/35\n"
            "upper 4/35 (natural)\n"
            "gap 2/35\n"
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_are_pinned(runner, tmp_path, name):
    g1, g2 = pinned_pair(name)
    a, b = write(tmp_path / "a.txt", g1), write(tmp_path / "b.txt", g2)
    commands = (["diagram", a], ["diagram", b], ["bottleneck", a, b, "--witness"], ["fdbound", a, b])
    for args, expected in zip(commands, PINNED[name]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.output == expected, args[0]


def test_fdbound_reports_gap_and_remainder(runner, tmp_path):
    y = y_graph()
    a = write(tmp_path / "y.txt", y)
    b = write(tmp_path / "seg.txt", segment())
    # the sampled witnesses: 1/2 on the samples, plus the 2 * (1/8) remainder
    # of the default resolution; the bounds keep their lines
    result = runner.invoke(main, ["fdbound", a, b, "--witness", "collapse"])
    assert result.exit_code == 0, result.output
    assert result.output == "lower 0.25\nupper 0.75 (collapse)\ngap 0.5\nremainder 0.25\n"
    # an analytic witness has no remainder
    c = write(tmp_path / "c.txt", y.with_values({"b": "1.05"}))
    result = runner.invoke(main, ["fdbound", a, c])
    assert result.exit_code == 0, result.output
    assert result.output == "lower 0.025\nupper 0.05 (natural)\ngap 0.025\n"
    # identical graphs: the identity structure shift is 0
    result = runner.invoke(main, ["fdbound", a, a, "--witness", "natural"])
    assert result.exit_code == 0, result.output
    assert result.output == "lower 0\nupper 0 (natural)\ngap 0\n"


def test_fdbound_collapses_onto_a_point(runner, tmp_path):
    # a one-vertex graph has fewer than two critical values and no span:
    # its default resolution is 1
    y = write(tmp_path / "y.txt", y_graph())
    pt = tmp_path / "pt.txt"
    pt.write_text("v pt 1\n")
    onto_point = "lower 0.75\nupper 2.25 (collapse)\ngap 1.5\nremainder 0.25\n"
    for args, expected in (
        ([y, str(pt)], onto_point),
        ([str(pt), y], onto_point),
        ([str(pt), str(pt)], "lower 0\nupper 2 (collapse)\ngap 2\nremainder 2\n"),
    ):
        result = runner.invoke(main, ["fdbound", *args, "--witness", "collapse"])
        assert result.exit_code == 0, result.output
        assert result.output == expected, args


def test_fdbound_collapse_at_the_default_resolution_is_pinned(runner, tmp_path):
    # a 14-vertex random graph collapsed onto the segment: the witness
    # samples both graphs at the default resolution, 1/8 of the smallest
    # critical gap. Captured while the travel-distance matrix still swept
    # once per sample value.
    g, seg = tmp_path / "random.txt", tmp_path / "segment.txt"
    for args in (["random", "--seed", "5", "--n", "14", "-o", str(g)], ["segment", "-o", str(seg)]):
        result = runner.invoke(main, ["gen", *args])
        assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["fdbound", str(g), str(seg), "--witness", "collapse"])
    assert result.exit_code == 0, result.output
    assert result.output == "lower 2.3125\nupper 6.4275 (collapse)\ngap 4.115\nremainder 0.0475\n"


# `reeb merge` and `reeb transform` on the graph CI simplifies, captured
# while every band of the write path was still a `MergeParams`. At alpha
# 0.05 the 9 * alpha anchor bands overlap and merge one at a time.
MERGE_2_3 = (
    "v v0 0.13\n"
    "v v2 1.04\n"
    "v v3 1.86\n"
    "v m0 2.5\n"
    "v v7 3.98\n"
    "v v8 4.17\n"
    "v v9 5.56\n"
    "v v10 5.87\n"
    "v v11 7.48\n"
    "v v12 7.84\n"
    "v v13 8.88\n"
    "v v1 9.38\n"
    "e m0 v7\n"
    "e m0 v8\n"
    "e v0 v10\n"
    "e v0 v13\n"
    "e v0 v2\n"
    "e v11 v1\n"
    "e v11 v12\n"
    "e v2 m0\n"
    "e v2 v3\n"
    "e v8 v11\n"
    "e v8 v9\n"
    "# diagram delta\n"
    "- Ord0 2.21 2.55\n"
    "- Rel1 3.98 2.86\n"
    "+ Rel1 3.98 2.5\n"
)
TRANSFORM = {
    "1/256": (
        "v v0 0.13\n"
        "v v2 1.04\n"
        "v v3 1.86\n"
        "v v5 2.21\n"
        "v v4 2.55\n"
        "v v6 2.86\n"
        "v v7 3.98\n"
        "v v8 4.17\n"
        "v v9 5.56\n"
        "v v10 5.87\n"
        "v v11 7.48\n"
        "v v12 7.84\n"
        "v v13 8.88\n"
        "v v1 9.38\n"
        "e v0 v10\n"
        "e v0 v13\n"
        "e v0 v2\n"
        "e v11 v1\n"
        "e v11 v12\n"
        "e v2 v3\n"
        "e v2 v4\n"
        "e v4 v6\n"
        "e v5 v4\n"
        "e v6 v7\n"
        "e v6 v8\n"
        "e v8 v11\n"
        "e v8 v9\n"
        "# distortion certificate 0.0703125\n"
        "# diagram delta\n"
        "(diagram unchanged)\n"
    ),
    "0.05": (
        "v v0 0.13\n"
        "v v2 1.04\n"
        "v m2 2.86\n"
        "v m3 2.86\n"
        "v m1 4.17\n"
        "v m4 4.17\n"
        "v m5 5.87\n"
        "v m6 5.87\n"
        "v v13 8.88\n"
        "v v1 9.38\n"
        "e m1 m6\n"
        "e m1 v1\n"
        "e m3 m1\n"
        "e m3 m4\n"
        "e v0 m5\n"
        "e v0 v13\n"
        "e v0 v2\n"
        "e v2 m2\n"
        "e v2 m3\n"
        "# distortion certificate 12.6\n"
        "# diagram delta\n"
        "- Ord0 2.21 2.55\n"
        "- Rel1 1.86 1.04\n"
        "- Rel1 3.98 2.86\n"
        "- Rel1 5.56 4.17\n"
        "- Rel1 7.84 7.48\n"
        "+ Rel1 2.86 1.04\n"
        "+ Rel1 4.17 2.86\n"
        "+ Rel1 5.87 4.17\n"
    ),
}


def test_merge_and_transform_outputs_are_pinned(runner, tmp_path):
    g = tmp_path / "r.txt"
    result = runner.invoke(main, ["gen", "random", "--seed", "5", "--n", "14", "-o", str(g)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["merge", str(g), "2", "3"])
    assert result.exit_code == 0, result.output
    assert result.stdout == MERGE_2_3
    for alpha, expected in TRANSFORM.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args = ["transform", str(g), "--anchors", str(g), "--alpha", alpha]
            result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.stdout == expected, alpha
        assert [str(w.message)[:20] for w in caught] == (
            ["anchor bands overlap"] if alpha == "0.05" else []
        )


def test_merge_delta_counts_multiplicities(runner, tmp_path):
    # the merge snaps f2 to 2.5, so a second Ord0 1 2.5 joins the first; a
    # membership test saw only the point that left
    g = tmp_path / "twins.txt"
    g.write_text(
        "v bot 0\nv f2 2.2\nv f1 2.5\nv top 5\nv t1 1\nv t2 1\n"
        "e bot f2\ne f2 f1\ne f1 top\ne t1 f1\ne t2 f2\n"
    )
    result = runner.invoke(main, ["merge", str(g), "2", "3"])
    assert result.exit_code == 0, result.output
    assert result.stdout.endswith("# diagram delta\n- Ord0 1 2.2\n+ Ord0 1 2.5\n")


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


@pytest.mark.parametrize("edge", ["1.9", "1.0", "true", '"1"'])
def test_fdbound_witness_edge_index_is_a_json_integer(runner, tmp_path, edge):
    # an edge index once went through int(): 1.9 read as edge 1, and 1.0,
    # true and "1" were taken alike
    from reebmetrics.distortion import projection_correspondence
    from reebmetrics.fileio import correspondence_to_json

    y, seg = y_graph(), segment()
    a = write(tmp_path / "y.txt", y)
    b = write(tmp_path / "seg.txt", seg)
    text = correspondence_to_json(projection_correspondence(y, seg, resolution=F(1, 4)))
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
    from reebmetrics.distortion import projection_correspondence
    from reebmetrics.fileio import correspondence_to_json

    y, seg = y_graph(), segment()
    a = write(tmp_path / "y.txt", y)
    b = write(tmp_path / "seg.txt", seg)
    payload = json.loads(
        correspondence_to_json(projection_correspondence(y, seg, resolution=F(1, 4)))
    )
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
