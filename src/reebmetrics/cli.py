"""Command-line interface.

Subcommands operate on graph/diagram text files and print exact rational
values. `experiment` runs the named verification suites and exits nonzero
when any assertion fails.
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Optional

import click
from click.core import ParameterSource

from . import __version__
from .bottleneck import bottleneck
from .diagram import Diagram
from .distortion import FDBoundCertificate, certify_fd_upper, projection_correspondence
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from .fileio import (
    ParseError,
    _data_lines,
    correspondence_from_json,
    diagram_to_text,
    graph_to_json,
    graph_to_text,
    load_graph_or_diagram,
)
from .generators import cycle, figure1_left, figure1_right, figure5, random_graph, segment, y_graph
from .graph import InvalidGraphError, ReebGraph, canonicalize, critical_values, validate
from .isomorphism import level_isomorphism
from .operators import MergeParams, TransformParams, full_transform, merge, simplify
from .paths import GraphPath, _intrinsic_bound, intrinsic_upper, path_length
from .persistence import extended_diagram
from .rationals import format_value, parse_value


_GENERATORS = {
    "segment": segment,
    "cycle": cycle,
    "Y": y_graph,
    "y": y_graph,
    "figure1_left": figure1_left,
    "figure1_right": figure1_right,
    "figure5": figure5,
    "random": random_graph,
}


def _load(path: str, parse=load_graph_or_diagram):
    """Parse one input file; one that cannot be read or parsed is a one-line error."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> ReebGraph:
    obj = _load(path)
    if not isinstance(obj, ReebGraph):
        raise click.ClickException(f"{path} is a diagram, expected a graph")
    return obj


def _as_diagram(obj) -> Diagram:
    if isinstance(obj, Diagram):
        return obj
    return extended_diagram(obj)


def _emit_graph(g: ReebGraph, output: Optional[str], as_json: bool = False) -> None:
    text = graph_to_json(g) if as_json else graph_to_text(g)
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=False)


class _ReebGroup(click.Group):
    """Reports a graph that breaks an invariant, or any other bad value a
    command rejects, as a one-line error (exit 1), and each warning the
    library raises as one `Warning: <message>` line on stderr."""

    def invoke(self, ctx: click.Context):
        with warnings.catch_warnings(record=True) as caught:
            try:
                return super().invoke(ctx)
            except InvalidGraphError as exc:
                details = "; ".join(str(exc).splitlines())
                raise click.ClickException(
                    f"invalid graph: {details} (`reeb convert --to canonical` removes "
                    "pass-through vertices)"
                ) from exc
            except ValueError as exc:
                raise click.ClickException(str(exc)) from exc
            finally:
                for w in caught:
                    click.echo(f"Warning: {w.message}", err=True)


@click.group(cls=_ReebGroup)
@click.version_option(version=__version__, prog_name="reeb")
def main() -> None:
    """Reeb graph metrics: diagrams, distances, operators, experiments."""


@main.command()
@click.argument("path")
def diagram(path: str) -> None:
    """Print the extended persistence diagram of a graph file."""
    g = _load_graph(path)
    click.echo(diagram_to_text(extended_diagram(g)), nl=False)


@main.command(name="bottleneck")
@click.argument("file_a")
@click.argument("file_b")
@click.option("--witness", is_flag=True, help="also print the optimal matching")
def bottleneck_cmd(file_a: str, file_b: str, witness: bool) -> None:
    """Exact bottleneck distance between two graph or diagram files."""
    d1 = _as_diagram(_load(file_a))
    d2 = _as_diagram(_load(file_b))
    result = bottleneck(d1, d2)
    click.echo(format_value(result.value))
    if witness:
        for i, j in result.witness.pairs:
            click.echo(f"match {d1.points[i]} -- {d2.points[j]}")
        for i in result.witness.unmatched_left:
            click.echo(f"diagonal left {d1.points[i]}")
        for j in result.witness.unmatched_right:
            click.echo(f"diagonal right {d2.points[j]}")


def _diagram_delta(before: Diagram, after: Diagram) -> str:
    """The multiset difference each way, each side in its diagram's order."""
    old, new = Counter(before.points), Counter(after.points)
    lines = [f"- {p}" for p in (old - new).elements()]
    lines += [f"+ {p}" for p in (new - old).elements()]
    return "\n".join(lines) if lines else "(diagram unchanged)"


def _emit_operator_result(
    g: ReebGraph, result: ReebGraph, certificate: Fraction, output: Optional[str]
) -> None:
    """The operator's graph, its distortion certificate and diagram delta."""
    _emit_graph(result, output)
    click.echo(f"# distortion certificate {format_value(certificate)}")
    click.echo("# diagram delta")
    click.echo(_diagram_delta(extended_diagram(g), extended_diagram(result)))


def _emit_bounds(cert: FDBoundCertificate, upper_line: str) -> None:
    """The certified interval: `lower`, the upper line and `gap`; `{}` in
    `upper_line` stands for the upper bound."""
    click.echo(f"lower {format_value(cert.lower)}")
    click.echo(upper_line.format(format_value(cert.upper)))
    click.echo(f"gap {format_value(cert.upper - cert.lower)}")


@main.command(name="merge")
@click.argument("path")
@click.argument("a")
@click.argument("b")
@click.option("-o", "--output", default=None, help="write the merged graph here")
def merge_cmd(path: str, a: str, b: str, output: Optional[str]) -> None:
    """Contract the band [a, b] of a graph."""
    g = _load_graph(path)
    before = extended_diagram(g)  # an invalid graph fails before any output
    merged = merge(g, MergeParams(parse_value(a), parse_value(b)))
    _emit_graph(merged, output)
    click.echo("# diagram delta")
    click.echo(_diagram_delta(before, extended_diagram(merged)))


@main.command(name="simplify")
@click.argument("path")
@click.argument("alpha")
@click.option("-o", "--output", default=None, help="write the simplified graph here")
def simplify_cmd(path: str, alpha: str, output: Optional[str]) -> None:
    """Remove all diagram points within alpha/2 of the diagonal.

    Prints the simplified graph, its distortion certificate and diagram
    delta, then the certified lower/upper bounds on the functional
    distortion distance to the input and their gap, as `fdbound` does.
    """
    g = _load_graph(path)
    result = simplify(g, parse_value(alpha))
    _emit_operator_result(g, result.graph, result.certificate, output)
    cert = certify_fd_upper(g, result.graph, result.certificate)
    _emit_bounds(cert, "upper {} (simplification moves)")


@main.command(name="transform")
@click.argument("path")
@click.option("--anchors", required=True, help="graph file providing the anchor critical values")
@click.option("--alpha", required=True, help="transform scale")
@click.option("-o", "--output", default=None)
def transform_cmd(path: str, anchors: str, alpha: str, output: Optional[str]) -> None:
    """Apply the full transform: simplify at 2*alpha, merge 9*alpha anchor bands."""
    g = _load_graph(path)
    anchor_graph = _load_graph(anchors)
    params = TransformParams(parse_value(alpha), critical_values(anchor_graph))
    result = full_transform(g, params)
    _emit_operator_result(g, result.graph, result.certificate, output)


@main.command(name="iso")
@click.argument("file_a")
@click.argument("file_b")
def iso_cmd(file_a: str, file_b: str) -> None:
    """Level-preserving isomorphism test; exit 0 iff isomorphic."""
    g1, g2 = _load_graph(file_a), _load_graph(file_b)
    mapping = level_isomorphism(g1, g2)
    if mapping is None:
        click.echo("not isomorphic")
        sys.exit(1)
    click.echo("isomorphic")
    for v, w in sorted(mapping.items()):
        click.echo(f"{v} -> {w}")


@main.command(name="fdbound")
@click.argument("file_a")
@click.argument("file_b")
@click.option(
    "--witness",
    type=click.Choice(["natural", "collapse", "file"]),
    default="natural",
    show_default=True,
)
@click.option("--witness-file", default=None, help="correspondence JSON (witness=file)")
def fdbound_cmd(file_a: str, file_b: str, witness: str, witness_file: Optional[str]) -> None:
    """Certified lower/upper bounds on the functional distortion distance.

    Prints the bounds, their gap (upper - lower) and, for the sampled
    witnesses (collapse, file), the sampling remainder inside the upper bound.
    """
    g1, g2 = _load_graph(file_a), _load_graph(file_b)
    if witness_file is not None and witness != "file":
        raise click.ClickException("--witness-file needs --witness file")
    source = witness
    if witness == "natural":
        upper, source = _intrinsic_bound(g1, g2)
        cert = certify_fd_upper(g1, g2, upper)
    elif witness == "collapse":
        cert = certify_fd_upper(g1, g2, projection_correspondence(g1, g2))
    else:
        if witness_file is None:
            raise click.ClickException("--witness file needs --witness-file <path>")

        def parse(text: str):
            try:
                return correspondence_from_json(g1, g2, text)
            except ParseError:
                raise  # not a witness file at all: `_load` reports it
            except ValueError as exc:
                raise click.ClickException(f"bad witness file {witness_file}: {exc}") from exc

        cert = certify_fd_upper(g1, g2, _load(witness_file, parse))
    _emit_bounds(cert, f"upper {{}} ({source})")
    if witness != "natural":
        click.echo(f"remainder {format_value(cert.remainder)}")


def _parse_manifest(text: str) -> list[tuple[Fraction, str]]:
    """The `<t> <graph-file>` lines of a path manifest."""
    steps = []
    for lineno, _, line in _data_lines(text):
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            raise ParseError(lineno, "expected '<t> <file>'")
        steps.append((parse_value(parts[0]), parts[1]))
    return steps


@main.command(name="pathlen")
@click.argument("manifest")
@click.option("--metric", type=click.Choice(["db", "fd"]), default="db", show_default=True)
def pathlen_cmd(manifest: str, metric: str) -> None:
    """Length of a discretized path; manifest lines: '<t> <graph-file>'."""
    base = Path(manifest).parent
    steps = [(t, _load_graph(str(base / name))) for t, name in _load(manifest, _parse_manifest)]
    if len(steps) < 2:
        raise click.ClickException("manifest needs at least two steps")

    certs = [
        certify_fd_upper(a, b, intrinsic_upper(a, b)) for (_, a), (_, b) in zip(steps, steps[1:])
    ]
    path = GraphPath(tuple(steps), tuple(certs))
    result = path_length(path, "bottleneck" if metric == "db" else "fd_upper")
    for k, value in enumerate(result.per_step):
        click.echo(f"step {k}: {format_value(value)}")
    click.echo(f"total {format_value(result.total)}")


@main.command(name="intrinsic")
@click.argument("file_a")
@click.argument("file_b")
def intrinsic_cmd(file_a: str, file_b: str) -> None:
    """Certified bounds on the intrinsic distortion metric (at least d_FD)."""
    g1, g2 = _load_graph(file_a), _load_graph(file_b)
    _emit_bounds(certify_fd_upper(g1, g2, intrinsic_upper(g1, g2)), "upper bound {}")


@main.command(name="gen")
@click.argument("spec", type=click.Choice(list(_GENERATORS)), metavar="SPEC")
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--n", type=int, default=None, help="figure5 index / random critical count")
@click.option("-o", "--output", default=None)
@click.option("--json", "as_json", is_flag=True, help="emit the structured object format")
def gen_cmd(spec: str, seed: int, n: Optional[int], output: Optional[str], as_json: bool) -> None:
    """Generate a built-in or random graph (segment, cycle, Y, figure1_left,
    figure1_right, figure5, random)."""
    make = _GENERATORS[spec]
    if n is not None and spec not in ("figure5", "random"):
        raise click.ClickException(f"--n applies to figure5 and random only, not {spec}")
    seeded = click.get_current_context().get_parameter_source("seed") != ParameterSource.DEFAULT
    if seeded and spec != "random":
        raise click.ClickException(f"--seed applies to random only, not {spec}")
    if spec == "figure5":
        g = make(n if n is not None else 3)
    elif spec == "random":
        g = make(seed) if n is None else make(seed, n_critical=n)
    else:
        g = make()
    _emit_graph(g, output, as_json)


@main.command(name="stats")
@click.argument("path")
def stats_cmd(path: str) -> None:
    """|V|, |E|, first Betti number, critical values, minimal gap."""
    g = _load_graph(path)
    crit = critical_values(g)
    click.echo(f"vertices {len(g.vertex_ids)}")
    click.echo(f"edges {len(g.edges)}")
    click.echo(f"betti1 {g.first_betti()}")
    click.echo("critical_values " + " ".join(format_value(v) for v in crit))
    if len(crit) >= 2:
        click.echo(f"min_gap {format_value(crit.min_gap())}")


@main.command(name="convert")
@click.argument("path")
@click.option("--to", "target", type=click.Choice(["text", "json", "canonical"]), default="text")
@click.option("-o", "--output", default=None)
def convert_cmd(path: str, target: str, output: Optional[str]) -> None:
    """Re-emit a graph file (text, json, or canonicalized text)."""
    g = _load_graph(path)
    if target == "canonical":
        g = canonicalize(g)
        target = "text"
    _emit_graph(g, output, as_json=(target == "json"))


@main.command(name="validate")
@click.argument("path")
def validate_cmd(path: str) -> None:
    """Check the graph invariants; exit 0 iff valid."""
    g = _load_graph(path)
    report = validate(g)
    click.echo(str(report))
    if not report.ok:
        sys.exit(1)


@main.command(name="experiment")
@click.argument("name", type=click.Choice([*EXPERIMENTS, "all"]), metavar="NAME")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--trials", type=int, default=None, help="override the trial count")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "records"]),
    default="text",
    show_default=True,
)
def experiment_cmd(name: str, seed: int, trials: Optional[int], fmt: str) -> None:
    """Run a named experiment suite, or 'all'. Exit 0 iff everything passes."""
    names = list(EXPERIMENTS) if name == "all" else [name]
    config = ExperimentConfig(seed=seed, trials=trials)
    ok = True
    for exp_name in names:
        report = run_experiment(exp_name, config)
        click.echo(report.to_records_text() if fmt == "records" else report.to_text(), nl=False)
        ok = ok and report.passed
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
