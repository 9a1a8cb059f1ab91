from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebmetrics import (
    Diagram,
    DiagramPoint,
    ParseError,
    ReebGraph,
    diagram_to_text,
    extended_diagram,
    figure1_left,
    graph_from_json,
    graph_to_json,
    graph_to_text,
    load_graph_or_diagram,
    parse_diagram_text,
    parse_graph_text,
    random_graph,
    y_graph,
)
from reebmetrics.rationals import format_value, parse_value


# ---------------------------------------------------------------------------
# value formatting
# ---------------------------------------------------------------------------


def test_format_value_canonical_decimals():
    assert format_value(F(3, 2)) == "1.5"
    assert format_value(F(1, 10)) == "0.1"
    assert format_value(F(-3, 2)) == "-1.5"
    assert format_value(F(7)) == "7"
    assert format_value(F(1, 8)) == "0.125"


def test_format_value_non_decimal_denominator():
    assert format_value(F(5, 11)) == "5/11"
    assert parse_value("5/11") == F(5, 11)


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_value_round_trip(num, den):
    x = F(num, den)
    assert parse_value(format_value(x)) == x


def test_parse_value_rejects_garbage():
    with pytest.raises(ValueError):
        parse_value("1.2.3")
    with pytest.raises(ValueError):
        parse_value("abc")
    # a zero denominator is a bad value, not a ZeroDivisionError
    for text in ("1/0", "0/0", "-3/00"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_value(text)
    # numbers read from JSON are not exact values: an int is rejected, and
    # a float is not coerced
    for number in (1, 0.5):
        with pytest.raises(ValueError, match="not a decimal or ratio value"):
            parse_value(number)


# ---------------------------------------------------------------------------
# graph text format
# ---------------------------------------------------------------------------


def test_graph_text_round_trip():
    g = y_graph()
    assert parse_graph_text(graph_to_text(g)) == g


def test_graph_text_edge_ends_share_vertex_ids():
    g = parse_graph_text("v bottom 0\nv top 3\nv tip 1\ne bottom top\ne tip top\n")
    ids = {id(vid) for vid in g.vertex_ids}
    assert all(id(u) in ids and id(v) in ids for u, v in g.edges)


def test_graph_text_round_trip_random():
    import random

    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, n_critical=rng.randint(4, 9))
        assert parse_graph_text(graph_to_text(g)) == g


def test_print_parse_identity_on_canonical_text():
    g = figure1_left()
    text = graph_to_text(g)
    assert graph_to_text(parse_graph_text(text)) == text


def test_graph_text_comments_and_blanks():
    text = "# a comment\n\nv a 0\nv b 2.5\ne a b\n"
    g = parse_graph_text(text)
    assert g.value("b") == F("2.5")


def test_graph_text_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph_text("v a 0\nz nonsense\n")
    assert err.value.line_number == 2
    with pytest.raises(ParseError) as err:
        parse_graph_text("v a 0\nv b xx\n")
    assert err.value.line_number == 2
    with pytest.raises(ParseError) as err:
        parse_graph_text("v a 0 extra junk\n")
    assert err.value.line_number == 1


def test_graph_json_round_trip():
    g = figure1_left()
    assert graph_from_json(graph_to_json(g)) == g
    assert graph_from_json(graph_to_json(g)).name == g.name


# ---------------------------------------------------------------------------
# diagram format
# ---------------------------------------------------------------------------


def test_diagram_round_trip():
    d = extended_diagram(figure1_left())
    assert parse_diagram_text(diagram_to_text(d)) == d


def test_diagram_files_compare_bytewise():
    left = diagram_to_text(extended_diagram(figure1_left()))
    from reebmetrics import figure1_right

    right = diagram_to_text(extended_diagram(figure1_right()))
    assert left == right


def test_diagram_text_sorted_canonically():
    d = Diagram(
        [
            DiagramPoint("Ext0", 0, 3),
            DiagramPoint("Ord0", 1, 2),
            DiagramPoint("Ord0", 0, 2),
        ]
    )
    lines = diagram_to_text(d).splitlines()
    assert lines == ["Ord0 0 2", "Ord0 1 2", "Ext0 0 3"]


def test_diagram_parse_error_line_number():
    with pytest.raises(ParseError) as err:
        parse_diagram_text("Ord0 1 2\nBogus 1 2\n")
    assert err.value.line_number == 2


def test_empty_diagram_round_trip():
    assert parse_diagram_text(diagram_to_text(Diagram())) == Diagram()


# ---------------------------------------------------------------------------
# sniffing
# ---------------------------------------------------------------------------


def test_load_graph_or_diagram():
    g = y_graph()
    assert isinstance(load_graph_or_diagram(graph_to_text(g)), ReebGraph)
    assert isinstance(load_graph_or_diagram(graph_to_json(g)), ReebGraph)
    d = extended_diagram(g)
    assert isinstance(load_graph_or_diagram(diagram_to_text(d)), Diagram)
    with pytest.raises(ValueError):
        load_graph_or_diagram("nothing here\n")


# comments, an indented comment, blank and whitespace-only lines, CRLF endings
SKIPPED = "# header\r\n\r\n   \r\n\t# indented comment\r\n \t \r\n"
GRAPH_LINES = SKIPPED + "v a 0\r\n  v b 1  \r\n\r\n  # between\r\ne a b\r\n"
DIAGRAM_LINES = SKIPPED + "Ord0 0 1\r\n\r\n   # between\r\nExt0 0 3\r\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (GRAPH_LINES + "v c x\r\n", "line 11: "),
        (GRAPH_LINES + "\r\n  v c  \r\n", "line 12: expected 'v <id> <value>', got '  v c  '"),
        (GRAPH_LINES + "e a\r\n", "line 11: expected 'e <id1> <id2>', got 'e a'"),
        (GRAPH_LINES + "  # last\r\nw a b\r\n", "line 12: unknown record type 'w'"),
        (DIAGRAM_LINES + "Ord0 0\r\n", "line 10: expected '<kind> <birth> <death>', got 'Ord0 0'"),
        (DIAGRAM_LINES + "\r\nOrd0 0 1/0\r\n", "line 11: "),
    ],
)
def test_every_reader_skips_the_same_lines(text, message):
    # the graph and diagram readers and the sniffing loader number lines
    # alike: every physical line counts, skipped or not
    parse = parse_graph_text if text.startswith(GRAPH_LINES) else parse_diagram_text
    for read in (parse, load_graph_or_diagram):
        with pytest.raises(ParseError) as err:
            read(text)
        assert str(err.value).startswith(message)
        assert err.value.line_number == int(message.split()[1].rstrip(":"))


def test_readers_skip_comments_blanks_and_crlf():
    g = parse_graph_text(GRAPH_LINES)
    assert g == ReebGraph([("a", 0), ("b", 1)], [("a", "b")])
    assert load_graph_or_diagram(GRAPH_LINES) == g
    d = parse_diagram_text(DIAGRAM_LINES)
    assert d == Diagram([DiagramPoint("Ord0", 0, 1), DiagramPoint("Ext0", 0, 3)])
    assert load_graph_or_diagram(DIAGRAM_LINES) == d
    with pytest.raises(ValueError, match="neither a graph nor a diagram"):
        load_graph_or_diagram(SKIPPED)
