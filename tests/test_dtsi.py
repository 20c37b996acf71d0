import json

import pytest
import refdtsi
from hypothesis import given, settings
from hypothesis import strategies as st

from ssi.cli import main
from ssi.dtsi import dtsi_find, list_compatibles, parse_dtsi, parse_dtsi_text
from ssi.errors import DtsiNotFound, SsiError, UnbalancedDelimiter

from conftest import EXAMPLE_DIR

FIXTURE = EXAMPLE_DIR / "bcm283x.dtsi"

CHOOSER_FIXTURE = """\
gpio: gpio@7e200000 {
	compatible = "brcm,bcm2835-gpio", "brcm,bcm2711-gpio", "brcm,bcm7211-gpio";
	reg = <0x7e200000 0xb4>;
};
"""


def write(tmp_path, text, name="t.dtsi"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_fixture_finds_gpio_node():
    root = parse_dtsi(FIXTURE)
    nodes = [n for n in root.walk() if "brcm,bcm2835-gpio" in n.compatibles()]
    assert len(nodes) == 1
    node = nodes[0]
    assert node.label == "gpio"
    assert node.name == "gpio@7e200000"
    assert node.properties["reg"] == [0x7E200000, 0xB4]
    assert node.properties["gpio-controller"] is None  # boolean property


def test_empty_file(tmp_path):
    root = parse_dtsi(write(tmp_path, ""))
    assert root.children == []
    assert list_compatibles(write(tmp_path, "", "e.dtsi")) == []


def test_three_compatibles_all_retained(tmp_path):
    # Oracle: hand parse of the six-line chooser fixture; one node, three
    # compatible strings in written order.
    path = write(tmp_path, CHOOSER_FIXTURE)
    root = parse_dtsi(path)
    assert len(root.children) == 1
    assert root.children[0].compatibles() == [
        "brcm,bcm2835-gpio", "brcm,bcm2711-gpio", "brcm,bcm7211-gpio"]


def test_dtsi_find_fixture_values():
    assert dtsi_find(FIXTURE, "brcm,bcm2835-gpio") == (0x7E200000, 0xB4)
    assert dtsi_find(FIXTURE, "brcm,bcm2711-gpio") == (0x7E200000, 0xB4)


def test_dtsi_find_missing():
    with pytest.raises(DtsiNotFound):
        dtsi_find(FIXTURE, "brcm,no-such-device")


def test_reg_with_four_cells_takes_first_pair(tmp_path):
    # Oracle: manual cell split; with the default one-cell address and size,
    # reg = <1 2 3 4> yields base 1 and size 2.
    path = write(tmp_path, 'n { compatible = "x"; reg = <1 2 3 4>; };')
    assert dtsi_find(path, "x") == (1, 2)


def test_reg_honors_parent_cell_counts(tmp_path):
    path = write(tmp_path, """
parent {
	#address-cells = <2>;
	#size-cells = <1>;
	child {
		compatible = "wide";
		reg = <0x1 0x2 0x30>;
	};
};
""")
    assert dtsi_find(path, "wide") == ((0x1 << 32) | 0x2, 0x30)


def test_list_compatibles_order_and_dedup(tmp_path):
    path = write(tmp_path, """
a { compatible = "one", "two"; };
b { compatible = "two", "three"; };
""")
    assert list_compatibles(path) == ["one", "two", "three"]


def test_chooser_menu_order():
    assert list_compatibles(FIXTURE) == [
        "brcm,bcm2835-gpio", "brcm,bcm2711-gpio", "brcm,bcm7211-gpio"]


def test_unknown_constructs_skipped(tmp_path):
    path = write(tmp_path, """
/dts-v1/;
/include/ "other.dtsi"
n {
	compatible = "x";
	reg = <0x10 0x4>;
	interrupt-parent = <&gic>;
	some-bytes = [de ad];
};
""")
    assert dtsi_find(path, "x") == (0x10, 0x4)


def test_unbalanced_brace_raises():
    with pytest.raises(UnbalancedDelimiter):
        parse_dtsi_text('n { compatible = "x";')


def test_find_independent_of_siblings(tmp_path):
    lone = write(tmp_path, 'n { compatible = "x"; reg = <5 6>; };', "a.dtsi")
    crowded = write(tmp_path, """
other { compatible = "y"; reg = <1 1>; };
n { compatible = "x"; reg = <5 6>; };
more { reg = <9 9>; };
""", "b.dtsi")
    assert dtsi_find(lone, "x") == dtsi_find(crowded, "x") == (5, 6)


def test_comments_and_strings_with_braces(tmp_path):
    path = write(tmp_path, """
/* a comment with { braces } */
n {
	// line comment }
	compatible = "with { brace";
	reg = <1 2>;
};
""")
    assert dtsi_find(path, "with { brace") == (1, 2)


# ------------------------------------------- differential against refdtsi

def tree(node):
    return (node.label, node.name, node.properties, [tree(c) for c in node.children])


def read(parse, text):
    """The tree ``parse`` reads from ``text``, or the type of its error."""
    try:
        return tree(parse(text))
    except SsiError as e:
        return type(e)


# Pieces of DTS text, glued with and without whitespace between them, so
# that words, comments and strings also meet mid-word. The longer pieces
# make whole nodes, properties and unknown constructs likely.
PIECES = ["n", "gpio@7e200000", "reg", "compatible", "#size-cells", "0x10", "1",
          "/dts-v1/", "/include/", "/", "&gic", '"s"', '"a\\"b"', '"', "\\",
          "{", "}", "<", ">", "=", ";", ",", ":", "[", "]",
          "/*", "*/", "//", "*", " ", "\n", "\t",
          "n { ", "}; ", "l: ", "p = <0x10 2>;", 'c = "a", <1>, "b";', "x y ", "b;"]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_reader_matches_the_reference_reader(text):
    assert read(parse_dtsi_text, text) == read(refdtsi.parse_dtsi_text, text)


def root(*children, **properties):
    return (None, "/", properties, list(children))


READER_CASES = {
    "a comment separates two words": (
        "n { re/*c*/g = <1>; };", root((None, "n", {}, []))),
    "unterminated string at end of file": (
        'compatible = "a;b', root(compatible=["a;b"])),
    "unterminated comment at end of file": ("a; /* b; c;", root(a=None)),
    "backslash as the last character of a string": ('p = "x\\', root(p=["x\\"])),
    "escaped quote inside a string": ('p = "a\\"b", "c";', root(p=['a\\"b', "c"])),
    "directives": ('/dts-v1/;\n/include/ "f.dtsi"\nn { };', root((None, "n", {}, []))),
    "root node read as top level": ("/ { n { a; }; };", root((None, "n", {"a": None}, []))),
    "labels": ("l: n { m: p = <1>; }; k: ;",
               root(("l", "n", {"p": [1]}, []))),
    "stray top-level close": ("}; n { }; }", root((None, "n", {}, []))),
    "unknown construct stops before a brace": (
        "n { x y m { a; }; }; q;", root((None, "n", {"a": None}, []), q=None)),
    "unclosed '<'": ("p = <1 2", UnbalancedDelimiter),
}


@pytest.mark.parametrize("case", READER_CASES)
def test_reader_cases(case):
    text, expected = READER_CASES[case]
    assert read(parse_dtsi_text, text) == read(refdtsi.parse_dtsi_text, text) == expected


# 5,000 nested nodes; the innermost is a device whose parent gives two
# address cells.
DEEP = ("n {" * 4998 + "p { #address-cells = <2>; d { compatible = \"deep,dev\";"
        " reg = <1 0x10 0x20>; }; };" + "};" * 4998)


def test_deep_nesting_reads_without_recursion(tmp_path, capsys):
    root_node = parse_dtsi_text(DEEP)
    depth = 0
    while root_node.children:
        (child,) = root_node.children
        assert child.parent is root_node
        root_node, depth = child, depth + 1
    assert depth == 5000
    path = write(tmp_path, DEEP)
    assert list_compatibles(path) == ["deep,dev"]
    assert dtsi_find(path, "deep,dev") == ((1 << 32) | 0x10, 0x20)
    (tmp_path / "m.c").write_text("int go(void) { return 0; }")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"corpus": ["m.c"], "dtsi": ["t.dtsi"],
                                  "commands": {"go": {"entry": "go"}}}))
    script = write(tmp_path, "go\nq\n", "s.txt")
    assert main([str(config), "--script", str(script)]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err and "error" not in out
