"""Grammar tests for the shared line-oriented block format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicesim.catalog import reference_catalog_path
from slicesim.errors import SchemaError
from slicesim.textfmt import Block, parse_blocks, split_kv

from conftest import SCENARIO_DIR, perfbench_module


def test_fields_items_and_nesting():
    text = """
# comment
outer thing arg2
  name: Some Name
  step a -> b
  inner nested-id
    key: value
  end
  step c -> d
end
"""
    blocks = parse_blocks(text, {"outer", "inner"})
    assert len(blocks) == 1
    outer = blocks[0]
    assert outer.ident == "thing" and outer.args == ("thing", "arg2")
    assert outer.get("name") == "Some Name"
    assert outer.items_of("step") == [("a", "->", "b"), ("c", "->", "d")]
    assert outer.item_lines == [5, 9]
    inner, = outer.children_of("inner")
    assert inner.ident == "nested-id" and inner.get("key") == "value"


def test_duplicate_field_rejected():
    with pytest.raises(SchemaError):
        parse_blocks("b x\n  k: 1\n  k: 2\nend\n", {"b"})


def test_unterminated_block_rejected():
    with pytest.raises(SchemaError):
        parse_blocks("b x\n  k: 1\n", {"b"})
    # The innermost open block is the one named.
    with pytest.raises(SchemaError, match="^doc: unterminated block 'c'$"):
        parse_blocks("b x\n  c y\n", {"b", "c"}, "doc")


def test_content_outside_block_rejected():
    with pytest.raises(SchemaError):
        parse_blocks("k: 1\n", {"b"})


def test_stray_end_rejected():
    with pytest.raises(SchemaError):
        parse_blocks("end\n", {"b"})


def test_missing_required_field():
    block, = parse_blocks("b x\nend\n", {"b"})
    with pytest.raises(SchemaError):
        block.require("name")


def test_split_kv():
    tokens = ("n1", "tech=wifi", "n2", "area=a-1")
    positional, options = split_kv(tokens, frozenset({"tech", "area"}),
                                   ("doc", "access", tokens))
    assert positional == ["n1", "n2"]
    assert options == {"tech": "wifi", "area": "a-1"}
    with pytest.raises(SchemaError, match="^doc: access n1 tech=wifi n2 "
                                          "area=a-1: unknown option 'area'$"):
        split_kv(tokens, frozenset({"tech"}), ("doc", "access", tokens))


@pytest.mark.parametrize("fields, items, error", [
    ({"name", "size"}, {"row"}, None),
    ({"size"}, {"row"}, "doc: b x: unknown field 'name'"),
    ({"name", "size"}, set(), "doc: b x: unknown item 'row'")])
def test_refuse_unknown_names_the_first_unread_key(fields, items, error):
    block, = parse_blocks("b x\n  size: 2\n  name: n\n  row 1\nend\n", {"b"})
    fields, items = frozenset(fields), frozenset(items)
    if error is None:
        block.refuse_unknown("doc", fields, items)
    else:
        with pytest.raises(SchemaError, match=f"^{error}$"):
            block.refuse_unknown("doc", fields, items)


def test_field_key_with_an_inner_colon_rejected():
    with pytest.raises(SchemaError, match="^doc:2: field key 'a:b' holds a ':'$"):
        parse_blocks("b x\n  a:b: x\nend\n", {"b"}, "doc")


def test_field_value_is_the_rest_after_the_key():
    block, = parse_blocks("b x\n  url:\thttp://h:80/p  q \n  empty:\nend\n", {"b"})
    assert block.fields == {"url": "http://h:80/p  q", "empty": ""}


# -- the parser against a single-stack reference ------------------------------

def oracle_parse_blocks(text, block_kinds, source="<text>"):
    """A single-stack parser that re-reads the stack top and splits a field
    line twice, kept as the reference.  It differs only on a field key with
    an inner ':', which it accepts."""
    top = []
    stack = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        where = f"{source}:{lineno}"
        if tokens[0] == "end":
            if not stack:
                raise SchemaError(f"{where}: 'end' outside any block")
            block = stack.pop()
            if stack:
                stack[-1].children.append(block)
            else:
                top.append(block)
            continue
        if tokens[0] in block_kinds:
            stack.append(Block(kind=tokens[0], args=tuple(tokens[1:]),
                               line=lineno))
            continue
        if not stack:
            raise SchemaError(f"{where}: content outside a block: {line!r}")
        if tokens[0].endswith(":"):
            key = tokens[0][:-1]
            if key in stack[-1].fields:
                raise SchemaError(f"{where}: duplicate field '{key}'")
            stack[-1].fields[key] = line.split(":", 1)[1].strip()
        else:
            stack[-1].items.append((tokens[0], tuple(tokens[1:])))
            stack[-1].item_lines.append(lineno)
    if stack:
        raise SchemaError(f"{source}: unterminated block '{stack[-1].kind}'")
    return top


def outcome(parse, text, kinds):
    """The block tree `parse` returns, or the type and text of its error."""
    try:
        return parse(text, kinds, "doc")
    except SchemaError as exc:
        return type(exc), str(exc)


KINDS = {"outer", "inner"}
#: Field keys (none with an inner ':'), item words and later tokens, with
#: colons, comment marks and block words where they do not start a line.
KEYS = st.sampled_from(["k:", "v:", ":", "end:", "inner:"])
WORDS = st.sampled_from(["step", "at", "x=1", "endx", "a:b", "->"])
TOKENS = st.lists(st.sampled_from(["a", "b:c", ":", "k:", "x=y", "#", "end", "outer"]),
                  max_size=3)
SPACE = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def block_lines(draw, depth=0):
    """The token lists of one block: its opener, body and `end`."""
    lines = [[draw(st.sampled_from(sorted(KINDS)))] + draw(TOKENS)]
    for _ in range(draw(st.integers(0, 5))):
        choice = draw(st.integers(0, 5 if depth < 2 else 4))
        if choice == 0:
            lines.append(draw(st.sampled_from([[], ["#", "c"], ["#k:", "v"]])))
        elif choice <= 2:
            lines.append([draw(KEYS)] + draw(TOKENS))
        elif choice <= 4:
            lines.append([draw(WORDS)] + draw(TOKENS))
        else:
            lines += draw(block_lines(depth + 1))
    return lines + [["end"]]


@st.composite
def documents(draw):
    """Mostly well-formed documents; a third carry one damage: a line
    dropped or repeated, a stray `end`, field or item put anywhere, or the
    document cut short."""
    lines = [["#", "header"]]
    for _ in range(draw(st.integers(0, 3))):
        lines += draw(block_lines())
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(lines) - 1))
        damage = draw(st.sampled_from(["drop", "repeat", "cut", "end", "field", "item"]))
        if damage == "drop":
            del lines[at]
        elif damage == "cut":
            del lines[at:]
        elif damage == "repeat":
            lines.insert(at, lines[at])
        else:
            lines.insert(at, {"end": ["end"], "field": [draw(KEYS), "a"],
                              "item": [draw(WORDS)]}[damage])
    rendered = []
    for tokens in lines:
        line = draw(st.sampled_from(["", "  ", "\t"]))
        for i, token in enumerate(tokens):
            line += (draw(SPACE) if i else "") + token
        rendered.append(line + draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(rendered) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=200, deadline=None)
@given(documents())
def test_parse_matches_the_oracle_on_generated_documents(text):
    assert outcome(parse_blocks, text, KINDS) == outcome(oracle_parse_blocks, text, KINDS)


#: The block kinds each document's loader opens, by file suffix.
LOADER_KINDS = {".scn": {"scenario", "device"}, ".bp": {"blueprint"},
                ".txt": {"topology"}, ".cat": {"sf", "procedure"}}


def checked_in_documents():
    yield reference_catalog_path()
    yield from sorted(p for p in SCENARIO_DIR.iterdir() if p.suffix in LOADER_KINDS)


def test_checked_in_documents_parse_as_the_oracle_does():
    for path in checked_in_documents():
        text = path.read_text(encoding="utf-8")
        kinds = LOADER_KINDS[path.suffix]
        got = parse_blocks(text, kinds, str(path))
        assert got and got == oracle_parse_blocks(text, kinds, str(path)), path


@pytest.mark.parametrize("seed", [1, 7])
def test_generated_benchmark_inputs_parse_as_the_oracle_does(seed, tmp_path):
    gen = perfbench_module("gen")
    for workload in sorted(gen.WORKLOADS):
        out = gen.write_workload(workload, seed, tmp_path / workload).parent
        for path in sorted(out.iterdir()):
            text = path.read_text(encoding="utf-8")
            kinds = LOADER_KINDS[path.suffix]
            got = parse_blocks(text, kinds, str(path))
            assert got and got == oracle_parse_blocks(text, kinds, str(path)), path
