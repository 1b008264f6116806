"""Line-oriented structured text format used by every document the framework
reads or writes (catalogs, blueprints, topologies, scenarios, reports).

Grammar::

    # full-line comment
    <kind> <arg> <arg>...        # opens a block
      key: value                 # field line (first token ends with ':')
      <word> <tok> <tok>...      # item line, kept in order
      <kind> <arg>...            # nested block when <kind> is registered
        ...
      end
    end

Indentation is not significant; blocks are closed by ``end``.  Fields may
appear once per block.  Tokens of the form ``k=v`` on item lines are parsed
by `split_kv` on the consumer side.  A reader names the fields, item
words and nested block kinds it reads to `Block.refuse_unknown` and each
line's options to `split_kv`, and any other key is refused, so that a
misspelt key fails instead of taking its default; so are words after a
block's identifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SchemaError


@dataclass
class Block:
    kind: str
    args: tuple[str, ...]
    fields: dict[str, str] = field(default_factory=dict)
    items: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    children: list["Block"] = field(default_factory=list)
    line: int = 0       # the number of the line that opens the block
    item_lines: list[int] = field(default_factory=list)   # one per item

    @property
    def ident(self) -> str:
        if not self.args:
            raise SchemaError(f"block '{self.kind}' missing identifier")
        return self.args[0]

    def refuse_in_ident(self, source: str, chars: str = "|",
                        why: str = "the separator of trace columns",
                        item: tuple = ()) -> None:
        """Refuse an identifier that holds one of `chars`, naming the source,
        line and block; `why` says which addresses it would break.  With an
        `item` (word, tokens, identifier), the identifier is one on that
        item line, and the refusal names the first line that reads so."""
        ident = item[2] if item else self.ident
        for char in chars:
            if char in ident:
                line, words = self.line, self.head
                if item:
                    line = self.item_lines[self.items.index(item[:2])]
                    words = " ".join((item[0], *item[1]))
                raise SchemaError(f"{source}:{line}: {words}: identifier "
                                  f"holds {char!r}, {why}")

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.fields.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.fields:
            raise SchemaError(f"block '{self.kind} {' '.join(self.args)}' missing field '{key}'")
        return self.fields[key]

    def items_of(self, word: str) -> list[tuple[str, ...]]:
        return [rest for w, rest in self.items if w == word]

    def children_of(self, kind: str) -> list["Block"]:
        return [c for c in self.children if c.kind == kind]

    @property
    def head(self) -> str:
        """The words of the line that opens the block."""
        return " ".join((self.kind, *self.args))

    def refuse_unknown(self, source: str, fields=frozenset(),
                       items=frozenset(), children=frozenset()) -> None:
        """Refuse words after the block's identifier, and a field, item word
        or nested block kind that the block's reader does not read."""
        if len(self.args) > 1:
            raise SchemaError(f"{source}: {self.head}: words after the "
                              f"identifier: {' '.join(self.args[1:])!r}")
        for child in self.children:
            if child.kind not in children:
                raise SchemaError(f"{source}: {self.head}: unknown block "
                                  f"{child.head!r}")
        if not self.fields.keys() <= fields:
            refuse_unknown(self.fields, fields, "field", source, self.kind,
                           self.args)
        if self.items:
            words = dict(self.items)    # item word -> its last line's tokens
            if not words.keys() <= items:
                refuse_unknown(words, items, "item", source, self.kind,
                               self.args)


def refuse_unknown(found, known, what: str, source: str, word: str,
                   rest: tuple = ()) -> None:
    """Raise a SchemaError naming the first key of `found` that is not in
    `known`, with the source and the words (`word`, then `rest`) of the
    line or block it is in."""
    for key in found:
        if key not in known:
            raise SchemaError(
                f"{source}: {' '.join((word, *rest))}: unknown {what} '{key}'")


def parse_blocks(text: str, block_kinds: set[str], source: str = "<text>") -> list[Block]:
    """Parse a document into top-level blocks.

    `block_kinds` names the words that open a (possibly nested) block; any
    other non-field line inside a block is an item line.  A field's key is
    its line's first token without the closing ':' and may hold no other
    ':'; its value is the rest of the line after that token, stripped.
    """
    top: list[Block] = []
    stack: list[Block] = []   # the open blocks around `block`
    block = None              # the innermost open block
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        tokens = line.split()
        word = tokens[0]
        if word == "end":
            if block is None:
                raise SchemaError(f"{source}:{lineno}: 'end' outside any block")
            closed = block
            block = stack.pop() if stack else None
            (top if block is None else block.children).append(closed)
        elif word in block_kinds:
            if block is not None:
                stack.append(block)
            block = Block(word, tuple(tokens[1:]), line=lineno)
        elif block is None:
            raise SchemaError(f"{source}:{lineno}: content outside a block: {line!r}")
        elif word[-1] == ":":
            key = word[:-1]
            if key in block.fields:
                raise SchemaError(f"{source}:{lineno}: duplicate field '{key}'")
            if ":" in key:
                raise SchemaError(f"{source}:{lineno}: field key '{key}' holds a ':'")
            block.fields[key] = line[len(word):].lstrip()
        else:
            block.items.append((word, tuple(tokens[1:])))
            block.item_lines.append(lineno)
    if block is not None:
        raise SchemaError(f"{source}: unterminated block '{block.kind}'")
    return top


def split_kv(tokens: tuple[str, ...], known: frozenset,
             where: tuple) -> tuple[list[str], dict[str, str]]:
    """Split item-line tokens into positional tokens and k=v options,
    refusing an option not in `known`; `where` is the source, word and
    words of the line, for `refuse_unknown`."""
    positional: list[str] = []
    options: dict[str, str] = {}
    for tok in tokens:
        if "=" in tok:
            k, v = tok.split("=", 1)
            if k not in known:
                refuse_unknown((k,), known, "option", *where)
            options[k] = v
        else:
            positional.append(tok)
    return positional, options
