"""Loader mutations: a damaged document is a domain error, never a crash.

Every content line of every corpus file and of the reference catalog is
mutated in five ways, one mutation per load: the line is dropped, cut after
its first token (`topology: topo-core.txt` becomes `topology: `), cut in
the middle of its last token (`topology: topo-c`, a file that is not
there), repeated, or has the first digit of one of its digit runs replaced
by a letter.  The damaged scenario must load and build its `Environment`,
and the damaged catalog must load and compose, or fail with a
`SliceSimError`.  Any other exception escapes to the user as a traceback.

A sixth mutation misspells the key of a corpus line: its last option's, or
else its first word's.  A reader would take the default of a key it does
not know, so a misspelt scenario, blueprint or topology must fail to load
with a `SliceSimError`.
"""

import re
import shutil

import pytest

from slicesim.catalog import compose, load_catalog
from slicesim.engine import Environment, load_scenario
from slicesim.errors import SliceSimError

from conftest import SCENARIO_DIR, reference_catalog_text

CORPUS = sorted(p.name for p in SCENARIO_DIR.iterdir()
                if p.suffix in (".scn", ".bp", ".txt"))


def mutations(lines: list) -> list:
    """(line number, mutation, mutated lines) for each mutation of each
    line that is neither blank nor a comment."""
    out = []
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        before, after = lines[:i], lines[i + 1:]
        out.append((i + 1, "drop", before + after))
        tokens = stripped.split()
        if len(tokens) > 1:
            cut = line[:line.index(tokens[0]) + len(tokens[0])] + " "
            out.append((i + 1, "cut", before + [cut] + after))
            mid = line.rindex(tokens[-1]) + len(tokens[-1]) // 2
            out.append((i + 1, "cut-mid", before + [line[:mid]] + after))
        out.append((i + 1, "repeat", before + [line, line] + after))
        for digit in re.finditer(r"(?<![0-9])[0-9]", line):
            at = digit.start()
            lettered = line[:at] + "x" + line[at + 1:]
            out.append((i + 1, f"letter@{at}", before + [lettered] + after))
    return out


def misspellings(lines: list) -> list:
    """(line number, mutated lines) for each content line but an `end`, its
    key missing its last letter: the key of its last `k=v` option, or else
    its first word (a field's key before the ':')."""
    out = []
    for i, line in enumerate(lines):
        tokens = line.split()
        if not tokens or tokens[0] == "end" or tokens[0][0] == "#":
            continue
        options = [t for t in tokens if "=" in t]
        word = options[-1].split("=")[0] if options else tokens[0].rstrip(":")
        at = line.rindex(word + "=") if options else line.index(word)
        misspelt = line[:at + len(word) - 1] + line[at + len(word):]
        out.append((i + 1, lines[:i] + [misspelt] + lines[i + 1:]))
    return out


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A private copy of the corpus to damage, and per file the scenario
    that loads it: the file itself, or the first scenario naming it."""
    root = tmp_path_factory.mktemp("corpus")
    for name in CORPUS:
        shutil.copy(SCENARIO_DIR / name, root / name)
    scenarios = [name for name in CORPUS if name.endswith(".scn")]
    loader = {}
    for name in CORPUS:
        loader[name] = name if name.endswith(".scn") else next(
            s for s in scenarios if name in (root / s).read_text(encoding="utf-8"))
    return root, loader


def escapes(run, cases) -> list:
    """The cases on which `run` raised something other than a SliceSimError."""
    found = []
    for lineno, kind, lines in cases:
        try:
            run("\n".join(lines) + "\n")
        except SliceSimError:
            pass
        except Exception as exc:   # the defect under test: report every case
            found.append(f"line {lineno} {kind}: {type(exc).__name__}: {exc}")
    return found


@pytest.mark.parametrize("name", CORPUS)
def test_damaged_corpus_file_is_a_domain_error(name, corpus):
    root, loader = corpus
    target = root / name
    original = target.read_text(encoding="utf-8")

    def run(text):
        target.write_text(text, encoding="utf-8")
        Environment(load_scenario(root / loader[name]), 7)

    try:
        found = escapes(run, mutations(original.splitlines()))
    finally:
        target.write_text(original, encoding="utf-8")
    assert found == []


@pytest.mark.parametrize("name", CORPUS)
def test_misspelt_key_is_a_domain_error(name, corpus):
    root, loader = corpus
    target = root / name
    original = target.read_text(encoding="utf-8")
    loaded = []
    try:
        for lineno, lines in misspellings(original.splitlines()):
            target.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                load_scenario(root / loader[name])
            except SliceSimError:
                continue
            loaded.append(f"line {lineno}: {lines[lineno - 1].strip()}")
    finally:
        target.write_text(original, encoding="utf-8")
    assert loaded == []


def test_damaged_reference_catalog_is_a_domain_error():
    cases = mutations(reference_catalog_text().splitlines())
    assert escapes(lambda text: compose(load_catalog(text)), cases) == []
