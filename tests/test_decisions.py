"""Every citation of the decisions ledger in the code, the tests and the README names a real entry.

A citation is ``DECISIONS.md Dn`` (more sections may follow, joined by "and"),
optionally followed by ``, "Title"``.  Dn must head a ``## Dn.`` section of
DECISIONS.md, and a quoted title must be a ``**Title.**`` subsection inside
that section.  Citations may wrap across lines of a comment or docstring.

The ledger in turn cites tests by node id, ``tests/test_x.py::TestClass::test_name``
(``bench/`` for the benchmark's tests, and a bare ``test_x.py`` for ``tests/``);
each must name an existing file, class and function, and every ``## Dn.``
section must cite at least one.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITATION = re.compile(r'DECISIONS\.md (D\d+)((?: and D\d+)*)(?:, "([^"]+)")?')
NODE_ID = re.compile(r"`((?:tests/|bench/)?test_\w+\.py)::(\w+(?:::\w+)*)")


def _unwrapped(text):
    """``text`` with each line break, and the indent or ``#`` comment mark after it, as one space."""
    return re.sub(r"\s*\n\s*(?:#+\s*)?", " ", text)


def _section_bodies(text):
    """``(number, body)`` for each ``## Dn.`` section of the ledger's text."""
    parts = re.split(r"^## (D\d+)\.", text, flags=re.MULTILINE)
    return zip(parts[1::2], parts[2::2])


def ledger_sections(text):
    """Section number -> the subsection titles inside it, from the ledger's text."""
    return {
        number: set(re.findall(r"\*\*([^*]+?)\.\*\*", _unwrapped(body)))
        for number, body in _section_bodies(text)
    }


def sections_without_tests(text):
    """The numbers of the ledger's sections that cite no test node id."""
    return [number for number, body in _section_bodies(text) if not NODE_ID.search(body)]


def citations(text):
    """``(section, title or None)`` for each citation in ``text``, one per section named."""
    for match in CITATION.finditer(_unwrapped(text)):
        first, more, title = match.groups()
        yield first, title
        yield from ((number, None) for number in re.findall(r"D\d+", more))


def bad_citations(sections, text):
    return [
        (number, title) for number, title in citations(text)
        if number not in sections or (title is not None and title not in sections[number])
    ]


def missing_test_nodes(text):
    """The test node ids in ``text`` whose file, class or function does not exist."""
    missing = []
    for path, names in NODE_ID.findall(text):
        file = ROOT / (path if "/" in path else f"tests/{path}")
        scope = ast.parse(file.read_text(encoding="utf-8")).body if file.is_file() else []
        for name in names.split("::"):
            node = next((n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                         and n.name == name), None)
            if node is None:
                missing.append(f"{path}::{names}")
                break
            scope = node.body
    return missing


def cited_files():
    return [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "tests").rglob("*.py")), ROOT / "README.md"]


def test_ledger_has_numbered_sections_with_titles():
    sections = ledger_sections((ROOT / "DECISIONS.md").read_text(encoding="utf-8"))
    assert {"D1", "D3", "D4", "D5"} <= sections.keys()
    assert "The exact recompute" in sections["D3"]


def test_citations_read_across_wrapped_lines():
    ledger = "DECISIONS.md"  # spelled apart, so the scan of this file does not read the sample
    text = f'# rows ({ledger} D4, "One matrix per\n# replicate") and\n    {ledger} D4 and D5;\n'
    assert list(citations(text)) == [("D4", "One matrix per replicate"), ("D4", None), ("D5", None)]
    sections = {"D4": {"One matrix per replicate"}}
    assert bad_citations(sections, text) == [("D5", None)]
    assert bad_citations(sections, text.replace("matrix per", "matrix for")) == [
        ("D4", "One matrix for replicate"), ("D5", None)]


def test_every_citation_names_an_existing_section_and_subsection():
    sections = ledger_sections((ROOT / "DECISIONS.md").read_text(encoding="utf-8"))
    found, bad = 0, {}
    for path in cited_files():
        text = path.read_text(encoding="utf-8")
        found += len(list(citations(text)))
        if wrong := bad_citations(sections, text):
            bad[str(path.relative_to(ROOT))] = wrong
    assert found >= 10  # the scan reads the files it is meant to read
    assert not bad


def test_node_id_check_finds_a_renamed_test():
    cited = ("`tests/test_decisions.py::test_ledger_has_numbered_sections_with_titles`"
             " and `test_decisions.py::bad_citations`")
    assert missing_test_nodes(cited) == []
    renamed = cited.replace("with_titles", "and_titles")
    assert missing_test_nodes(renamed) == ["tests/test_decisions.py::test_ledger_has_numbered_sections_and_titles"]
    assert missing_test_nodes("`bench/test_nothing.py::test_x` `test_decisions.py::Absent::test_x`") == [
        "bench/test_nothing.py::test_x", "test_decisions.py::Absent::test_x"]


def test_section_check_finds_a_section_without_tests():
    cited = "`tests/test_decisions.py::test_every_section_cites_a_test`"
    ledger = f"# Ledger\n\n## D1. Cited\n\nPinned by {cited}.\n\n## D2. Uncited\n\nNo test.\n\n## D3. Also\n\n{cited}\n"
    assert sections_without_tests(ledger) == ["D2"]
    assert sections_without_tests(ledger.replace("No test.", f"Pinned by {cited}.")) == []


def test_every_section_cites_a_test():
    text = (ROOT / "DECISIONS.md").read_text(encoding="utf-8")
    assert len(ledger_sections(text)) >= 6  # the scan reads the ledger's sections
    assert not sections_without_tests(text)


def test_every_cited_test_node_exists():
    text = (ROOT / "DECISIONS.md").read_text(encoding="utf-8")
    assert len(set(NODE_ID.findall(text))) >= 12  # the scan reads the ledger's node ids
    assert not missing_test_nodes(text)
