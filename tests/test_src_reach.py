"""Every public module-level function of src/ngontheta is reached from
outside the tests: referenced by src/ code other than its own definition,
imported or called by a perfbench/ source file, or named in backticks in
the README's library table.  A name inside a string (a tracer label such
as "dodec.dodec_P_kernel") reaches nothing.  Oracles that only tests call
belong in tests/conftest.py."""

import ast
import re

from conftest import REPO

SRC = REPO / "src" / "ngontheta"


def _names(node):
    """The identifiers, attribute names and imported names under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _named(table, perf):
    """The identifiers in backticks in the README table rows and the names
    that the perfbench/ sources perf import, call or read."""
    quoted = re.findall(r"`([^`]*)`", "\n".join(table))
    return set(re.findall(r"\w+", " ".join(quoted))) | \
        {n for text in perf for n in _names(ast.parse(text))}


def _unreached(sources, named):
    """The public module-level functions, as module.name, of the module
    sources {module: text} that no top-level statement but their own
    definition references and that are not in the set `named`."""
    defs, refs = [], []
    for module, text in sources.items():
        for top in ast.parse(text).body:
            if isinstance(top, ast.FunctionDef) and \
                    not top.name.startswith("_"):
                defs.append((module, top.name, top))
            refs.append((top, set(_names(top))))
    return [f"{module}.{name}" for module, name, node in defs
            if name not in named
            and not any(name in r for top, r in refs if top is not node)]


def test_no_test_only_code_in_src():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    table = [line for line in (REPO / "README.md").read_text().splitlines()
             if line.startswith("| `ngontheta.")]
    assert len(table) == len(sources) - 1     # one row per module
    perf = [p.read_text() for p in sorted((REPO / "perfbench").glob("*.py"))]
    assert _unreached(sources, _named(table, perf)) == []


def test_guard_flags_a_test_only_function():
    src = {"a": "def used():\n    return 1\n\n\n"
                "def orphan():\n    return orphan() + used()\n",
           "b": "from .a import used\n"}
    assert _unreached(src, set()) == ["a.orphan"]
    assert _unreached(src, {"orphan"}) == []
    # named only in prose, a string or a comment: still flagged
    named = _named(["| `ngontheta.a` | orphan |"],
                   ['LAYERS = ("a.orphan", "orphan")  # orphan\n'])
    assert "orphan" not in named
    assert _unreached(src, named) == ["a.orphan"]
    # named in backticks, imported or called: reached
    for table, perf in ((["| `ngontheta.a` | `orphan(x)` |"], []),
                        ([], ["from ngontheta.a import orphan\n"]),
                        ([], ["import ngontheta.a as a\na.orphan()\n"])):
        assert _unreached(src, _named(table, perf)) == []
