"""Every public module-level function of src/ngontheta is reached by code
outside the tests: referenced by src/ code other than its own definition,
or imported or called by a perfbench/ source file.  A name inside a string
(a tracer label such as "dodec.dodec_P_kernel"), a comment or the README
reaches nothing.  Oracles that only tests call belong in tests/conftest.py."""

import ast

from conftest import REPO


def _names(node):
    """The identifiers, attribute names and imported names under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _named(perf):
    """The names that the perfbench/ sources perf import, call or read."""
    return {n for text in perf for n in _names(ast.parse(text))}


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


def _repo_unreached(repo):
    """_unreached over the modules of repo/src/ngontheta, with the names
    that the repo/perfbench sources reach; the README is not read."""
    sources = {p.stem: p.read_text()
               for p in sorted((repo / "src" / "ngontheta").glob("*.py"))}
    perf = [p.read_text() for p in sorted((repo / "perfbench").glob("*.py"))]
    return _unreached(sources, _named(perf))


def test_no_test_only_code_in_src():
    table = [line for line in (REPO / "README.md").read_text().splitlines()
             if line.startswith("| `ngontheta.")]
    modules = list((REPO / "src" / "ngontheta").glob("*.py"))
    assert len(table) == len(modules) - 1     # one README row per module
    assert _repo_unreached(REPO) == []


def test_guard_flags_a_test_only_function(tmp_path):
    src = {"a": "def used():\n    return 1\n\n\n"
                "def orphan():\n    return orphan() + used()\n",
           "b": "from .a import used\n"}
    assert _unreached(src, set()) == ["a.orphan"]
    assert _unreached(src, {"orphan"}) == []
    # named only in prose, a string or a comment: still flagged
    named = _named(['LAYERS = ("a.orphan", "orphan")  # orphan\n'])
    assert "orphan" not in named
    assert _unreached(src, named) == ["a.orphan"]
    # imported or called: reached
    for perf in ("from ngontheta.a import orphan\n",
                 "import ngontheta.a as a\na.orphan()\n"):
        assert _unreached(src, _named([perf])) == []
    # named in backticks in the README's library table only: flagged
    (tmp_path / "src" / "ngontheta").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    for module, text in src.items():
        (tmp_path / "src" / "ngontheta" / f"{module}.py").write_text(text)
    (tmp_path / "README.md").write_text("| `ngontheta.a` | `orphan(x)` |\n")
    (tmp_path / "perfbench" / "run.py").write_text("import ngontheta.b\n")
    assert _repo_unreached(tmp_path) == ["a.orphan"]
    (tmp_path / "perfbench" / "run.py").write_text(
        "from ngontheta.a import orphan\n")
    assert _repo_unreached(tmp_path) == []
