"""The README's command-line example and example config, run as written,
and the pytest selection it names for the pinned digests."""

import ast
import re
import shlex
from pathlib import Path

from beamcs.experiment import ExperimentConfig, main, parse_config_file

README = Path(__file__).resolve().parents[1] / "README.md"
TESTS = Path(__file__).resolve().parent


def _blocks(lang):
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```%s\n(.*?)^```" % lang, text, flags=re.M | re.S)


def test_readme_example_config_validates(tmp_path):
    (ini,) = _blocks("ini")
    path = tmp_path / "example.cfg"
    path.write_text(ini, encoding="utf-8")
    ExperimentConfig(**parse_config_file(path)).validate()


def test_readme_command_runs(tmp_path):
    (cmd,) = [b for b in _blocks("sh") if b.startswith("beamcs ")]
    prog, *argv = shlex.split(cmd.replace("\\\n", " "), comments=True)
    assert prog == "beamcs"
    for flag, value in (("--trials", "1"), ("--workers", "1"), ("--out", str(tmp_path))):
        argv[argv.index(flag) + 1] = value
    assert main(argv) == 0
    lines = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 13 * 3  # header, then 13 SNR points of 3 methods


def _readers(top, tests):
    """Names of the tests that hold or read a module-level statement: the
    test itself, or every test that names a variable the statement sets."""
    if top in tests:
        return [top.name]
    if not isinstance(top, ast.Assign):
        return []
    names = {t.id for t in top.targets if isinstance(t, ast.Name)}
    return [t.name for t in tests
            if any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(t))]


def test_every_sha256_literal_sits_in_the_pin_selection():
    # -k matches a test whose name holds "bytes" or "digest", so a re-record
    # shows every moved pin in one run; a pin outside it would move unseen
    assert 'pytest -q -vv -k "bytes or digest"' in README.read_text(encoding="utf-8")
    found = 0
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tests = [n for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name.startswith("test_")]
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and re.fullmatch(r"[0-9a-f]{64}", node.value):
                    found += 1
                    readers = _readers(top, tests)
                    assert readers, "%s:%d" % (path.name, node.lineno)
                    for name in readers:
                        assert "bytes" in name or "digest" in name, (path.name, name)
    assert found


def test_every_imported_name_is_read():
    # __init__.py imports its exports; every other module reads what it imports
    root = TESTS.parent
    paths = [p for p in sorted((root / "src" / "beamcs").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py")) + sorted((root / "demos").glob("*.py"))
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        unread += ["%s:%d %s" % (path.relative_to(root), line, name)
                   for name, line in imported.items() if name not in read]
    assert not unread
