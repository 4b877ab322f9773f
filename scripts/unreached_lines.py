"""List the statements of src/graphtik that the digest's traffic never runs.

    PYTHONPATH=src python scripts/unreached_lines.py

The script runs what ``table_digest.py`` runs (every table, figure, CLI
command and n = 1000 cell) in-process, with the standard library's
``trace.Trace`` counting the lines that run in the package's own modules.
It then prints, for each module, the statements none of whose lines ran,
with their line numbers.  The statements come from ``ast``.  Docstrings
(the lines ``code_lines.docstring_lines`` returns), ``def`` and ``class``
lines and imports are left out.  A statement counts as run when any of
its lines ran, so a compound statement (``if``, ``for``, ``try``,
``with``) whose header ran is not listed, while an untaken branch lists
the statements of its body.  The package is imported under the trace, so
module-level statements count too.

The digest runs at its own default seeds, 0..19; on 2 cores the run
takes 10.5-14 s.  A listed statement is one that the tables, figures and
CLI runs never reach, which is the measurement to take before deleting
it; the unit tests may still reach it.
"""
import ast
import contextlib
import io
import os
import sys
import trace
from collections import defaultdict
from pathlib import Path

_SCRIPTS = Path(__file__).resolve().parent
_PACKAGE = _SCRIPTS.parent / "src" / "graphtik"
sys.path.insert(0, str(_SCRIPTS))
from code_lines import docstring_lines  # noqa: E402  (the one docstring rule)

_NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(tree: ast.AST) -> list:
    """(first, last) line of each counted statement, in line order."""
    docstrings = docstring_lines(tree)
    return sorted(
        (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, _NOT_COUNTED) and node.lineno not in docstrings
    )


def ran_lines(run, root) -> dict:
    """{real path: set of line numbers} of the lines that ran in files
    under root while ``run()`` ran.  ``trace.Trace`` counts them; it does
    not trace modules under the interpreter's prefixes, where numpy and
    scipy live."""
    tracer = trace.Trace(count=1, trace=0, ignoredirs=(sys.prefix, sys.exec_prefix))
    tracer.runfunc(run)
    root = os.path.realpath(root) + os.sep
    ran = defaultdict(set)
    for filename, lineno in tracer.results().counts:
        path = os.path.realpath(filename)
        if path.startswith(root):
            ran[path].add(lineno)
    return ran


def unreached(run, root) -> dict:
    """{path: [(line, source text)]} of the statements of each module
    under root that did not run while ``run()`` ran."""
    ran = ran_lines(run, root)
    out = {}
    for path in sorted(Path(root).rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        hit = ran.get(os.path.realpath(path), set())
        out[path] = [
            (first, text[first - 1].strip())
            for first, last in statements(ast.parse(source))
            if hit.isdisjoint(range(first, last + 1))
        ]
    return out


def _run_digest() -> None:
    """The traffic of ``table_digest.py`` at its default seeds, its digest
    lines discarded."""
    sys.path.insert(0, str(_PACKAGE.parent))
    import table_digest  # imports the package, under the trace

    with contextlib.redirect_stdout(io.StringIO()):
        table_digest.main([])


def main() -> int:
    for path, missed in unreached(_run_digest, _PACKAGE).items():
        print(f"{path.name}: {len(missed)} statements not run")
        for lineno, text in missed:
            print(f"  {lineno:4d}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
