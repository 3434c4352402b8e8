"""Repo lint: one reader may run ahead of a shared random stream.

The corpus generator's Generator is one stream read by vectorised calls
(lengths, topics, background ranks, the title's ``choice``) and by the
body text's scalar draws.  ``corpus/generator.py``'s ``_BodyStream``
reads those scalar draws ahead in one ``random_raw`` block and then
rewinds the bit generator to what they would have consumed
(``state = saved``, ``advance(n)``, the half-word cache).  That is
bit-identical only while nothing else reads ahead or rewinds, so raw
reads, ``advance`` on a bit generator and assignments to a bit
generator's ``state`` may appear under ``src/repro`` only inside that
class.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: (file relative to ``src/repro``, class) allowed to read ahead/rewind.
OWNER = ("corpus/generator.py", "_BodyStream")


def _mentions_bit_generator(node: ast.AST) -> bool:
    for child in ast.walk(node):
        name = getattr(child, "id", None) or getattr(child, "attr", None)
        if name and "bit_generator" in name:
            return True
    return False


def _stream_accesses(tree: ast.AST):
    """``(line, what, enclosing class)`` of every read-ahead or rewind."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Attribute) and node.attr == "random_raw":
            found.append((node.lineno, "reads random_raw", owner))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "advance"
            and _mentions_bit_generator(node.func.value)
        ):
            found.append((node.lineno, "advances a bit generator", owner))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "state"
                    and _mentions_bit_generator(target.value)
                ):
                    found.append((node.lineno, "sets a bit generator's state", owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _violations(root: Path = SRC_ROOT):
    violations = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for line, what, owner in _stream_accesses(ast.parse(path.read_text())):
            if (relative, owner) != OWNER:
                violations.append(f"src/repro/{relative}:{line}: {what}")
    return violations


def test_one_stream_owner():
    violations = _violations()
    assert not violations, (
        "only corpus/generator.py's _BodyStream may read a shared "
        "Generator ahead or rewind it; draw from the Generator instead:\n"
        + "\n".join(violations)
    )


def test_the_owner_is_there():
    """The lint guards a live class: the owner reads and rewinds."""
    tree = ast.parse((SRC_ROOT / OWNER[0]).read_text())
    whats = {what for _, what, owner in _stream_accesses(tree) if owner == OWNER[1]}
    assert whats == {
        "reads random_raw",
        "advances a bit generator",
        "sets a bit generator's state",
    }


def test_lint_actually_detects(tmp_path):
    """Planted read-aheads and rewinds outside the owner are caught; the
    owner's own, a read of ``state`` and an unrelated ``advance`` are
    not."""
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "generator.py").write_text(
        "class _BodyStream:\n"
        "    def body(self):\n"
        "        raw = self._bit_generator.random_raw(8)\n"
        "        self._bit_generator.state = saved\n"
        "        self._bit_generator.advance(3)\n"
        "def generate(rng):\n"
        "    saved = rng.bit_generator.state\n"
        "    rng.bit_generator.state = saved\n"
    )
    (tmp_path / "corpus" / "querylog.py").write_text(
        "def sample(rng, clock):\n"
        "    words = rng.bit_generator.random_raw(4)\n"
        "    bit_generator = rng.bit_generator\n"
        "    bit_generator.advance(2)\n"
        "    clock.advance(5)\n"
    )
    assert _violations(tmp_path) == [
        "src/repro/corpus/generator.py:8: sets a bit generator's state",
        "src/repro/corpus/querylog.py:2: reads random_raw",
        "src/repro/corpus/querylog.py:4: advances a bit generator",
    ]
