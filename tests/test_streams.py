"""``Streams`` makes every draw of a chunk.

Each draw method makes, on the generator of every trial (or of each
listed trial), the call a lone session makes on its own generator, and
returns one row per trial drawn.  The guard below keeps every other
module off the generators: in ``src/`` the attribute ``gens`` is read
only inside ``class Streams``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from sqpc.attacks import Streams

SRC = Path(__file__).resolve().parent.parent / "src"

# Each draw method, as a chunk call (streams, trials) and as the lone
# call it stands for on one trial's generator.
DRAWS = {
    "random": (lambda s, trials: s.random(5, trials), lambda gen: gen.random(5)),
    "random-scalar": (lambda s, trials: s.random(trials=trials), lambda gen: gen.random()),
    "integers": (lambda s, trials: s.integers(2, 7, trials), lambda gen: gen.integers(0, 2, size=7)),
    "permutation": (lambda s, trials: s.permutation(6, trials), lambda gen: gen.permutation(6)),
    "choice": (lambda s, trials: s.choice(9, 4, trials), lambda gen: gen.choice(9, size=4, replace=False)),
}
TRIALS = 4


def _generators(seed: int) -> list[np.random.Generator]:
    return [np.random.default_rng([seed, t]) for t in range(TRIALS)]


@pytest.mark.parametrize("trials", [None, [0], [1, 3], [2], []], ids=["all", "first", "two", "one", "none"])
@pytest.mark.parametrize("draw", DRAWS)
def test_each_row_is_the_lone_call(draw, trials):
    chunk_draw, lone_draw = DRAWS[draw]
    gens, lone = _generators(11), _generators(11)
    rows = chunk_draw(Streams(gens), trials)
    drawn = range(TRIALS) if trials is None else trials
    expected = [lone_draw(lone[t]) for t in drawn]
    assert len(rows) == len(expected)
    for row, lone_row in zip(rows, expected):
        assert np.array_equal(row, lone_row)
    # Every generator is where the lone calls leave it, so a trial outside
    # the subset has not advanced.
    assert [gen.random() for gen in gens] == [gen.random() for gen in lone]


@pytest.mark.parametrize("draw", DRAWS)
def test_rows_have_one_shape(draw):
    chunk_draw, lone_draw = DRAWS[draw]
    shape = np.shape(lone_draw(np.random.default_rng(0)))
    assert chunk_draw(Streams(_generators(3)), None).shape == (TRIALS, *shape)
    assert chunk_draw(Streams(_generators(3)), [2]).shape == (1, *shape)
    assert chunk_draw(Streams(_generators(3)), []).shape == (0, *shape)


def test_integers_of_one_size_per_trial():
    gens, lone = _generators(5), _generators(5)
    rows = Streams(gens).integers(2, [3, 0, 5], [0, 2, 3])
    expected = [lone[t].integers(0, 2, size=k) for t, k in ((0, 3), (2, 0), (3, 5))]
    assert [row.tolist() for row in rows] == [row.tolist() for row in expected]
    assert [gen.random() for gen in gens] == [gen.random() for gen in lone]


def test_length_is_the_trial_count():
    assert len(Streams(_generators(1))) == TRIALS


def gens_reads(source: str, name: str) -> list[tuple[str, str, int]]:
    """(file name, enclosing qualified name, line) of every read of an
    attribute ``gens``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Attribute) and node.attr == "gens" and isinstance(node.ctx, ast.Load):
            found.append((name, ".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_guard_finds_reads():
    source = "\n".join(
        [
            "class Streams:",
            "    def __init__(self, gens):",
            "        self.gens = list(gens)",
            "    def first(self):",
            "        return self.gens[0]",
            "def outside(streams):",
            "    return len(streams.gens)",
        ]
    )
    assert gens_reads(source, "a.py") == [("a.py", "Streams.first", 5), ("a.py", "outside", 7)]


def test_only_streams_reads_its_generators():
    reads = [read for path in sorted(SRC.rglob("*.py")) for read in gens_reads(path.read_text(encoding="utf-8"), path.name)]
    assert reads, "the guard found no read at all, not even in Streams"
    assert [f"{name}:{line} in {scope}" for name, scope, line in reads if scope.split(".")[0] != "Streams"] == []


def test_streams_wraps_no_bare_generator():
    # Every helper takes a Streams; there is no shim that accepts a
    # generator in its place.
    assert not hasattr(Streams, "of")
