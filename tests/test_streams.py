"""``Streams`` makes every draw of a chunk.

Every draw is a pure function of (trial key, site, position): each row of
a chunk's draw is the draw of that trial alone, whatever trials share its
chunk, and every uniform is the SplitMix64 output its counter names.  The
guard below keeps every other module off the keys: in ``src/`` the
attribute ``trial_keys`` is read only inside ``class Streams``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from sqpc.attacks import SITES, Streams, _attack_mask, splitmix64
from sqpc.improved import tp_prepare_photons
from sqpc.jiang import BALANCED, INDEPENDENT_COIN, SessionConfig, draw_modes, tp_prepare_pairs

SRC = Path(__file__).resolve().parent.parent / "src"

# Each draw method as a call on a chunk's streams, a row per trial.
DRAWS = {
    "random": lambda s: s.random("prepare", 5),
    "random-scalar": lambda s: s.random("differ"),
    "integers": lambda s: s.integers("secret_a", 2, 7),
    "permutation": lambda s: s.permutation("modes_A", 6),
    "choice": lambda s: _attack_mask(4, 9, s, "attack_B"),
}
TRIALS = 4
KEYS = np.array([splitmix64(11, t) for t in range(TRIALS)], dtype=np.uint64)


@pytest.mark.parametrize("trials", [None, [0], [1, 3], [2], []], ids=["all", "first", "two", "one", "none"])
@pytest.mark.parametrize("draw", DRAWS)
def test_each_row_is_the_lone_call(draw, trials):
    # A chunk of the listed trials draws, for each, what it draws alone.
    drawn = range(TRIALS) if trials is None else trials
    rows = DRAWS[draw](Streams(KEYS[list(drawn)]))
    expected = [DRAWS[draw](Streams(KEYS[[t]]))[0] for t in drawn]
    assert len(rows) == len(expected)
    for row, lone_row in zip(rows, expected):
        assert np.array_equal(row, lone_row)


@pytest.mark.parametrize("draw", DRAWS)
def test_rows_have_one_shape(draw):
    shape = np.shape(DRAWS[draw](Streams(KEYS[:1]))[0])
    assert DRAWS[draw](Streams(KEYS)).shape == (TRIALS, *shape)
    assert DRAWS[draw](Streams(KEYS[[2]])).shape == (1, *shape)
    assert DRAWS[draw](Streams(KEYS[:0])).shape == (0, *shape)


def test_length_is_the_trial_count():
    assert len(Streams(KEYS)) == TRIALS


def test_uniforms_are_the_counters_splitmix64_outputs():
    # Position p of site s for key k: the top 52 bits of output
    # s << 32 | p of the SplitMix64 stream seeded with k, over 2**52.
    streams = Streams(KEYS)
    for site, index in SITES.items():
        for p in (0, 3, 7):
            for key, uniform in zip(KEYS.tolist(), streams.random(site, 8)[:, p].tolist()):
                assert uniform == (splitmix64(key, index << 32 | p) >> 12) / 2.0**52


@pytest.mark.parametrize("site", SITES)
def test_every_site_draws_alike_alone_and_in_any_chunk(site):
    # Eight trials cut into chunks four ways, each hashed at its own width:
    # every trial's uniforms and permutation at the site are its own.
    keys = np.array([splitmix64(5, t) for t in range(8)], dtype=np.uint64)
    alone = [Streams(keys[[t]], 3) for t in range(8)]
    for cuts in ([8], [1] * 8, [3, 5], [2, 1, 4, 1]):
        start = 0
        for size in cuts:
            chunk = Streams(keys[start : start + size], 16 * size)
            for j, t in enumerate(range(start, start + size)):
                assert np.array_equal(chunk.random(site, 12)[j], alone[t].random(site, 12)[0])
                assert np.array_equal(chunk.permutation(site, 12)[j], alone[t].permutation(site, 12)[0])
            start += size


def test_draws_are_read_only():
    streams = Streams(KEYS)
    with pytest.raises(ValueError):
        streams.random("key", 4)[0, 0] = 0.5


def gens_reads(source: str, name: str) -> list[tuple[str, str, int]]:
    """(file name, enclosing qualified name, line) of every read of an
    attribute ``trial_keys``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Attribute) and node.attr == "trial_keys" and isinstance(node.ctx, ast.Load):
            found.append((name, ".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_guard_finds_reads():
    source = "\n".join(
        [
            "class Streams:",
            "    def __init__(self, keys):",
            "        self.trial_keys = keys",
            "    def first(self):",
            "        return self.trial_keys[0]",
            "def outside(streams):",
            "    return len(streams.trial_keys)",
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


# Each helper that draws on a Streams, called on a bare generator: its
# draw methods share the names of Streams' and would run, drawing
# something else or failing with an unrelated message.
BARE_GENERATOR_CALLS = {
    "draw_modes-coin": lambda rng: draw_modes(8, 4, INDEPENDENT_COIN, rng, "modes_A"),
    "draw_modes-balanced": lambda rng: draw_modes(8, 4, BALANCED, rng, "modes_A"),
    "tp_prepare_pairs": lambda rng: tp_prepare_pairs(SessionConfig(L=2), rng),
    "tp_prepare_photons": lambda rng: tp_prepare_photons(SessionConfig(L=2), rng),
    "_attack_mask": lambda rng: _attack_mask(2, 8, rng, "attack_A"),
}


@pytest.mark.parametrize("call", BARE_GENERATOR_CALLS)
def test_helpers_refuse_a_bare_generator(call):
    rng = np.random.default_rng(7)
    with pytest.raises(TypeError, match="Streams"):
        BARE_GENERATOR_CALLS[call](rng)
    assert rng.random() == np.random.default_rng(7).random(), "the refused call drew"
