"""Pinned text of the library results that no command prints.

A seeded corpus, about one small pass of each suite's calls and built with
the suites' own generators, is evaluated per kind; the sha256 of the
results' `str()` text, one result a line, is stored per kind in
tests/data/library_digests.json.  A change of output form, even to an equal
value, moves the digest of its kind.  Regenerate the file with
`PYTHONPATH=src python tests/test_library_digests.py` after an intended
change, and name the kinds that moved.

Imports nothing from perfbench/: the benchmark's own digests are not the
contract."""
import hashlib
import itertools
import json
import os
import random

import pytest

from kvertex.laurent import Monomial
from kvertex.quiver import (a2_quiver, conner_floyd, jordan_quiver, lie_bracket,
                            vertex_kernel, vertex_shuffle)
from kvertex.residues import (diagonal_w_side_residue, diagonal_z_side_residues,
                              local_residue_at_root, residue_k, residue_naive)
from kvertex.suites import (_degree_zero_states, _random_grades, pole_angles,
                            random_graded_element, random_rational, random_root_rational,
                            random_virtual_character, small_quivers)

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "library_digests.json")
SEED = 20
PAIRS = 12      # random state pairs per small quiver
ORDER = 12      # truncation order of the diagonal expansions


def _conner_floyd():
    rnd = random.Random(SEED)
    for _ in range(50):
        e = random_virtual_character(rnd)
        for i in range(-1, e.rank + 2):
            yield conner_floyd(e, i)


def _quiver_pairs():
    """Random state pairs on each small quiver, of total grade <= 4."""
    for qi, q in enumerate(small_quivers()):
        rnd = random.Random(SEED * 100 + qi)
        for _ in range(PAIRS):
            alpha, beta, _gamma = _random_grades(rnd, q, 4)
            yield random_graded_element(rnd, q, alpha), random_graded_element(rnd, q, beta)


def _vertex_shuffle():
    for f, g in _quiver_pairs():
        yield vertex_shuffle(f, g)


def _vertex_kernel():
    for f, g in _quiver_pairs():
        yield vertex_kernel(f, g)


def _lie_bracket():
    for q in (a2_quiver(), jordan_quiver()):
        states = _degree_zero_states(q)
        for x, y in itertools.permutations(states, 2):
            yield lie_bracket(x, y)
        for x, y, z in itertools.combinations(states, 3):
            yield lie_bracket(x, lie_bracket(y, z))


def _residue_k():
    rnd = random.Random(SEED)
    for _ in range(200):
        yield residue_k(random_rational(rnd))


def _root_rationals():
    """The inputs of suite_residue_theorem, one pass."""
    rnd = random.Random(SEED)
    return [random_root_rational(rnd) for _ in range(24)]


def _local_residue():
    for f in _root_rationals():
        for angle in pole_angles(f):
            yield local_residue_at_root(f, angle)


def _residue_naive():
    for f in _root_rationals():
        yield residue_naive(f)
    rnd = random.Random(SEED)
    for _ in range(200):
        yield residue_naive(random_rational(rnd))


def _diagonal_cases():
    """The cases of suite_diagonal_expansion."""
    s = Monomial.var("s")
    pivot_set = [s, Monomial.var("t"), s * Monomial.var("t")]
    for n in range(1, 4):
        choices = [[p] * n for p in pivot_set]
        if n > 1:
            choices.append([pivot_set[i % 3] for i in range(n)])
        for a in range(-2, 3):
            for pivots in choices:
                yield a, s, n, pivots


def _diagonal_z_side():
    for a, s, n, pivots in _diagonal_cases():
        yield diagonal_z_side_residues(a, s, n, pivots, ORDER)


def _diagonal_w_side():
    for a, s, n, pivots in _diagonal_cases():
        res = diagonal_w_side_residue(a, s, n, pivots, ORDER)
        yield ", ".join(f"{j}: {res[j]}" for j in sorted(res))


KINDS = {
    "conner_floyd": _conner_floyd,
    "vertex_shuffle": _vertex_shuffle,
    "vertex_kernel": _vertex_kernel,
    "lie_bracket": _lie_bracket,
    "residue_k": _residue_k,
    "local_residue": _local_residue,
    "residue_naive": _residue_naive,
    "diagonal_z_side": _diagonal_z_side,
    "diagonal_w_side": _diagonal_w_side,
}


def digest(kind: str) -> str:
    text = "".join(f"{r}\n" for r in KINDS[kind]())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stored() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_every_kind_is_stored():
    assert sorted(_stored()) == sorted(KINDS)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_library_output_is_unchanged(kind):
    assert digest(kind) == _stored()[kind], f"the printed form of {kind} results moved"


def regenerate():
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({kind: digest(kind) for kind in sorted(KINDS)}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    regenerate()
