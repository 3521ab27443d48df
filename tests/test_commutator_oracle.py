"""qzz1 against the dense End(a) commutator table it used to be read from.

The table holds m(E_i, E_j) = E_i.E_j - (-1)^{|E_i||E_j|} E_j.E_i for every
pair of elementary matrices; ``commutator_pairing`` now computes the
commutator of the two arguments directly.  Both must give the same wedge
[xi ^ xi], cell by cell, and the same condition reports.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

import sfx.doubleext as doubleext
from sfx.cohomology import (
    Cochain, EquivariantPairing, HomSpace, commutator_pairing, wedge,
)
from sfx.doubleext import ExtensionData, build_model, check_conditions
from sfx.liesuper import abelian_algebra
from sfx.superlinalg import GradedLinearMap, zero_vector

from _helpers import tower_level


def dense_commutator_pairing(end: HomSpace, support=None) -> EquivariantPairing:
    """The (dim End(a))^2 table of basis commutators.

    With ``support`` (flat indices), only the rows and columns in it are
    computed and every other cell is zero; ``EquivariantPairing.value``
    never reads those cells for arguments supported there.
    """
    dim = end.space.dim
    pars = end.space.parities
    ops = [end.unflatten(tuple(F(1 if t == i else 0) for t in range(dim)))
           for i in range(dim)]
    keep = set(range(dim) if support is None else support)
    zero = zero_vector(dim)
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i in keep and j in keep:
                fg = ops[j].then(ops[i])   # E_i o E_j
                gf = ops[i].then(ops[j])   # E_j o E_i
                sign = F(-1) if pars[i] * pars[j] % 2 else F(1)
                row.append(end.flatten(fg.sub(gf.scale(sign))))
            else:
                row.append(zero)
        table.append(tuple(row))
    return EquivariantPairing(end.space, end.space, end.space, tuple(table))


def xi_cochain(data: ExtensionData) -> tuple[HomSpace, Cochain]:
    end = HomSpace.build(data.base.space, data.base.space)
    m = data.ell.dim
    xi_co = Cochain(1, abelian_algebra(data.ell), end.space,
                    {(i,): end.flatten(data.xi[i]) for i in range(m)}, 0)
    return end, xi_co


def support_of(xi_co: Cochain) -> set[int]:
    return {k for v in xi_co.values.values() for k, c in enumerate(v) if c != 0}


def assert_wedges_agree(data: ExtensionData, full_table: bool) -> None:
    end, xi_co = xi_cochain(data)
    dense = dense_commutator_pairing(end, None if full_table else support_of(xi_co))
    want = wedge(dense, xi_co, xi_co)
    got = wedge(commutator_pairing(end), xi_co, xi_co)
    assert got.values.keys() == want.values.keys()
    for t, v in want.values.items():
        assert got.values[t] == v, t
    assert got.parity == want.parity and got.coeff == want.coeff


def reports_with_both_pairings(monkeypatch, data: ExtensionData):
    lazy = check_conditions(data)
    with monkeypatch.context() as mp:
        mp.setattr(doubleext, "commutator_pairing", dense_commutator_pairing)
        dense = check_conditions(data)
    return lazy, dense


@pytest.fixture(scope="module")
def towers(built_models):
    """Level-1 (base dim 8) and level-2 (base dim 12) towers over c3a."""
    rng = random.Random(0x70E)
    level1 = tower_level(rng, built_models["c3a"].qf, "M")
    level2 = tower_level(rng, build_model(level1).qf, "N")
    assert (level1.base.space.dim, level2.base.space.dim) == (8, 12)
    return {"level1": level1, "level2": level2}


@pytest.mark.parametrize("fixture", ["c3a_ext", "c112a_ext", "a2a11_ext"])
def test_corpus_wedge_matches_the_full_table(request, fixture):
    assert_wedges_agree(request.getfixturevalue(fixture).data, full_table=True)


@pytest.mark.parametrize("level", ["level1", "level2"])
def test_tower_wedge_matches_the_table(towers, level):
    assert_wedges_agree(towers[level], full_table=False)


def test_tower_reports_match_the_table(monkeypatch, towers):
    lazy, dense = reports_with_both_pairings(monkeypatch, towers["level1"])
    assert lazy == dense and lazy.ok


def _random_endo(space, parity, rng: random.Random) -> GradedLinearMap:
    """Random endomorphism of the given parity (None: of mixed parity)."""
    n = space.dim
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            fits = parity is None or (space.parities[i] + space.parities[k]) % 2 == parity
            if fits and rng.random() < 0.5:
                rows[i][k] = F(rng.randint(-2, 2), rng.randint(1, 2))
    return GradedLinearMap(space, space, tuple(tuple(r) for r in rows))


def _perturbed_xi(data: ExtensionData, rng: random.Random) -> ExtensionData:
    """Each xi(L) plus a random endomorphism of the parity of L."""
    space, ell = data.base.space, data.ell
    xi = tuple(op.add(_random_endo(space, ell.parities[i], rng))
               for i, op in enumerate(data.xi))
    return ExtensionData(data.base, data.ell, xi, data.gamma, data.eps)


@pytest.mark.parametrize("fixture", ["c3a_ext", "a2a11_ext"])
def test_random_xi_wedge_matches_the_full_table(request, fixture):
    """Random xi, odd ones included (both l vectors of 2a11 are odd), whose
    odd parts compose to nonzero maps, and random mixed-parity xi."""
    data = request.getfixturevalue(fixture).data
    rng = random.Random(0x0DD)
    odd_squares = 0
    for _ in range(5):
        perturbed = _perturbed_xi(data, rng)
        odd_squares += sum(
            not all(c == 0 for row in op.then(op).rows for c in row)
            for i, op in enumerate(perturbed.xi) if data.ell.parities[i])
        assert_wedges_agree(perturbed, full_table=True)
        mixed = tuple(_random_endo(data.base.space, None, rng) for _ in data.xi)
        assert_wedges_agree(
            ExtensionData(data.base, data.ell, mixed, data.gamma, data.eps),
            full_table=True)
    assert odd_squares > 0


def test_perturbed_xi_fails_qzz1_with_the_same_witnesses(monkeypatch, c3a_ext):
    rng = random.Random(0xC1)
    for _ in range(50):
        data = _perturbed_xi(c3a_ext.data, rng)
        lazy, dense = reports_with_both_pairings(monkeypatch, data)
        qzz1 = [c for c in lazy.checks if c.name.startswith("qzz1")][0]
        if not qzz1.ok:
            break
    else:
        pytest.fail("no perturbation broke qzz1")
    assert qzz1.witnesses
    assert [c.witnesses for c in lazy.checks] == [c.witnesses for c in dense.checks]
    assert lazy == dense
    assert_wedges_agree(data, full_table=True)


def test_non_homogeneous_xi_on_the_force_path(monkeypatch, c3a_ext):
    data = c3a_ext.data
    mixed = _random_endo(data.base.space, None, random.Random(0xF0))
    assert mixed.homogeneous_parity() is None
    candidate = ExtensionData(data.base, data.ell, (data.xi[0].add(mixed),) + data.xi[1:],
                              data.gamma, data.eps)
    assert not candidate.validate_shapes().ok
    assert_wedges_agree(candidate, full_table=True)
    lazy, dense = reports_with_both_pairings(monkeypatch, candidate)
    assert lazy == dense and not lazy.ok
    model = build_model(candidate, force=True)
    assert model.conditions is None
