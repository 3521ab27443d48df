"""Shared helpers for the test modules (random graded objects, rebrackets)."""

from __future__ import annotations

import itertools
from fractions import Fraction as F

from sfx.cohomology import Cochain
from sfx.liesuper import LieSuperAlgebra
from sfx.superlinalg import (
    EVEN, ODD, GradedLinearMap, Subspace, theta_sign, vec_add, vec_scale,
    zero_vector,
)
from sfx.symplectic import QuasiFrobenius
from sfx.expressions import parse_combo


def antisymmetrize(phi: Cochain) -> Cochain:
    """Graded antisymmetrization of a dense cochain table."""
    n = phi.degree
    alg = phi.algebra
    par = alg.space.parities
    out = {}
    for t in itertools.product(range(alg.dim), repeat=n):
        acc = zero_vector(phi.coeff.dim)
        for perm in itertools.permutations(range(1, n + 1)):
            src = tuple(t[perm[i] - 1] for i in range(n))
            acc = vec_add(acc, vec_scale(F(theta_sign(perm, [par[i] for i in t])),
                                         phi.values[src]))
        out[t] = acc
    return Cochain(n, alg, phi.coeff, out, phi.parity)


def random_cochain(rng, degree, algebra, coeff, parity=None) -> Cochain:
    """Random parity-consistent super-antisymmetric cochain."""
    par = algebra.space.parities
    cpar = coeff.parities
    if parity is None:
        parity = rng.choice((EVEN, ODD))
    base = {}
    for t in itertools.product(range(algebra.dim), repeat=degree):
        want = (parity + sum(par[i] for i in t)) % 2
        base[t] = tuple(
            F(rng.randint(-2, 2)) if cpar[k] == want and rng.random() < 0.4 else F(0)
            for k in range(coeff.dim))
    return antisymmetrize(Cochain(degree, algebra, coeff, base, parity))


def random_subspace(rng, space, max_vectors=3, homogeneous=False) -> Subspace:
    vecs = []
    for _ in range(rng.randint(0, max_vectors)):
        if homogeneous:
            parity = rng.choice((EVEN, ODD))
            v = tuple(F(rng.randint(-3, 3)) if space.parities[i] == parity else F(0)
                      for i in range(space.dim))
        else:
            v = tuple(F(rng.randint(-3, 3)) for _ in range(space.dim))
        vecs.append(v)
    return Subspace.from_vectors(space, vecs)


def with_bracket(model, left, right, value_text) -> QuasiFrobenius:
    """Copy of a built model with one bracket (and mirror) replaced."""
    space = model.space
    c = [[list(v) for v in row] for row in model.qf.algebra.c]
    i, j = space.index(left), space.index(right)
    v = parse_combo(value_text, space)
    sign = -1 if (space.parities[i] * space.parities[j]) % 2 else 1
    c[i][j] = list(v)
    c[j][i] = [-sign * x for x in v]
    alg = LieSuperAlgebra(space, tuple(tuple(tuple(x) for x in row) for row in c))
    return QuasiFrobenius(alg, model.qf.form)


def random_even_tau(rng, data):
    """Random even map l -> base over small rationals."""
    from sfx.doubleext import TauMap
    rows = []
    for i in range(data.ell.dim):
        row = [F(0)] * data.base.space.dim
        for j in range(data.base.space.dim):
            if data.base.space.parities[j] == data.ell.parities[i]:
                row[j] = F(rng.randint(-3, 3), rng.randint(1, 3))
        rows.append(tuple(row))
    return TauMap(data.ell, data.base,
                  GradedLinearMap(data.ell, data.base.space, tuple(rows)))


def tower_level(rng, qf, prefix):
    """Extension data over ``qf`` by l = (1|1): a random even tau applied to
    zero data (valid by construction), redrawn until xi is nonzero."""
    from sfx.doubleext import ExtensionData, tau_transform
    from sfx.superlinalg import SuperSpace
    ell = SuperSpace((f"{prefix}1", f"{prefix}2"), (EVEN, ODD))
    n, m = qf.space.dim, ell.dim
    zero = ExtensionData(
        qf, ell, tuple(GradedLinearMap.zero(qf.space, qf.space) for _ in range(m)),
        tuple(tuple(zero_vector(m) for _ in range(n)) for _ in range(m)),
        tuple(tuple(zero_vector(m) for _ in range(m)) for _ in range(m)))
    while True:
        data = tau_transform(zero, random_even_tau(rng, zero))
        if any(c != 0 for op in data.xi for row in op.rows for c in row):
            return data
