"""Chevalley-Eilenberg cochain machinery in low degrees.

Cochains are n-linear super-antisymmetric maps on an algebra with values in
a graded coefficient space, stored densely over all basis index tuples
(odd-repeat entries are legitimately nonzero, so antisymmetry is validated,
never exploited for storage).  Degrees are capped at 4.

The differential of an (m-1)-cochain phi, evaluated on x_1..x_m, is

    sum_{i<j} (-1)^{|x_j|(|x_{i+1}|+...+|x_{j-1}|)+j}
              phi(x_1,..,x_{i-1},[x_i,x_j],x_{i+1},..,^x_j,..,x_m)
  + sum_j    (-1)^{|x_j|(|phi|+|x_1|+...+|x_{j-1}|)+j}
              x_j . phi(x_1,..,^x_j,..,x_m)

with the module action x.m being zero (trivial coefficients), the adjoint
bracket, or a supplied operator family xi (the d_xi variant, which squares
to zero exactly when xi is a homomorphism).

Omitted arguments work exactly as displayed: the bracket [x_i, x_j] sits
in slot i and slot j disappears.  Worked three-argument expansion for a
2-cochain phi with trivial coefficients, reading the signs off the
formula ((i,j) = (1,2), (1,3), (2,3) contribute j-signs +, -, -):

    d phi(x1, x2, x3) = phi([x1,x2], x3)
                        - (-1)^{|x2||x3|} phi([x1,x3], x2)
                        - phi(x1, [x2,x3])

The graded wedge against a bilinear pairing m uses (n,k)-shuffles and the
super-shuffle sign theta:

    m(a^b)(x_1..x_{n+k}) = sum_{s in sh(n,k)} theta(s,X)
                           m(a(x_{s(1)}..x_{s(n)}), b(x_{s(n+1)}..x_{s(n+k)}))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .liesuper import LieSuperAlgebra
from .superlinalg import (
    GradedLinearMap, SuperSpace, Vector, theta_sign, shuffles, vec_add,
    vec_is_zero, vec_scale, zero_vector,
)

__all__ = [
    "MAX_DEGREE", "Cochain", "EquivariantPairing", "CommutatorPairing", "HomSpace",
    "d_ce", "d_xi", "wedge", "ev_pairing", "commutator_pairing",
]

MAX_DEGREE = 4


def _sign(exp: int) -> int:
    return -1 if exp % 2 else 1


@dataclass(frozen=True)
class Cochain:
    """Degree-n super-antisymmetric map with graded coefficients.

    ``values`` maps every basis index tuple of length ``degree`` to a
    coefficient vector; ``parity`` is the cochain's own parity |phi|.
    """

    degree: int
    algebra: LieSuperAlgebra
    coeff: SuperSpace
    values: dict[tuple[int, ...], Vector]
    parity: int = 0

    def __post_init__(self):
        if not (0 <= self.degree <= MAX_DEGREE):
            raise ValueError(f"cochain degree must lie in 0..{MAX_DEGREE}")
        n = self.algebra.dim
        want = n ** self.degree
        if len(self.values) != want:
            raise ValueError("dense value table required (one entry per tuple)")

    @classmethod
    def zero(cls, degree: int, algebra: LieSuperAlgebra, coeff: SuperSpace,
             parity: int = 0) -> "Cochain":
        vals = {t: zero_vector(coeff.dim)
                for t in itertools.product(range(algebra.dim), repeat=degree)}
        return cls(degree, algebra, coeff, vals, parity)

    @classmethod
    def from_function(cls, degree: int, algebra: LieSuperAlgebra,
                      coeff: SuperSpace, fn: Callable[..., Sequence[Fraction]],
                      parity: int = 0) -> "Cochain":
        vals = {t: tuple(fn(*t))
                for t in itertools.product(range(algebra.dim), repeat=degree)}
        return cls(degree, algebra, coeff, vals, parity)

    def value(self, idx: tuple[int, ...]) -> Vector:
        return self.values[idx]

    def eval_multilinear(self, args: Sequence[Sequence[Fraction]]) -> Vector:
        """Evaluate on arbitrary vectors by multilinear expansion."""
        out = zero_vector(self.coeff.dim)
        supports = [[(i, c) for i, c in enumerate(v) if c != 0] for v in args]
        for combo in itertools.product(*supports):
            coeff = Fraction(1)
            idx = []
            for i, c in combo:
                coeff *= c
                idx.append(i)
            out = vec_add(out, vec_scale(coeff, self.values[tuple(idx)]))
        return out

    def is_zero(self) -> bool:
        return all(vec_is_zero(v) for v in self.values.values())

    def add(self, other: "Cochain") -> "Cochain":
        vals = {t: vec_add(v, other.values[t]) for t, v in self.values.items()}
        return Cochain(self.degree, self.algebra, self.coeff, vals, self.parity)

    def scale(self, c: Fraction) -> "Cochain":
        vals = {t: vec_scale(c, v) for t, v in self.values.items()}
        return Cochain(self.degree, self.algebra, self.coeff, vals, self.parity)

    def antisymmetry_violations(self) -> list[str]:
        """Adjacent-transposition check of graded antisymmetry."""
        par = self.algebra.space.parities
        out = []
        for t, v in self.values.items():
            for pos in range(self.degree - 1):
                a, b = t[pos], t[pos + 1]
                swapped = t[:pos] + (b, a) + t[pos + 2:]
                s = Fraction(-_sign(par[a] * par[b]))
                if self.values[swapped] != vec_scale(s, v):
                    out.append(f"slots {pos},{pos+1} of {t}")
        return out

    def parity_violations(self) -> list[str]:
        """Values must land in coefficient coordinates of parity |phi|+sum|slots|."""
        par = self.algebra.space.parities
        cpar = self.coeff.parities
        out = []
        for t, v in self.values.items():
            want = (self.parity + sum(par[i] for i in t)) % 2
            for k, c in enumerate(v):
                if c != 0 and cpar[k] != want:
                    out.append(f"tuple {t} hits coefficient {self.coeff.labels[k]}")
        return out


def _eval_slot_vector(phi: Cochain, prefix: tuple[int, ...], vec: Vector,
                      suffix: tuple[int, ...]) -> Vector:
    """phi(e_prefix.., v, e_suffix..) expanded linearly in the one vector slot."""
    out = zero_vector(phi.coeff.dim)
    for k, c in enumerate(vec):
        if c != 0:
            out = vec_add(out, vec_scale(c, phi.values[prefix + (k,) + suffix]))
    return out


def _differential(phi: Cochain,
                  action: Callable[[int, Vector], Vector] | None) -> Cochain:
    """Shared engine for d_ce and d_xi; action(j_basis, w) = x_j . w or None."""
    m = phi.degree + 1
    if m > MAX_DEGREE:
        raise ValueError(f"unsupported degree: differential would exceed {MAX_DEGREE}")
    alg = phi.algebra
    par = alg.space.parities
    vals: dict[tuple[int, ...], Vector] = {}
    for t in itertools.product(range(alg.dim), repeat=m):
        acc = zero_vector(phi.coeff.dim)
        # bracket-insertion sum
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                br = alg.c[t[i - 1]][t[j - 1]]
                if vec_is_zero(br):
                    continue
                exp = par[t[j - 1]] * sum(par[t[r - 1]] for r in range(i + 1, j)) + j
                rest = tuple(t[r - 1] for r in range(1, m + 1) if r not in (i, j))
                prefix = rest[:i - 1]
                suffix = rest[i - 1:]
                term = _eval_slot_vector(phi, prefix, br, suffix)
                acc = vec_add(acc, vec_scale(Fraction(_sign(exp)), term))
        # module-action sum
        if action is not None:
            for j in range(1, m + 1):
                rest = tuple(t[r - 1] for r in range(1, m + 1) if r != j)
                inner = phi.values[rest]
                if vec_is_zero(inner):
                    continue
                acted = action(t[j - 1], inner)
                if vec_is_zero(acted):
                    continue
                exp = par[t[j - 1]] * (phi.parity + sum(par[t[r - 1]] for r in range(1, j))) + j
                acc = vec_add(acc, vec_scale(Fraction(_sign(exp)), acted))
        vals[t] = acc
    return Cochain(m, alg, phi.coeff, vals, phi.parity)


def d_ce(phi: Cochain, coefficients: str = "trivial") -> Cochain:
    """Chevalley-Eilenberg differential with trivial or adjoint coefficients."""
    if coefficients == "trivial":
        return _differential(phi, None)
    if coefficients == "adjoint":
        if phi.coeff != phi.algebra.space:
            raise ValueError("adjoint coefficients need values in the algebra itself")
        alg = phi.algebra

        def action(j: int, w: Vector) -> Vector:
            out = zero_vector(alg.dim)
            for k, c in enumerate(w):
                if c != 0 and not vec_is_zero(alg.c[j][k]):
                    out = vec_add(out, vec_scale(c, alg.c[j][k]))
            return out

        return _differential(phi, action)
    raise ValueError("coefficients must be 'trivial' or 'adjoint'")


def d_xi(phi: Cochain, xi: Sequence[GradedLinearMap]) -> Cochain:
    """Differential twisted by xi : source -> End(coefficients).

    ``xi[i]`` is the operator attached to source basis vector i.  Squares to
    zero exactly when xi is a Lie superalgebra map (checked in tests both
    ways).
    """
    if len(xi) != phi.algebra.dim:
        raise ValueError("one operator per source basis vector required")
    for op in xi:
        if op.source != phi.coeff or op.target != phi.coeff:
            raise ValueError("xi operators must act on the coefficient space")

    def action(j: int, w: Vector) -> Vector:
        return xi[j].apply(w)

    return _differential(phi, action)


@dataclass(frozen=True)
class EquivariantPairing:
    """Bilinear pairing U x V -> W by structure coefficients.

    ``table[i][j]`` is the W-vector m(u_i, v_j).  Equivariance is a property
    of how it is used; bilinearity is structural.
    """

    u: SuperSpace
    v: SuperSpace
    w: SuperSpace
    table: tuple[tuple[Vector, ...], ...]
    parity: int = 0

    def value(self, uvec: Sequence[Fraction], vvec: Sequence[Fraction]) -> Vector:
        out = zero_vector(self.w.dim)
        for i, a in enumerate(uvec):
            if a == 0:
                continue
            for j, b in enumerate(vvec):
                if b == 0:
                    continue
                cell = self.table[i][j]
                if not vec_is_zero(cell):
                    out = vec_add(out, vec_scale(a * b, cell))
        return out


def wedge(pairing: EquivariantPairing | CommutatorPairing, alpha: Cochain,
          beta: Cochain) -> Cochain:
    """Super-shuffle wedge of an n- and a k-cochain against a pairing."""
    if alpha.algebra is not beta.algebra and alpha.algebra != beta.algebra:
        raise ValueError("wedge factors must live on one algebra")
    if alpha.coeff != pairing.u or beta.coeff != pairing.v:
        raise ValueError("coefficient spaces incompatible with the pairing")
    n, k = alpha.degree, beta.degree
    if n + k > MAX_DEGREE:
        raise ValueError(f"unsupported degree: wedge would exceed {MAX_DEGREE}")
    alg = alpha.algebra
    par = alg.space.parities
    shs = shuffles(n, k)
    vals: dict[tuple[int, ...], Vector] = {}
    for t in itertools.product(range(alg.dim), repeat=n + k):
        tuple_parities = [par[i] for i in t]
        acc = zero_vector(pairing.w.dim)
        for sigma in shs:
            th = theta_sign(sigma, tuple_parities)
            left = tuple(t[sigma[r] - 1] for r in range(n))
            right = tuple(t[sigma[n + r] - 1] for r in range(k))
            cell = pairing.value(alpha.values[left], beta.values[right])
            if not vec_is_zero(cell):
                acc = vec_add(acc, vec_scale(Fraction(th), cell))
        vals[t] = acc
    parity = (alpha.parity + beta.parity + pairing.parity) % 2
    return Cochain(n + k, alg, pairing.w, vals, parity)


@dataclass(frozen=True)
class HomSpace:
    """Hom(src, tgt) flattened to a SuperSpace for use as coefficients.

    Basis element (i, k) is the map e_i -> f_k (zero elsewhere), of parity
    |f_k| + |e_i|; the flat ordering is canonical even-before-odd.
    """

    src: SuperSpace
    tgt: SuperSpace
    space: SuperSpace
    position: dict[tuple[int, int], int]

    @classmethod
    def build(cls, src: SuperSpace, tgt: SuperSpace) -> "HomSpace":
        labels, parities, keys = [], [], []
        for i in range(src.dim):
            for k in range(tgt.dim):
                labels.append(f"{tgt.labels[k]}(x){src.labels[i]}*")
                parities.append((src.parities[i] + tgt.parities[k]) % 2)
                keys.append((i, k))
        space, perm, _ = SuperSpace.sorted_from(labels, parities)
        position = {key: perm[idx] for idx, key in enumerate(keys)}
        return cls(src, tgt, space, position)

    def flatten(self, m: GradedLinearMap) -> Vector:
        out = [Fraction(0)] * self.space.dim
        for i in range(self.src.dim):
            for k in range(self.tgt.dim):
                out[self.position[(i, k)]] = m.rows[i][k]
        return tuple(out)

    def unflatten(self, v: Sequence[Fraction]) -> GradedLinearMap:
        rows = [[Fraction(0)] * self.tgt.dim for _ in range(self.src.dim)]
        for (i, k), pos in self.position.items():
            rows[i][k] = v[pos]
        return GradedLinearMap(self.src, self.tgt, tuple(tuple(r) for r in rows))


def ev_pairing(hom: HomSpace) -> EquivariantPairing:
    """Evaluation pairing Ev : Hom(a, h) x a -> h, (f, x) -> f(x)."""
    table = []
    for flat in range(hom.space.dim):
        row = []
        f = hom.unflatten(tuple(Fraction(1 if t == flat else 0)
                                for t in range(hom.space.dim)))
        for i in range(hom.src.dim):
            row.append(f.rows[i])
        table.append(tuple(row))
    return EquivariantPairing(hom.space, hom.src, hom.tgt, tuple(table))


@dataclass(frozen=True)
class CommutatorPairing:
    """Super-commutator m(f,g) = f.g - (-1)^{|f||g|} g.f on End(a), on demand.

    ``value`` unflattens both arguments, splits each into its even and odd
    parts and sums the commutators of the four parity pairs, so a
    non-homogeneous argument gets the bilinear extension of the
    homogeneous rule.  One value costs a few n x n products; no table over
    the (dim End(a))^2 basis pairs is built.
    """

    end: HomSpace

    @property
    def u(self) -> SuperSpace:
        """Both arguments and the value live in End(a)."""
        return self.end.space

    v = w = u
    parity = 0   # the super-commutator is even

    def _parts(self, vec: Sequence[Fraction]) -> list[tuple[int, GradedLinearMap]]:
        space = self.end.space
        return [(p, self.end.unflatten(part)) for p in (0, 1)
                if not vec_is_zero(part := space.parity_projection(vec, p))]

    def value(self, uvec: Sequence[Fraction], vvec: Sequence[Fraction]) -> Vector:
        out = GradedLinearMap.zero(self.end.src, self.end.tgt)
        for p, f in self._parts(uvec):
            for q, g in self._parts(vvec):
                fg = g.then(f)   # f o g
                gf = f.then(g)   # g o f
                out = out.add(fg.sub(gf.scale(Fraction(_sign(p * q)))))
        return self.end.flatten(out)


def commutator_pairing(end: HomSpace) -> CommutatorPairing:
    """The super-commutator on End(a) as a pairing for :func:`wedge`.

    The 1/2 factor conventionally written in front of [xi^xi] compensates
    the shuffle double-count; callers apply it themselves.
    """
    if end.src != end.tgt:
        raise ValueError("commutator pairing needs endomorphisms")
    return CommutatorPairing(end)
