"""Symplectic double extensions: standard models, extraction, equivalence.

Given a quasi-Frobenius base (a, w_a), an abelian graded space l, and maps

    xi    : l -> End(a)
    gamma : l -> Hom(a, l*)
    eps   : l x l -> l*      (super-antisymmetric)

the derived maps are

    beta(a,b)(L)  = -(-1)^{|L|(|a|+|b|)} w(xi(L)a, b) - (-1)^{|b||L|} w(a, xi(L)b)
    w(a, alpha(L1,L2)) = (-1)^{|L2|(|L1|+|a|)} gamma(L2)(a)(L1)
                         - (-1)^{|a||L1|} gamma(L1)(a)(L2)

and the extension d = l* + a + l (orthosymplectic, w_a even) or
Pi(l*) + a + l (periplectic, w_a odd) carries the bracket

    [l*, d] = 0            [a,b]   = beta(a,b) + [a,b]_a
    [L,a]   = gamma(L)(a) + xi(L)(a)
    [L1,L2] = eps(L1,L2) + alpha(L1,L2)

(l*-valued parts pi-wrapped in the periplectic case) and the block form
w_d(Z1+a+L1, Z2+b+L2) = Z1(L2) + w_a(a,b) -+ sign * Z2(L1).

The construction is a Lie superalgebra with closed w_d exactly when seven
conditions hold; ``check_conditions`` evaluates all of them, routing the
cochain-valued ones (curvature, d_xi-closedness of alpha, the twisted
gamma equation) through the cohomology operators so the sign machinery is
exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .cohomology import (
    Cochain, HomSpace, commutator_pairing, d_ce, d_xi, ev_pairing, wedge,
)
from .liesuper import LieSuperAlgebra, abelian_algebra
from .reports import Report
from .superlinalg import (
    EVEN, ODD, ZERO, ONE, GradedLinearMap, InconsistentSystemError, Subspace,
    SuperSpace, Vector, matrix_rank, nullspace, pi_label, solve_linear,
    unit_vector, vec_add, vec_is_zero, vec_scale, vec_sub, zero_vector,
)
from .symplectic import QuasiFrobenius, ReduceResult, SuperForm

__all__ = [
    "ExtensionData", "StandardModel", "ExtensionQuadruple", "TauMap",
    "ConditionFailure", "DegenerateBaseError", "derive_beta", "derive_alpha",
    "check_conditions", "build_orthosymplectic", "build_periplectic", "build_model",
    "canonical_quadruple", "quadruple_from_ideal", "extract_standard",
    "ExtractResult", "tau_transform", "tau_equivalence_map",
    "verify_equivalence", "CONDITION_NAMES",
]

CONDITION_NAMES = (
    "qzz0", "qzz1", "qzz3", "gamma-compat", "qzz5", "qzz2", "qzz4",
)

_CONDITION_TEXT = {
    "qzz0": "xi maps into derivations",
    "qzz1": "adjoint of alpha matches the xi curvature",
    "qzz3": "alpha is d_xi-closed",
    "gamma-compat": "gamma is compatible with brackets through beta",
    "qzz5": "the gamma/alpha evaluation pairing vanishes",
    "qzz2": "twisted differential of gamma matches beta after alpha",
    "qzz4": "epsilon satisfies the cyclic condition",
}


def _sign(exp: int) -> int:
    return -1 if exp % 2 else 1


class ConditionFailure(ValueError):
    """Raised when building from data that fails the condition checks."""

    def __init__(self, report: Report):
        self.report = report
        failed = [c.name for c in report.checks if not c.ok]
        super().__init__(f"extension conditions failed: {', '.join(failed)}")


class DegenerateBaseError(ValueError):
    """Raised when extension data sits over a degenerate base form."""


# ---------------------------------------------------------------------------
# extension data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionData:
    """The defining triple (xi, gamma, eps) over a quasi-Frobenius base.

    gamma[i][j] are the l*-coordinates of gamma(L_i)(e_j); eps[i][j] those
    of eps(L_i, L_j).  The dual space l* is coordinatized by the L_k* with
    the parity of L_k.
    """

    base: QuasiFrobenius
    ell: SuperSpace
    xi: tuple[GradedLinearMap, ...]
    gamma: tuple[tuple[Vector, ...], ...]
    eps: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        m, n = self.ell.dim, self.base.space.dim
        if len(self.xi) != m:
            raise ValueError("one xi operator per l basis vector required")
        for op in self.xi:
            if op.source != self.base.space or op.target != self.base.space:
                raise ValueError("xi operators must act on the base space")
        if len(self.gamma) != m or any(len(r) != n for r in self.gamma):
            raise ValueError("gamma must be indexed by l x base basis")
        if len(self.eps) != m or any(len(r) != m for r in self.eps):
            raise ValueError("eps must be indexed by l x l")

    @property
    def model_kind(self) -> str:
        return "orthosymplectic" if self.base.form.parity == EVEN else "periplectic"

    @property
    def pi_twist(self) -> int:
        """Parity shift of the l*-valued components inside the extension."""
        return 0 if self.base.form.parity == EVEN else 1

    def validate_shapes(self) -> Report:
        """Parity legality of all components and eps antisymmetry."""
        report = Report("extension data shapes")
        ell, base = self.ell, self.base.space
        twist = self.pi_twist

        bad = []
        for i, op in enumerate(self.xi):
            hp = op.homogeneous_parity()
            if hp is not None and hp != ell.parities[i] and any(
                    not vec_is_zero(r) for r in op.rows):
                bad.append(f"xi({ell.labels[i]}) is not parity-{ell.parities[i]}")
            if hp is None:
                bad.append(f"xi({ell.labels[i]}) is not homogeneous")
        report.add("xi components homogeneous of the right parity", not bad, bad)

        bad = []
        for i in range(ell.dim):
            for j in range(base.dim):
                want = (ell.parities[i] + base.parities[j] + twist) % 2
                for k, c in enumerate(self.gamma[i][j]):
                    if c != 0 and ell.parities[k] != want:
                        bad.append(f"gamma({ell.labels[i]})({base.labels[j]})")
        report.add("gamma components parity-legal", not bad, bad)

        bad = []
        for i in range(ell.dim):
            for j in range(ell.dim):
                want = (ell.parities[i] + ell.parities[j] + twist) % 2
                for k, c in enumerate(self.eps[i][j]):
                    if c != 0 and ell.parities[k] != want:
                        bad.append(f"eps({ell.labels[i]},{ell.labels[j]})")
                mirror = vec_scale(
                    Fraction(-_sign(ell.parities[i] * ell.parities[j])),
                    self.eps[j][i])
                if self.eps[i][j] != mirror:
                    bad.append(
                        f"eps not super-antisymmetric at ({ell.labels[i]},{ell.labels[j]})")
        report.add("eps parity-legal and super-antisymmetric", not bad, bad)
        return report


@lru_cache(maxsize=None)
def derive_beta(ext: ExtensionData) -> tuple[tuple[Vector, ...], ...]:
    """beta[i][j] = l*-coordinates of beta(e_i, e_j), from xi and the form."""
    base = ext.base
    apar = base.space.parities
    lpar = ext.ell.parities
    n, m = base.space.dim, ext.ell.dim
    out = []
    for i in range(n):
        row = []
        ei = unit_vector(n, i)
        for j in range(n):
            ej = unit_vector(n, j)
            coords = []
            for k in range(m):
                s1 = -_sign(lpar[k] * (apar[i] + apar[j]))
                s2 = -_sign(apar[j] * lpar[k])
                val = (s1 * base.form.value(ext.xi[k].rows[i], ej)
                       + s2 * base.form.value(ei, ext.xi[k].rows[j]))
                coords.append(val)
            row.append(tuple(coords))
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=None)
def derive_alpha(ext: ExtensionData) -> tuple[tuple[Vector, ...], ...]:
    """alpha[i][j] in base coordinates, solved from gamma through the form.

    For each pair (L_i, L_j) the linear system w(e_k, alpha) = rhs(e_k) has
    a unique solution by non-degeneracy, which is checked first; an
    inconsistency after that would be an internal error, not bad data.
    """
    base = ext.base
    if not base.form.is_nondegenerate():
        raise DegenerateBaseError(
            "the base form is degenerate; extension data needs a quasi-Frobenius base")
    apar = base.space.parities
    lpar = ext.ell.parities
    n, m = base.space.dim, ext.ell.dim
    gram = base.form.gram
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            rhs = []
            for k in range(n):
                s1 = _sign(lpar[j] * (lpar[i] + apar[k]))
                s2 = _sign(apar[k] * lpar[i])
                rhs.append(s1 * ext.gamma[j][k][i] - s2 * ext.gamma[i][k][j])
            sol = solve_linear([list(r) for r in gram], rhs)
            if not sol.unique:
                raise InconsistentSystemError(0, (), ZERO)
            row.append(sol.particular)
        out.append(tuple(row))
    return tuple(out)


def _bilinear(table: Sequence[Sequence[Vector]], x: Sequence[Fraction],
              y: Sequence[Fraction], dim: int) -> Vector:
    out = zero_vector(dim)
    for i, a in enumerate(x):
        if a == 0:
            continue
        for j, b in enumerate(y):
            if b == 0:
                continue
            cell = table[i][j]
            if not vec_is_zero(cell):
                out = vec_add(out, vec_scale(a * b, cell))
    return out


def _lstar_space(ell: SuperSpace) -> SuperSpace:
    space, _, _ = SuperSpace.sorted_from(
        tuple(f"{l}*" for l in ell.labels), ell.parities)
    return space


def _gamma_hom_cochain(ext: ExtensionData, ell_alg: LieSuperAlgebra,
                       hom: HomSpace) -> Cochain:
    vals = {}
    for i in range(ext.ell.dim):
        rows = tuple(_to_sorted_lstar(ext, ext.gamma[i][j]) for j in range(ext.base.space.dim))
        vals[(i,)] = hom.flatten(GradedLinearMap(ext.base.space, hom.tgt, rows))
    return Cochain(1, ell_alg, hom.space, vals, 0)


def _to_sorted_lstar(ext: ExtensionData, coords: Vector) -> Vector:
    """Reorder natural L_k*-coordinates into the canonical l*-space order."""
    lstar = _lstar_space(ext.ell)
    out = [ZERO] * lstar.dim
    for k, c in enumerate(coords):
        out[lstar.index(f"{ext.ell.labels[k]}*")] = c
    return tuple(out)


def _from_sorted_lstar(ext: ExtensionData, coords: Sequence[Fraction]) -> Vector:
    lstar = _lstar_space(ext.ell)
    return tuple(coords[lstar.index(f"{l}*")] for l in ext.ell.labels)


def check_conditions(ext: ExtensionData) -> Report:
    """Evaluate the seven extension conditions, with witnesses per failure.

    The cochain-valued conditions are computed through the cohomology
    module's d_ce, d_xi and wedge operators, not hand-expanded formulas.
    """
    report = Report("double extension conditions")
    base, ell = ext.base, ext.ell
    n, m = base.space.dim, ell.dim
    apar, lpar = base.space.parities, ell.parities
    alab, llab = base.space.labels, ell.labels
    beta = derive_beta(ext)
    alpha = derive_alpha(ext)
    ell_alg = abelian_algebra(ell)

    # qzz0: each xi(L) is a derivation of the base
    wit = []
    for i in range(m):
        ok, inner = base.algebra.is_derivation(ext.xi[i], parity=lpar[i])
        if not ok:
            wit.extend(f"xi({llab[i]}): {w}" for w in inner)
    report.add(f"qzz0: {_CONDITION_TEXT['qzz0']}", not wit, wit)

    # qzz1: ad . alpha = d_ce(xi) + 1/2 [xi ^ xi]   (End(a)-valued 2-cochains)
    end = HomSpace.build(base.space, base.space)
    xi_co = Cochain(1, ell_alg, end.space,
                    {(i,): end.flatten(ext.xi[i]) for i in range(m)}, 0)
    rhs = d_ce(xi_co, "trivial").add(
        wedge(commutator_pairing(end), xi_co, xi_co).scale(Fraction(1, 2)))
    wit = []
    for i in range(m):
        for j in range(m):
            lhs = end.flatten(base.algebra.ad(alpha[i][j]))
            if lhs != rhs.values[(i, j)]:
                wit.append(f"({llab[i]},{llab[j]})")
    report.add(f"qzz1: {_CONDITION_TEXT['qzz1']}", not wit, wit)

    # qzz3: d_xi(alpha) = 0   (a-valued 3-cochain)
    alpha_co = Cochain(2, ell_alg, base.space,
                       {(i, j): alpha[i][j] for i in range(m) for j in range(m)}, 0)
    d_alpha = d_xi(alpha_co, ext.xi)
    wit = [f"({llab[t[0]]},{llab[t[1]]},{llab[t[2]]})"
           for t, v in sorted(d_alpha.values.items()) if not vec_is_zero(v)]
    report.add(f"qzz3: {_CONDITION_TEXT['qzz3']}", not wit, wit)

    # gamma-compat: gamma(L)([a,b]) = beta(xi(L)a, b) + (-1)^{|a||L|} beta(a, xi(L)b)
    wit = []
    for k in range(m):
        for i in range(n):
            for j in range(n):
                br = base.algebra.c[i][j]
                lhs = zero_vector(m)
                for t, c in enumerate(br):
                    if c != 0:
                        lhs = vec_add(lhs, vec_scale(c, ext.gamma[k][t]))
                rhs_v = vec_add(
                    _bilinear(beta, ext.xi[k].rows[i], unit_vector(n, j), m),
                    vec_scale(Fraction(_sign(apar[i] * lpar[k])),
                              _bilinear(beta, unit_vector(n, i), ext.xi[k].rows[j], m)))
                if lhs != rhs_v:
                    wit.append(f"({llab[k]};{alab[i]},{alab[j]})")
    report.add(f"gamma-compat: {_CONDITION_TEXT['gamma-compat']}", not wit, wit)

    # qzz5: Ev(gamma ^ alpha) = 0   (l*-valued 3-cochain)
    lstar = _lstar_space(ell)
    hom = HomSpace.build(base.space, lstar)
    gamma_co = _gamma_hom_cochain(ext, ell_alg, hom)
    alpha_co_l = Cochain(2, ell_alg, base.space,
                         {(i, j): alpha[i][j] for i in range(m) for j in range(m)}, 0)
    ev = wedge(ev_pairing(hom), gamma_co, alpha_co_l)
    wit = [f"({llab[t[0]]},{llab[t[1]]},{llab[t[2]]})"
           for t, v in sorted(ev.values.items()) if not vec_is_zero(v)]
    report.add(f"qzz5: {_CONDITION_TEXT['qzz5']}", not wit, wit)

    # qzz2: d_xihat(gamma) = beta-tilde . alpha   (Hom(a,l*)-valued 2-cochains)
    xihat = []
    for i in range(m):
        rows = []
        for flat in range(hom.space.dim):
            f = hom.unflatten(unit_vector(hom.space.dim, flat))
            composed = ext.xi[i].then(f).scale(
                Fraction(_sign(hom.space.parities[flat] * lpar[i])))
            rows.append(hom.flatten(composed))
        xihat.append(GradedLinearMap(hom.space, hom.space, tuple(rows)))
    lhs_co = d_xi(gamma_co, xihat)
    wit = []
    for i in range(m):
        for j in range(m):
            rows = tuple(
                _to_sorted_lstar(ext, _bilinear(beta, alpha[i][j], unit_vector(n, t), m))
                for t in range(n))
            rhs_flat = hom.flatten(GradedLinearMap(base.space, lstar, rows))
            if lhs_co.values[(i, j)] != rhs_flat:
                wit.append(f"({llab[i]},{llab[j]})")
    report.add(f"qzz2: {_CONDITION_TEXT['qzz2']}", not wit, wit)

    # qzz4: cyclic epsilon condition on all l-triples
    wit = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                s = (_sign(lpar[i] * lpar[k]) * ext.eps[i][j][k]
                     + _sign(lpar[j] * lpar[k]) * ext.eps[k][i][j]
                     + _sign(lpar[i] * lpar[j]) * ext.eps[j][k][i])
                if s != 0:
                    wit.append(f"({llab[i]},{llab[j]},{llab[k]}): residual {s}")
    report.add(f"qzz4: {_CONDITION_TEXT['qzz4']}", not wit, wit)
    return report


# ---------------------------------------------------------------------------
# the standard models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StandardModel:
    """A built double extension with its three block subspaces marked.

    ``conditions`` is the condition report the build checked, None for a
    forced build.
    """

    qf: QuasiFrobenius
    z_labels: tuple[str, ...]
    a_labels: tuple[str, ...]
    l_labels: tuple[str, ...]
    ext: ExtensionData
    conditions: Report | None = field(default=None, compare=False, repr=False)

    @property
    def space(self) -> SuperSpace:
        return self.qf.space

    def z_subspace(self) -> Subspace:
        return Subspace.from_labels(self.space, self.z_labels)

    def block_of(self, label: str) -> str:
        if label in self.z_labels:
            return "dual"
        if label in self.a_labels:
            return "base"
        return "ext"

    def bracket_table(self) -> list[tuple[str, str, Vector]]:
        """Nonzero brackets [x,y], one representative per unordered pair,
        grouped base-base, base-ext, ext-ext (dual rows are all zero)."""
        order = list(self.a_labels) + list(self.l_labels)
        idx = {lab: self.space.index(lab) for lab in order}
        rows = []
        for pos, left in enumerate(order):
            for right in order[pos:]:
                v = self.qf.algebra.bracket_basis(idx[left], idx[right])
                if not vec_is_zero(v):
                    rows.append((left, right, v))

        def sort_key(row):
            left, right, _ = row
            group = (left in self.l_labels) + (right in self.l_labels)
            return (group, order.index(left), order.index(right))

        return sorted(rows, key=sort_key)


def _assemble(ext: ExtensionData, z_labels: Sequence[str],
              z_parities: Sequence[int], zl_sign: Callable[[int], int],
              conditions: Report | None) -> StandardModel:
    base, ell = ext.base, ext.ell
    n, m = base.space.dim, ell.dim
    beta = derive_beta(ext)
    alpha = derive_alpha(ext)

    labels = list(z_labels) + list(base.space.labels) + list(ell.labels)
    parities = list(z_parities) + list(base.space.parities) + list(ell.parities)
    space, perm, _ = SuperSpace.sorted_from(labels, parities)
    total = len(labels)

    def blockvec(z: Sequence[Fraction] | None, a: Sequence[Fraction] | None,
                 l: Sequence[Fraction] | None) -> Vector:
        out = [ZERO] * total
        if z is not None:
            for k, c in enumerate(z):
                out[perm[k]] = c
        if a is not None:
            for k, c in enumerate(a):
                out[perm[m + k]] = c
        if l is not None:
            for k, c in enumerate(l):
                out[perm[m + n + k]] = c
        return tuple(out)

    c = [[zero_vector(total) for _ in range(total)] for _ in range(total)]
    apar, lpar = base.space.parities, ell.parities
    for i in range(n):
        for j in range(n):
            c[perm[m + i]][perm[m + j]] = blockvec(beta[i][j], base.algebra.c[i][j], None)
    for i in range(m):
        for j in range(n):
            v = blockvec(ext.gamma[i][j], ext.xi[i].rows[j], None)
            c[perm[m + n + i]][perm[m + j]] = v
            c[perm[m + j]][perm[m + n + i]] = vec_scale(
                Fraction(-_sign(apar[j] * lpar[i])), v)
    for i in range(m):
        for j in range(m):
            c[perm[m + n + i]][perm[m + n + j]] = blockvec(ext.eps[i][j], alpha[i][j], None)

    gram = [[ZERO] * total for _ in range(total)]
    for i in range(n):
        for j in range(n):
            gram[perm[m + i]][perm[m + j]] = base.form.gram[i][j]
    for i in range(m):
        gram[perm[i]][perm[m + n + i]] = ONE
        gram[perm[m + n + i]][perm[i]] = Fraction(zl_sign(i))

    model_form = SuperForm(space, tuple(tuple(r) for r in gram), base.form.parity)
    algebra = LieSuperAlgebra(space, tuple(tuple(row) for row in c))
    return StandardModel(QuasiFrobenius(algebra, model_form),
                         tuple(z_labels), base.space.labels, ell.labels, ext,
                         conditions)


def build_orthosymplectic(ext: ExtensionData, force: bool = False) -> StandardModel:
    """Assemble l* + a + l with the even block form.

    Unless forced, the seven conditions must pass, their report is kept on
    the model, and the result is fully validated (the force path exists so
    tests can exhibit the converse direction of the characterization).
    """
    if ext.base.form.parity != EVEN:
        raise ValueError("orthosymplectic model needs an even base form")
    return _finish_build(
        ext,
        z_labels=[f"{l}*" for l in ext.ell.labels],
        z_parities=list(ext.ell.parities),
        zl_sign=lambda i: -_sign(ext.ell.parities[i]),
        force=force,
    )


def build_periplectic(ext: ExtensionData, force: bool = False) -> StandardModel:
    """Assemble Pi(l*) + a + l with the odd block form."""
    if ext.base.form.parity != ODD:
        raise ValueError("periplectic model needs an odd base form")
    return _finish_build(
        ext,
        z_labels=[pi_label(f"{l}*") for l in ext.ell.labels],
        z_parities=[1 - p for p in ext.ell.parities],
        zl_sign=lambda i: -1,
        force=force,
    )


def build_model(ext: ExtensionData, force: bool = False) -> StandardModel:
    if ext.base.form.parity == EVEN:
        return build_orthosymplectic(ext, force)
    return build_periplectic(ext, force)


def _finish_build(ext, z_labels, z_parities, zl_sign, force):
    shapes = ext.validate_shapes()
    if not shapes.ok and not force:
        raise ConditionFailure(shapes)
    report = None
    if not force:
        report = check_conditions(ext)
        if not report.ok:
            raise ConditionFailure(report)
    model = _assemble(ext, z_labels, z_parities, zl_sign, report)
    if not force:
        validation = model.qf.validate()
        if not validation.ok:
            raise AssertionError(
                "built model failed validation despite passing conditions:\n"
                + validation.render())
    return model


# ---------------------------------------------------------------------------
# extraction to standard form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionQuadruple:
    """A double extension presented abstractly: (g, j, i, p).

    ``reduction`` realizes j-perp/j concretely; ``i_map`` sends the base
    into it; ``p_tilde`` is the composite g -> g/j -> l with kernel j-perp.
    """

    g: QuasiFrobenius
    j: Subspace
    base: QuasiFrobenius
    ell: SuperSpace
    i_map: GradedLinearMap
    p_tilde: GradedLinearMap
    reduction: ReduceResult

    def validate(self) -> Report:
        report = Report("extension quadruple")
        g, j = self.g, self.j
        report.add("ideal is homogeneous", j.is_homogeneous())
        report.add("ideal is an ideal", g.algebra.is_homogeneous_ideal(j)
                   if j.is_homogeneous() else False)
        central = all(vec_is_zero(g.algebra.bracket(r, unit_vector(g.space.dim, t)))
                      for r in j.rows for t in range(g.space.dim))
        report.add("ideal is central", central)
        report.add("ideal is isotropic", g.orthogonal(j).contains(j))

        red = self.reduction.reduced
        wit = []
        for x in range(self.base.space.dim):
            for y in range(self.base.space.dim):
                ix = self.i_map.rows[x]
                iy = self.i_map.rows[y]
                lhs = self.i_map.apply(self.base.algebra.c[x][y])
                if lhs != red.algebra.bracket(ix, iy):
                    wit.append(f"bracket at ({x},{y})")
                if self.base.form.gram[x][y] != red.form.value(ix, iy):
                    wit.append(f"form at ({x},{y})")
        report.add("i is a quasi-Frobenius morphism", not wit, wit)
        report.add("i is bijective", self.i_map.is_invertible())

        # exactness: ker(p_tilde) = j-perp and p_tilde surjective
        nullrows = [[self.p_tilde.rows[i][t] for i in range(g.space.dim)]
                    for t in range(self.ell.dim)]
        kernel = Subspace.from_vectors(g.space, nullspace(nullrows, g.space.dim))
        perp = g.orthogonal(j)
        report.add("sequence exact at l (p surjective)",
                   matrix_rank(self.p_tilde.rows) == self.ell.dim)
        report.add("sequence exact in the middle (ker p = image of the reduction)",
                   kernel == perp)
        return report


def canonical_quadruple(model: StandardModel) -> ExtensionQuadruple:
    """The quadruple a built model tautologically carries: j = dual block."""
    g = model.qf
    j = model.z_subspace()
    reduction = g.reduce(j)
    base = model.ext.base
    i_rows = []
    for lab in base.space.labels:
        i_rows.append(unit_vector(reduction.reduced.space.dim,
                                  reduction.reduced.space.index(lab)))
    i_map = GradedLinearMap(base.space, reduction.reduced.space, tuple(i_rows))
    ell = model.ext.ell
    p_rows = []
    for lab in g.space.labels:
        if lab in model.l_labels:
            p_rows.append(unit_vector(ell.dim, ell.index(lab)))
        else:
            p_rows.append(zero_vector(ell.dim))
    p_tilde = GradedLinearMap(g.space, ell, tuple(p_rows))
    return ExtensionQuadruple(g, j, base, ell, i_map, p_tilde, reduction)


def quadruple_from_ideal(g: QuasiFrobenius, j: Subspace) -> ExtensionQuadruple:
    """Canonical quadruple over an arbitrary central isotropic ideal.

    The base is the symplectic reduction itself (i = identity) and l is the
    canonical quotient of g by j-perp, which is abelian whenever j is
    central and the form is closed.
    """
    reduction = g.reduce(j)
    base = reduction.reduced
    i_map = GradedLinearMap.identity(base.space)
    perp = g.orthogonal(j)
    quot = g.algebra.quotient(perp)
    ell = quot.algebra.space
    if any(not vec_is_zero(v) for row in quot.algebra.c for v in row):
        raise ValueError("quotient by the orthogonal is not abelian; "
                         "the ideal is not central or the form is not closed")
    return ExtensionQuadruple(g, j, base, ell, i_map, quot.projection, reduction)


@dataclass(frozen=True)
class ExtractResult:
    data: ExtensionData
    phi: GradedLinearMap          # standard model space -> g space
    model: StandardModel          # rebuilt from the extracted data
    report: Report


def extract_standard(quad: ExtensionQuadruple) -> ExtractResult:
    """Recover (xi, gamma, eps) and an equivalence onto the standard model.

    Follows the constructive proof: choose an isotropic complement V_l of
    j-perp (canonical seed, one-shot symplectic correction), set
    V_a = (j + V_l)-perp, build the sections s, t and the dual embedding
    p*, read the maps off the brackets, rebuild, and verify everything.
    """
    pre = quad.validate()
    if not pre.ok:
        raise ValueError("invalid quadruple:\n" + pre.render())
    g, j, ell = quad.g, quad.j, quad.ell
    ng, m = g.space.dim, ell.dim
    perp = g.orthogonal(j)

    # isotropic homogeneous complement of j-perp
    seeds = [unit_vector(ng, t) for t in range(ng) if t not in perp.pivots]
    if len(seeds) != m:
        raise AssertionError("complement seed count mismatch; internal bug")
    duals = _omega_dual_basis(g, j, seeds)
    w = []
    for l, seed in enumerate(seeds):
        corr = seed
        for k in range(m):
            coeff = g.form.value(seed, seeds[k]) / 2
            if coeff != 0:
                corr = vec_sub(corr, vec_scale(coeff, duals[k]))
        w.append(corr)
    for x in w:
        for y in w:
            if g.form.value(x, y) != 0:
                raise AssertionError("complement failed to become isotropic")
    v_l = Subspace.from_vectors(g.space, w)
    v_a = g.orthogonal(j.sum(v_l))

    # section s : l -> V_l with p_tilde . s = id
    p_of_w = [quad.p_tilde.apply(x) for x in w]
    s_rows = []
    for t in range(m):
        sol = solve_linear([[p_of_w[c][r] for c in range(m)] for r in range(m)],
                           unit_vector(m, t))
        vec = zero_vector(ng)
        for c, coeff in enumerate(sol.particular):
            vec = vec_add(vec, vec_scale(coeff, w[c]))
        s_rows.append(vec)
    s = GradedLinearMap(ell, g.space, tuple(s_rows))

    # lift t : a -> V_a through the reduction classes
    base = quad.base
    na = base.space.dim
    va_rows = list(v_a.rows)
    class_of = [quad.reduction.project(r) for r in va_rows]
    t_rows = []
    for k in range(na):
        target = quad.i_map.rows[k]
        sol = solve_linear([[class_of[c][r] for c in range(len(va_rows))]
                            for r in range(len(target))], target)
        vec = zero_vector(ng)
        for c, coeff in enumerate(sol.particular):
            vec = vec_add(vec, vec_scale(coeff, va_rows[c]))
        t_rows.append(vec)
    t_map = GradedLinearMap(base.space, g.space, tuple(t_rows))

    # p* : l* -> j dual to s
    pstar = _omega_dual_basis(g, j, s_rows)

    # coordinates in the decomposition V_a + j + V_l
    basis_rows = list(va_rows) + list(j.rows) + list(s_rows)
    basis_cols = [[basis_rows[c][r] for c in range(ng)] for r in range(ng)]

    def decompose(vec: Vector) -> tuple[Vector, Vector, Vector]:
        sol = solve_linear(basis_cols, vec)
        x = sol.particular
        return (x[:len(va_rows)], x[len(va_rows):len(va_rows) + j.dim],
                x[len(va_rows) + j.dim:])

    def in_base_coords(va_coeffs: Sequence[Fraction]) -> Vector:
        target = zero_vector(ng)
        for c, coeff in enumerate(va_coeffs):
            target = vec_add(target, vec_scale(coeff, va_rows[c]))
        sol = solve_linear([[t_rows[c][r] for c in range(na)] for r in range(ng)],
                           target)
        return sol.particular

    def in_dual_coords(j_coeffs: Sequence[Fraction]) -> Vector:
        target = zero_vector(ng)
        for c, coeff in enumerate(j_coeffs):
            target = vec_add(target, vec_scale(coeff, j.rows[c]))
        sol = solve_linear([[pstar[c][r] for c in range(m)] for r in range(ng)],
                           target)
        return sol.particular

    xi_rows = [[None] * na for _ in range(m)]
    gamma = [[None] * na for _ in range(m)]
    for i in range(m):
        for k in range(na):
            br = g.algebra.bracket(s_rows[i], t_rows[k])
            va_part, j_part, vl_part = decompose(br)
            if not vec_is_zero(vl_part):
                raise AssertionError("[s(L), t(a)] escaped j-perp; internal bug")
            xi_rows[i][k] = in_base_coords(va_part)
            gamma[i][k] = in_dual_coords(j_part)
    xi = tuple(GradedLinearMap(base.space, base.space,
                               tuple(xi_rows[i][k] for k in range(na)))
               for i in range(m))

    eps = []
    for i in range(m):
        row = []
        for jdx in range(m):
            br = g.algebra.bracket(s_rows[i], s_rows[jdx])
            row.append(tuple(g.form.value(br, s_rows[t]) for t in range(m)))
        eps.append(tuple(row))

    data = ExtensionData(base, ell, xi,
                         tuple(tuple(r) for r in gamma),
                         tuple(tuple(r) for r in eps))

    # cross-check: the derived alpha must match the bracket decomposition
    alpha = derive_alpha(data)
    report = Report("extraction verification")
    wit = []
    for i in range(m):
        for jdx in range(m):
            br = g.algebra.bracket(s_rows[i], s_rows[jdx])
            va_part, j_part, vl_part = decompose(br)
            if not vec_is_zero(vl_part):
                wit.append(f"[s({ell.labels[i]}),s({ell.labels[jdx]})] has a V_l part")
                continue
            if in_base_coords(va_part) != alpha[i][jdx]:
                wit.append(f"alpha mismatch at ({ell.labels[i]},{ell.labels[jdx]})")
            if in_dual_coords(j_part) != eps[i][jdx]:
                wit.append(f"eps mismatch at ({ell.labels[i]},{ell.labels[jdx]})")
    report.add("bracket decomposition matches the derived maps", not wit, wit)

    model = build_model(data)

    phi_rows = [None] * model.space.dim
    for k, lab in enumerate(model.z_labels):
        phi_rows[model.space.index(lab)] = pstar[k]
    for k, lab in enumerate(model.a_labels):
        phi_rows[model.space.index(lab)] = t_rows[k]
    for k, lab in enumerate(model.l_labels):
        phi_rows[model.space.index(lab)] = s_rows[k]
    phi = GradedLinearMap(model.space, g.space, tuple(phi_rows))

    _verify_iso(report, model.qf, g, phi)

    wit = []
    j_image = Subspace.from_vectors(g.space, [phi.apply(r) for r in model.z_subspace().rows])
    if j_image != j:
        wit.append("phi does not carry the dual block onto the ideal")
    for k, lab in enumerate(model.a_labels):
        cls = quad.reduction.project(phi.rows[model.space.index(lab)])
        if cls != quad.i_map.rows[k]:
            wit.append(f"diagram fails at base vector {lab}")
    for k, lab in enumerate(model.l_labels):
        if quad.p_tilde.apply(phi.rows[model.space.index(lab)]) != unit_vector(m, k):
            wit.append(f"diagram fails at {lab}")
    report.add("phi matches the ideal and the commuting diagram", not wit, wit)

    if not report.ok:
        raise AssertionError("extraction verification failed:\n" + report.render())
    return ExtractResult(data, phi, model, report)


def _omega_dual_basis(g: QuasiFrobenius, j: Subspace,
                      against: Sequence[Vector]) -> list[Vector]:
    """Vectors f_k in j with w(f_k, against_l) = delta_kl, parity-projected."""
    m = len(against)
    if j.dim != m:
        raise ValueError("dual basis needs dim j = number of pairing partners")
    rows = [[g.form.value(j.rows[c], against[l]) for c in range(m)]
            for l in range(m)]
    out = []
    for k in range(m):
        sol = solve_linear(rows, unit_vector(m, k))
        vec = zero_vector(g.space.dim)
        for c, coeff in enumerate(sol.particular):
            vec = vec_add(vec, vec_scale(coeff, j.rows[c]))
        want = g.space.vector_parity(against[k])
        if want is not None:
            proj = g.space.parity_projection(vec, (want + g.form.parity) % 2)
            if all(g.form.value(proj, against[l]) == (ONE if l == k else ZERO)
                   for l in range(m)):
                vec = proj
        out.append(vec)
    return out


def _verify_iso(report: Report, src: QuasiFrobenius, dst: QuasiFrobenius,
                phi: GradedLinearMap) -> None:
    wit = []
    if phi.homogeneous_parity() != EVEN:
        wit.append("phi is not even")
    if not phi.is_invertible():
        wit.append("phi is not invertible")
    report.add("phi is an even linear isomorphism", not wit, wit)

    n = src.space.dim
    wit = []
    for x in range(n):
        for y in range(n):
            lhs = phi.apply(src.algebra.c[x][y])
            rhs = dst.algebra.bracket(phi.rows[x], phi.rows[y])
            if lhs != rhs:
                wit.append(f"({src.space.labels[x]},{src.space.labels[y]})")
    report.add("phi intertwines the brackets", not wit, wit)

    wit = []
    for x in range(n):
        for y in range(n):
            if dst.form.value(phi.rows[x], phi.rows[y]) != src.form.gram[x][y]:
                wit.append(f"({src.space.labels[x]},{src.space.labels[y]})")
    report.add("phi pulls the form back", not wit, wit)


# ---------------------------------------------------------------------------
# tau-equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauMap:
    """An even linear map tau : l -> a with its derived tau* : a -> l*."""

    ell: SuperSpace
    base: QuasiFrobenius
    map: GradedLinearMap   # rows per l basis vector, values in base coords

    def __post_init__(self):
        if self.map.source != self.ell or self.map.target != self.base.space:
            raise ValueError("tau must map l into the base space")
        if self.map.homogeneous_parity() not in (EVEN,):
            if any(not vec_is_zero(r) for r in self.map.rows):
                raise ValueError("tau must be an even map")

    def star(self, a_vec: Sequence[Fraction]) -> Vector:
        """tau*(a) = -w(a, tau(.)) in L_k*-coordinates."""
        return tuple(-self.base.form.value(a_vec, self.map.rows[k])
                     for k in range(self.ell.dim))


def tau_transform(ext: ExtensionData, tau: TauMap) -> ExtensionData:
    """Prop.-style change of extension data induced by tau.

    The quadratic correction is carried by the transformed beta, i.e. the
    epsilon shift uses beta_2(tau, tau); the transformed data always passes
    the condition checks when the input does, and the block matrix from
    :func:`tau_equivalence_map` exhibits the equivalence of the two builds.
    """
    base, ell = ext.base, ext.ell
    if tau.ell != ell or tau.base != base:
        raise ValueError("tau shapes do not match the extension data")
    m, n = ell.dim, base.space.dim
    beta1 = derive_beta(ext)
    alpha1 = derive_alpha(ext)

    xi2 = tuple(ext.xi[i].sub(base.algebra.ad(tau.map.rows[i])) for i in range(m))

    gamma2 = []
    for i in range(m):
        row = []
        for jdx in range(n):
            ej = unit_vector(n, jdx)
            val = vec_add(ext.gamma[i][jdx], tau.star(ext.xi[i].rows[jdx]))
            val = vec_sub(val, _bilinear(beta1, tau.map.rows[i], ej, m))
            val = vec_sub(val, tau.star(base.algebra.bracket(tau.map.rows[i], ej)))
            row.append(val)
        gamma2.append(tuple(row))

    interim = ExtensionData(base, ell, xi2, tuple(gamma2), ext.eps)
    beta2 = derive_beta(interim)

    ell_alg = abelian_algebra(ell)
    lstar = _lstar_space(ell)
    hom = HomSpace.build(base.space, lstar)
    gamma1_co = _gamma_hom_cochain(ext, ell_alg, hom)
    tau_co = Cochain(1, ell_alg, base.space,
                     {(i,): tau.map.rows[i] for i in range(m)}, 0)
    ev_gamma_tau = wedge(ev_pairing(hom), gamma1_co, tau_co)
    dxi_tau = d_xi(tau_co, ext.xi)

    eps2 = []
    for i in range(m):
        row = []
        for jdx in range(m):
            val = vec_add(ext.eps[i][jdx], tau.star(alpha1[i][jdx]))
            val = vec_sub(val, _from_sorted_lstar(ext, ev_gamma_tau.values[(i, jdx)]))
            val = vec_add(val, _bilinear(beta2, tau.map.rows[i], tau.map.rows[jdx], m))
            val = vec_add(val, tau.star(dxi_tau.values[(i, jdx)]))
            row.append(val)
        eps2.append(tuple(row))

    return ExtensionData(base, ell, xi2, tuple(gamma2), tuple(eps2))


def tau_equivalence_map(m1: StandardModel, m2: StandardModel,
                        tau: TauMap) -> GradedLinearMap:
    """The block matrix [[id, tau*, b], [0, id, tau], [0, 0, id]].

    b(L)(L') = -1/2 w(tau L, tau L') fixes the isometry constraint; only
    the super-antisymmetrization of b is determined, this choice is the
    canonical one in characteristic zero.
    """
    space1, space2 = m1.space, m2.space
    if space1 != space2:
        raise ValueError("tau equivalence needs models on one space")
    ext = m1.ext
    m = ext.ell.dim
    rows = [None] * space1.dim
    for k, lab in enumerate(m1.z_labels):
        rows[space1.index(lab)] = unit_vector(space1.dim, space2.index(lab))
    for k, lab in enumerate(m1.a_labels):
        out = [ZERO] * space1.dim
        out[space2.index(lab)] = ONE
        star = tau.star(unit_vector(ext.base.space.dim, k))
        for t in range(m):
            out[space2.index(m2.z_labels[t])] += star[t]
        rows[space1.index(lab)] = tuple(out)
    for k, lab in enumerate(m1.l_labels):
        out = [ZERO] * space1.dim
        out[space2.index(lab)] = ONE
        tl = tau.map.rows[k]
        for t, c in enumerate(tl):
            out[space2.index(m1.a_labels[t])] += c
        for t in range(m):
            b = -ext.base.form.value(tl, tau.map.rows[t]) / 2
            out[space2.index(m2.z_labels[t])] += b
        rows[space1.index(lab)] = tuple(out)
    return GradedLinearMap(space1, space2, tuple(rows))


def verify_equivalence(m1: StandardModel, m2: StandardModel,
                       phi: GradedLinearMap) -> Report:
    """Is phi an equivalence of double extensions m1 -> m2?

    Checks: even symplectic isomorphism, bracket intertwining, the dual
    blocks correspond, and the induced maps fix the base and the quotient
    (phi(a) - a lies in the dual block; the l components pass through).
    """
    report = Report("equivalence of double extensions")
    if phi.source != m1.space or phi.target != m2.space:
        raise ValueError("phi must map the first model to the second")
    _verify_iso(report, m1.qf, m2.qf, phi)

    j2 = m2.z_subspace()
    image = Subspace.from_vectors(
        m2.space, [phi.apply(r) for r in m1.z_subspace().rows])
    report.add("phi carries the dual block onto the dual block", image == j2,
               [] if image == j2 else
               [f"image: {image.describe()}"])

    wit = []
    for lab in m1.a_labels:
        diff = vec_sub(phi.rows[m1.space.index(lab)],
                       unit_vector(m2.space.dim, m2.space.index(lab)))
        if not j2.contains_vector(diff):
            wit.append(f"phi({lab}) - {lab} escapes the dual block")
    report.add("phi fixes the base modulo the dual block", not wit, wit)

    wit = []
    for lab in m1.space.labels:
        img = phi.rows[m1.space.index(lab)]
        for t, l_lab in enumerate(m2.l_labels):
            src_coord = ONE if lab == m1.l_labels[t] else ZERO
            if img[m2.space.index(l_lab)] != src_coord:
                wit.append(f"quotient map moves {lab}")
                break
    report.add("phi induces the identity on the quotient", not wit, wit)
    return report
