"""Presentations of filtered algebras by generators and normal-form data.

Covers the catalog of algebra kinds (commutative polynomial, quantum affine
space, Weyl algebras with the degree filtration, weighted PBW algebras with
semicommutative leading terms), graded module presentations by shifted
monomial quotients, normal-ordering rewriters, admissible orders on N^m, and
re-filtering along a positive weight vector.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from operator import le
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

#: Exponent vector of a normal monomial, one entry per generator.
Monomial = tuple  # tuple[int, ...]

#: Finite linear combination of normal monomials with nonzero coefficients.
LinearCombo = dict  # dict[Monomial, Fraction]

KINDS = ("polynomial", "quantum_affine", "weyl", "pbw_weighted")

ORDER_KINDS = ("lex", "deglex", "weightlex")


class SpecError(ValueError):
    """Semantic validation failure, carrying the path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class RefilterError(ValueError):
    """Raised when a weight collapse breaks the leading-term condition."""


# ---------------------------------------------------------------------------
# monomial helpers


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b, i.e. every exponent of a is <= that of b."""
    return all(map(le, a, b))


# ---------------------------------------------------------------------------
# relations and algebra presentations


class Relation(NamedTuple):
    """Rewrite rule x_greater * x_lesser -> scalar * x_lesser * x_greater + lower.

    `lower` lists the non-leading terms as (monomial, coefficient) pairs; for
    a plain q-commutation rule it is empty.
    """

    greater: int
    lesser: int
    scalar: Fraction
    lower: tuple = ()  # tuple[tuple[Monomial, Fraction], ...]


class AlgebraSpec(NamedTuple):
    """A filtered algebra presented by generators with multi-degrees.

    kind: one of "polynomial", "quantum_affine", "weyl", "pbw_weighted".
    names: generator names (used for monomial parsing and rendering).
    degrees: one multi-degree in N^m per generator, all of the same length m,
        none of them the zero vector.
    lam: for quantum_affine, the full matrix of commutation scalars, with
        lam[i][j] * lam[j][i] = 1 off the diagonal and 1 on it.
    weyl_rank: for weyl, the number n of coordinate generators; there are 2n
        generators x_1..x_n, y_1..y_n, all of degree 1.
    relations: for pbw_weighted, explicit rewrite rules; unlisted generator
        pairs commute.
    """

    kind: str
    names: tuple
    degrees: tuple
    lam: Optional[tuple] = None
    weyl_rank: Optional[int] = None
    relations: tuple = ()

    # -- factories --------------------------------------------------------

    @staticmethod
    def polynomial(num_generators: int, degrees=None, names=None) -> "AlgebraSpec":
        """Commutative polynomial algebra on the given generators."""
        names = _default_names(num_generators) if names is None else tuple(names)
        degrees = _default_degrees(num_generators) if degrees is None else _as_degrees(degrees)
        spec = AlgebraSpec("polynomial", names, degrees)
        validate_algebra(spec)
        return spec

    @staticmethod
    def quantum_affine(lam, degrees=None, names=None) -> "AlgebraSpec":
        """Quantum affine space: x_j x_i = lam[i][j] x_i x_j for i < j."""
        lam = tuple(tuple(Fraction(v) for v in row) for row in lam)
        n = len(lam)
        names = _default_names(n) if names is None else tuple(names)
        degrees = _default_degrees(n) if degrees is None else _as_degrees(degrees)
        spec = AlgebraSpec("quantum_affine", names, degrees, lam=lam)
        validate_algebra(spec)
        return spec

    @staticmethod
    def weyl(rank: int) -> "AlgebraSpec":
        """Weyl algebra of the given rank with the total-degree filtration."""
        if rank < 1:
            raise SpecError("weyl_rank", "rank must be a positive integer")
        names = tuple(f"x{i+1}" for i in range(rank)) + tuple(f"y{i+1}" for i in range(rank))
        degrees = _default_degrees(2 * rank)
        spec = AlgebraSpec("weyl", names, degrees, weyl_rank=rank)
        validate_algebra(spec)
        return spec

    @staticmethod
    def pbw_weighted(degrees, relations, names=None) -> "AlgebraSpec":
        """PBW algebra with explicit leading-term rewrite rules."""
        degrees = _as_degrees(degrees)
        names = _default_names(len(degrees)) if names is None else tuple(names)
        spec = AlgebraSpec("pbw_weighted", names, degrees, relations=tuple(relations))
        validate_algebra(spec)
        return spec

    # -- structure --------------------------------------------------------

    @property
    def num_generators(self) -> int:
        return len(self.degrees)

    @property
    def multidegree_length(self) -> int:
        return len(self.degrees[0]) if self.degrees else 1

    def scalar_weights(self) -> tuple:
        """Scalar filtration weight of each generator: the sum of its multi-degree."""
        return tuple(sum(d) for d in self.degrees)


def _default_names(n: int) -> tuple:
    return tuple(f"x{i+1}" for i in range(n))

def _default_degrees(n: int) -> tuple:
    return tuple(((1,)) for _ in range(n))

def _as_degrees(degrees) -> tuple:
    out = []
    for d in degrees:
        out.append((d,) if isinstance(d, int) else tuple(d))
    return tuple(out)


def validate_algebra(a: AlgebraSpec) -> None:
    """Check the semantic invariants of an algebra presentation."""
    if a.kind not in KINDS:
        raise SpecError("kind", f"unknown algebra kind {a.kind!r}")
    if not a.degrees:
        if a.kind != "polynomial":
            raise SpecError("generators", f"{a.kind} algebra needs generators")
    if len(a.names) != len(a.degrees):
        raise SpecError("generators", "names and degrees disagree in length")
    if len(set(a.names)) != len(a.names):
        raise SpecError("generators", "generator names must be distinct")
    m = a.multidegree_length
    for i, deg in enumerate(a.degrees):
        if len(deg) != m:
            raise SpecError(f"generators[{i+1}].degree",
                            "all multi-degrees must have the same length")
        if not all(map(isinstance, deg, repeat(int))) or min(deg, default=0) < 0:
            raise SpecError(f"generators[{i+1}].degree",
                            "multi-degree entries must be naturals")
        if not any(deg):
            raise SpecError(f"generators[{i+1}].degree",
                            "generator degree must be nonzero")
    if a.kind == "quantum_affine":
        n = a.num_generators
        if a.lam is None or len(a.lam) != n or any(len(r) != n for r in a.lam):
            raise SpecError("lambda", "lambda must be a square matrix over the generators")
        for i in range(n):
            if a.lam[i][i] != 1:
                raise SpecError(f"lambda[{i+1}][{i+1}]", "diagonal entries must be 1")
            for j in range(n):
                if a.lam[i][j] == 0:
                    raise SpecError(f"lambda[{i+1}][{j+1}]", "entries must be nonzero")
        for i in range(n):
            for j in range(i + 1, n):
                if a.lam[i][j] * a.lam[j][i] != 1:
                    raise SpecError(f"lambda[{j+1}][{i+1}]",
                                    "lambda[i][j] * lambda[j][i] must equal 1")
    if a.kind == "weyl":
        if a.weyl_rank is None or a.weyl_rank < 1:
            raise SpecError("weyl_rank", "rank must be a positive integer")
        if a.num_generators != 2 * a.weyl_rank:
            raise SpecError("generators", "a rank-n Weyl algebra has 2n generators")
    if a.kind == "pbw_weighted":
        seen = set()
        for k, rel in enumerate(a.relations):
            if not (0 <= rel.lesser < rel.greater < a.num_generators):
                raise SpecError(f"relations[{k+1}]",
                                "relation indices must satisfy 0 <= lesser < greater")
            if (rel.greater, rel.lesser) in seen:
                raise SpecError(f"relations[{k+1}]", "duplicate relation for a generator pair")
            seen.add((rel.greater, rel.lesser))
            if rel.scalar == 0:
                raise SpecError(f"relations[{k+1}]", "leading scalar must be nonzero")
            for mono, coeff in rel.lower:
                if len(mono) != a.num_generators:
                    raise SpecError(f"relations[{k+1}]",
                                    "lower-term monomial has the wrong number of exponents")
                if coeff == 0:
                    raise SpecError(f"relations[{k+1}]", "lower-term coefficients must be nonzero")


def defining_relations(a: AlgebraSpec) -> list:
    """All pairwise rewrite rules x_j x_i -> scalar x_i x_j + lower for j > i."""
    rels = []
    explicit = {(r.greater, r.lesser): r for r in a.relations}
    n = a.num_generators
    one = Fraction(1)
    unit = (0,) * n
    for j in range(n):
        for i in range(j):
            if (j, i) in explicit:
                rels.append(explicit[(j, i)])
            elif a.kind == "quantum_affine":
                rels.append(Relation(j, i, a.lam[i][j]))
            elif a.kind == "weyl" and j - i == a.weyl_rank:
                # y_i x_i = x_i y_i + 1
                rels.append(Relation(j, i, one, ((unit, one),)))
            else:
                rels.append(Relation(j, i, one))
    return rels


# ---------------------------------------------------------------------------
# normal ordering


def normal_order_weyl(word: Sequence[int], rank: int) -> LinearCombo:
    """Rewrite a generator word of the rank-n Weyl algebra into normal order.

    Generators are indexed 0..n-1 for x_1..x_n and n..2n-1 for y_1..y_n; the
    normal form puts all x's before all y's using y_i x_i = x_i y_i + 1.
    Returns the expansion as a map from exponent vectors to coefficients.
    """
    n = rank
    width = 2 * n
    combo: LinearCombo = {(0,) * width: Fraction(1)}
    for g in word:
        if not 0 <= g < width:
            raise ValueError(f"generator index {g} out of range for rank {n}")
        nxt: LinearCombo = {}
        if g >= n:
            for mono, c in combo.items():
                key = list(mono)
                key[g] += 1
                _add_term(nxt, tuple(key), c)
        else:
            # x^a y^b * x_i = x^(a+e_i) y^b + b_i * x^a y^(b - e_i)
            for mono, c in combo.items():
                key = list(mono)
                key[g] += 1
                _add_term(nxt, tuple(key), c)
                bi = mono[g + n]
                if bi:
                    key = list(mono)
                    key[g + n] -= 1
                    _add_term(nxt, tuple(key), c * bi)
        combo = nxt
    return combo


def _add_term(combo: LinearCombo, mono: Monomial, coeff: Fraction) -> None:
    acc = combo.get(mono, 0) + coeff
    if acc:
        combo[mono] = acc
    else:
        combo.pop(mono, None)


def quantum_inversion_scalar(word: Sequence[int], lam) -> Fraction:
    """Product of lam[min][max] over the inversions of the word."""
    scalar = Fraction(1)
    for p in range(len(word)):
        for q in range(p + 1, len(word)):
            i, j = word[p], word[q]
            if i > j:
                scalar *= lam[j][i]
    return scalar


# ---------------------------------------------------------------------------
# layer dimensions


def divide_by_weights(coeffs: Sequence[int], weights: Iterable[int]) -> list:
    """The power series coeffs / prod_w (1 - t^w), truncated to len(coeffs).

    Dividing by (1 - t^w) is a running sum with stride w, c[i] += c[i - w]
    from the bottom up; for w = 1 it is one itertools.accumulate over the
    whole list. Exact integers throughout; a weight <= 0 raises ValueError.
    """
    c = list(coeffs)
    for w in weights:
        if w <= 0:
            raise ValueError("generator weights must be positive")
        if w == 1:
            c = list(accumulate(c))
        else:
            for i in range(w, len(c)):
                c[i] += c[i - w]
    return c


def count_monomials_by_weight(weights: Sequence[int], top: int) -> list:
    """Number of monomials of each weighted total degree 0..top: the
    coefficients of 1 / prod_w (1 - t^w), by divide_by_weights."""
    return divide_by_weights([1] + [0] * top, weights)


def filtration_layer_dim(a: AlgebraSpec, i: int) -> int:
    """Dimension of the i-th filtration layer: normal monomials of weight <= i."""
    if i < 0:
        raise ValueError("layer index must be a natural number")
    return sum(count_monomials_by_weight(a.scalar_weights(), i))


# ---------------------------------------------------------------------------
# admissible orders on N^m


class _OrderFields(NamedTuple):
    kind: str
    weight: Optional[tuple] = None


class AdmissibleOrder(_OrderFields):
    """A monomial order on N^m: "lex", "deglex", or "weightlex".

    deglex compares total degree first; weightlex compares the weighted
    degree <weight, alpha> first; ties fall back to lex.
    """

    __slots__ = ()

    def __new__(cls, kind: str, weight: Optional[tuple] = None):
        if kind not in ORDER_KINDS:
            raise SpecError("order.kind", f"unknown order kind {kind!r}")
        if kind == "weightlex":
            if not weight:
                raise SpecError("order.weight", "weightlex needs a weight vector")
            if any((not isinstance(w, int)) or w <= 0 for w in weight):
                raise SpecError("order.weight", "weight entries must be positive integers")
            weight = tuple(weight)
        elif weight is not None:
            raise SpecError("order.weight", f"{kind} takes no weight vector")
        return super().__new__(cls, kind, weight)

    # _replace builds through _make; route it through the checks above
    _make = classmethod(lambda cls, fields: cls(*fields))

    def compare(self, alpha: Monomial, beta: Monomial) -> int:
        """-1, 0, or 1 as alpha is below, equal to, or above beta."""
        if len(alpha) != len(beta):
            raise ValueError("multi-degrees of different lengths are not comparable")
        if self.kind == "deglex":
            da, db = sum(alpha), sum(beta)
            if da != db:
                return -1 if da < db else 1
        elif self.kind == "weightlex":
            if len(self.weight) != len(alpha):
                raise ValueError("weight vector length does not match the multi-degrees")
            da = sum(w * x for w, x in zip(self.weight, alpha))
            db = sum(w * x for w, x in zip(self.weight, beta))
            if da != db:
                return -1 if da < db else 1
        if alpha == beta:
            return 0
        return -1 if alpha < beta else 1  # tuple comparison is lex


class AdmissibilityReport(NamedTuple):
    ok: bool
    counterexample: Optional[tuple] = None
    reason: Optional[str] = None


def check_admissibility(order, samples: int, num_components: int) -> AdmissibilityReport:
    """Sampled check that an order is total, has 0 minimal, and translates.

    `order` may be an AdmissibleOrder or any compare(alpha, beta) callable.
    All vectors with components <= samples are checked exhaustively; the first
    violation is returned as a counterexample.
    """
    cmp: Callable = order.compare if hasattr(order, "compare") else order
    from itertools import product
    vectors = list(product(range(samples + 1), repeat=num_components))
    zero = (0,) * num_components
    for v in vectors:
        c = cmp(zero, v)
        if v == zero:
            if c != 0:
                return AdmissibilityReport(False, (zero, v), "order is not reflexive at zero")
        elif c != -1:
            return AdmissibilityReport(False, (zero, v), "zero vector is not minimal")
    for u in vectors:
        for v in vectors:
            if cmp(u, v) != -cmp(v, u):
                return AdmissibilityReport(False, (u, v), "comparison is not antisymmetric")
    for u in vectors:
        for v in vectors:
            base = cmp(u, v)
            for t in vectors:
                ut = tuple(x + y for x, y in zip(u, t))
                vt = tuple(x + y for x, y in zip(v, t))
                if cmp(ut, vt) != base:
                    return AdmissibilityReport(False, (u, v, t),
                                               "order is not translation invariant")
    return AdmissibilityReport(True)


# ---------------------------------------------------------------------------
# re-filtering along a weight vector


def check_semicommutative_leading(a: AlgebraSpec, weight: Sequence[int]) -> bool:
    """True when every non-leading relation term drops in collapsed weight.

    The collapse sends a generator of multi-degree d to the scalar weight
    <weight, d>; the rule x_j x_i -> scalar x_i x_j + lower keeps its leading
    term exactly when every lower term has strictly smaller collapsed weight.
    """
    sw = _collapsed_weights(a, weight)
    for rel in defining_relations(a):
        lead = sw[rel.greater] + sw[rel.lesser]
        for mono, _coeff in rel.lower:
            if sum(e * w for e, w in zip(mono, sw)) >= lead:
                return False
    return True


def refilter(a: AlgebraSpec, weight: Sequence[int]) -> AlgebraSpec:
    """Collapse multi-degrees to <weight, degree> and return the new algebra.

    The weight entries must be positive integers; the collapse is verified to
    preserve the leading terms of all defining relations, and a RefilterError
    is raised when it does not.
    """
    weight = tuple(weight)
    if len(weight) != a.multidegree_length:
        raise SpecError("weight", "weight length must match the multi-degree length")
    if any((not isinstance(w, int)) or w <= 0 for w in weight):
        raise SpecError("weight", "weight entries must be positive integers")
    if not check_semicommutative_leading(a, weight):
        raise RefilterError(
            "weight collapse does not keep the relation leading terms dominant")
    new_degrees = tuple((sum(w * c for w, c in zip(weight, deg)),) for deg in a.degrees)
    return AlgebraSpec(a.kind, a.names, new_degrees, lam=a.lam,
                       weyl_rank=a.weyl_rank, relations=a.relations)


def _collapsed_weights(a: AlgebraSpec, weight: Sequence[int]) -> tuple:
    weight = tuple(weight)
    if len(weight) != a.multidegree_length:
        raise ValueError("weight length must match the multi-degree length")
    return tuple(sum(w * c for w, c in zip(weight, deg)) for deg in a.degrees)


# ---------------------------------------------------------------------------
# module presentations


class Summand(NamedTuple):
    """A shifted cyclic piece: the monomial quotient by `ideal`, placed in
    filtration degree `shift`."""

    shift: int = 0
    ideal: tuple = ()  # tuple[Monomial, ...]


class ModuleSpec(NamedTuple):
    """A graded module presented as a direct sum of shifted monomial quotients.

    negative_shift adds the rank-one two-directions module (the Laurent line
    k[x, x^-1]) with the two-sided count 2j + 1 up to degree j: the series
    (1 + t) / (1 - t) (hilbert._laurent_numerator) whatever its value s, so
    s changes no count, series or verdict; only validation (s >= 1) and
    chain's nesting rule read it.
    """

    summands: tuple = ()  # tuple[Summand, ...]
    negative_shift: Optional[int] = None

    @staticmethod
    def regular() -> "ModuleSpec":
        """The algebra as a module over itself: one unshifted free summand."""
        return ModuleSpec((Summand(0, ()),))

    @staticmethod
    def laurent(negative_shift: int = 1) -> "ModuleSpec":
        return ModuleSpec((), negative_shift=negative_shift)

    @staticmethod
    def cyclic(ideal, shift: int = 0) -> "ModuleSpec":
        return ModuleSpec((Summand(shift, tuple(tuple(m) for m in ideal)),))


def zero_module(a: AlgebraSpec) -> ModuleSpec:
    """The zero module, presented as the quotient by the unit ideal."""
    return ModuleSpec((Summand(0, ((0,) * a.num_generators,)),))


def validate_module(a: AlgebraSpec, m: ModuleSpec) -> None:
    """Check a module presentation against its ambient algebra."""
    if not m.summands and m.negative_shift is None:
        raise SpecError("module.summands", "module needs summands or a negative_shift")
    if m.negative_shift is not None:
        if (not isinstance(m.negative_shift, int)) or m.negative_shift < 1:
            raise SpecError("module.negative_shift", "negative_shift must be a positive integer")
        if not a.degrees:
            raise SpecError("module.negative_shift", "a Laurent part needs an algebra "
                                                     "with generators")
    for s_idx, s in enumerate(m.summands):
        if (not isinstance(s.shift, int)) or s.shift < 0:
            raise SpecError(f"module.summands[{s_idx+1}].shift",
                            "shift must be a natural number")
        for g_idx, mono in enumerate(s.ideal):
            if len(mono) != a.num_generators:
                raise SpecError(f"module.summands[{s_idx+1}].ideal[{g_idx+1}]",
                                "monomial has the wrong number of exponents")
            if not all(map(isinstance, mono, repeat(int))) or min(mono, default=0) < 0:
                raise SpecError(f"module.summands[{s_idx+1}].ideal[{g_idx+1}]",
                                "exponents must be naturals")
