"""Checks of growth-dimension exactness and multiplicity additivity on short
exact sequences of monomial modules, plus chain-length bounds, holonomic
defects and a torsion criterion for cyclic modules.

Growth dimensions and multiplicities of presented modules are certified
from their exact Hilbert numerators (hilbert.growth_certificate), not fitted
to sampled counts, so the exactness and multiplicity verdicts hold on every
filtration, weighted ones included. The chain's nesting is checked exactly
on the presentations, by divisibility of ideal generators.
"""

from fractions import Fraction
from operator import sub
from typing import NamedTuple, Optional

# detect_polynomial is not called here; bench/test_bench.py checks that its
# tracer rebinds this module's name
from .exactnum import detect_polynomial  # noqa: F401
from .presentations import (AlgebraSpec, ModuleSpec, SpecError, Summand,
                            monomial_divides, validate_algebra,
                            validate_module)
from .hilbert import (DimensionSequence, _numerator_at_one, growth_certificate,
                      module_dim_sequence)


# ---------------------------------------------------------------------------
# short exact sequences of monomial modules


def _contains(ideal, gens) -> bool:
    """True when every monomial in `gens` has a divisor in `ideal`."""
    return all(any(monomial_divides(h, g) for h in ideal) for g in gens)


class SESSpec(NamedTuple):
    """A short exact sequence 0 -> M' -> M -> M'' -> 0 of monomial modules.

    `big` presents M as a direct sum of shifted monomial quotients A/I_k; for
    each summand, sub_ideals[k] is a monomial ideal J_k containing I_k, and
    the sub-piece M' is the span of J_k inside A/I_k (summed over summands).
    The quotient M'' is the direct sum of the A/J_k with the same shifts and
    M's Laurent part (negative_shift), never supplied; M' is derived by
    subtraction, of counts (dim M'_n = dim M_n - dim M''_n) and of Hilbert
    numerators alike.
    """

    ambient: AlgebraSpec
    big: ModuleSpec
    sub_ideals: tuple  # tuple[tuple[Monomial, ...], ...], one ideal per summand


def validate_ses(s: SESSpec, *, validated: bool = False) -> None:
    """Check a short-exact-sequence presentation, raising SpecError with a
    field path on the first violation. validated=True skips the checks of
    the algebra, of M and of the sub-ideals' monomials, for a caller that
    has made them (the CLI's parser); one sub-ideal per summand, each
    containing the summand's ideal, is checked either way."""
    if not validated:
        validate_algebra(s.ambient)
        validate_module(s.ambient, s.big)
    if len(s.sub_ideals) != len(s.big.summands):
        raise SpecError("ses.sub_ideals",
                        "need exactly one sub-ideal per module summand")
    width = s.ambient.num_generators
    for k, (summand, sub) in enumerate(zip(s.big.summands, s.sub_ideals)):
        if not validated:
            for j, mono in enumerate(sub):
                if len(mono) != width:
                    raise SpecError(f"ses.sub_ideals[{k+1}][{j+1}]",
                                    "monomial has the wrong number of exponents")
                if any((not isinstance(e, int)) or e < 0 for e in mono):
                    raise SpecError(f"ses.sub_ideals[{k+1}][{j+1}]",
                                    "exponents must be naturals")
        if not _contains(sub, summand.ideal):
            raise SpecError(f"ses.sub_ideals[{k+1}]", "sub-ideal must contain the summand "
                            "ideal (every ideal generator needs a divisor among the "
                            "sub-ideal generators)")


def _quotient(s: SESSpec) -> ModuleSpec:
    """M'': the direct sum of the A/J_k, shifted as in M, and M's Laurent
    part, which M' leaves out."""
    return s.big._replace(summands=tuple(Summand(summand.shift, sub) for summand, sub
                                         in zip(s.big.summands, s.sub_ideals)))


def ses_dimension_triple(s: SESSpec, top: int):
    """Cumulative dimension sequences (M', M, M'') of the sequence, degrees
    0..top.

    M and M'' are each counted once as module presentations, and M' by
    exact subtraction. The balance dim M'_n + dim M''_n = dim M_n therefore
    holds by construction; validity of all three as dimension sequences
    (natural, nondecreasing) is asserted.
    """
    validate_ses(s)  # checks M, and the sub-ideals M'' is built from
    m = module_dim_sequence(s.ambient, s.big, top, validated=True)
    double = module_dim_sequence(s.ambient, _quotient(s), top, validated=True,
                                 path="ses.sub_ideals")
    prime = tuple(map(sub, m.values, double.values))
    return DimensionSequence(prime, "cumulative"), m, double


class AxiomReport(NamedTuple):
    """Exactness / multiplicity verdict on a short exact sequence.

    gk_triple lists growth dimensions as (GK M', GK M, GK M''), with None
    for a zero piece. case is "a" (GK M' < GK M = GK M''), "b" (GK M'' <
    GK M = GK M'), "c" (all three equal), "degenerate" (some piece is
    zero), or "inconclusive" (the growth dimensions match no multiplicity
    clause). exactness_ok checks GK M = max(GK M', GK M''); additivity_ok
    checks the multiplicity identity of the applicable case, and is None
    when no case applies.
    """

    gk_triple: tuple
    e_values: tuple
    case: str
    exactness_ok: bool
    additivity_ok: Optional[bool]
    notes: tuple = ()


def check_multiplicity_axioms(s: SESSpec, *, validated: bool = False) -> AxiomReport:
    """Full multiplicity verdict on the sequence.

    Classifies the growth-dimension pattern into case "a" (e(M) = e(M'')),
    "b" (e(M') = e(M)), "c" (additivity e(M) = e(M') + e(M'')), or
    "degenerate" (a zero piece), and checks the applicable identity exactly
    over the rationals. Also checks that multiplicity 0 occurs exactly on
    zero pieces. M and M'' are certified from their Hilbert numerators, and
    M' from the difference of the two numerators, so the verdict holds in
    every degree and needs no sampling depth. validated is passed on to
    validate_ses.
    """
    validate_ses(s, validated=validated)
    m = _numerator_at_one(s.ambient, s.big, "module")
    double = _numerator_at_one(s.ambient, _quotient(s), "ses.sub_ideals")
    certs = [growth_certificate(s.ambient, c)
             for c in (tuple(map(sub, m, double)), m, double)]
    zero = [c is None for c in certs]
    gk = tuple(None if c is None else c[0] for c in certs)
    e = tuple(Fraction(0) if c is None else c[1] for c in certs)
    notes = []

    side_gks = [g for g in (gk[0], gk[2]) if g is not None]
    if zero[1]:
        exactness_ok = zero[0] and zero[2]
    elif side_gks:
        exactness_ok = gk[1] == max(side_gks)
    else:
        exactness_ok = False  # unreachable: a nonzero M forces a nonzero side

    if any(zero):
        case = "degenerate"
        # with a zero piece the clause collapses to an identity between the
        # remaining equal sequences, so full additivity is the right check
        additivity_ok = e[1] == e[0] + e[2]
        notes.append("a zero piece reduces the multiplicity clause to an identity")
    elif gk[0] == gk[1] == gk[2]:
        case = "c"
        additivity_ok = e[1] == e[0] + e[2]
    elif gk[0] < gk[1] and gk[2] == gk[1]:
        case = "a"
        additivity_ok = e[1] == e[2]
    elif gk[2] < gk[1] and gk[0] == gk[1]:
        case = "b"
        additivity_ok = e[0] == e[1]
    else:
        case = "inconclusive"
        additivity_ok = None
        notes.append("growth-dimension pattern matches no multiplicity clause")

    for ev, z in zip(e, zero):
        if (ev == 0) != z:
            additivity_ok = False
            notes.append("a piece has multiplicity 0 without being zero (or vice versa)")
    return AxiomReport(gk, e, case, exactness_ok, additivity_ok, tuple(notes))


# ---------------------------------------------------------------------------
# descending-chain length bound


class ChainReport(NamedTuple):
    """Outcome of the chain-length bound n <= e(M) on a strictly descending
    chain M = M_0 > M_1 > ... > M_n.

    quotients_full_gk reports the precondition that every factor (kernel of
    M_i -> M_{i+1}) has the same growth dimension as M; when it fails the
    bound verdict is still computed but the hypothesis did not hold.
    """

    n: int
    e_m: Optional[Fraction]
    gk_m: Optional[int]
    bound_ok: Optional[bool]
    quotients_full_gk: Optional[bool]
    notes: tuple = ()


def chain_bound_check(ambient: AlgebraSpec, chain, *, validated: bool = False) -> ChainReport:
    """Check the length bound n <= e(M) on a chain M = M_0, ..., M_n of
    module presentations, each nested in the one before (n = 0 for just M).

    M_{i+1} is nested in M_i when it has at most as many summands, its
    k-th summand has M_i's k-th shift and an ideal J_k containing M_i's I_k
    (every generator of I_k has a divisor among J_k's), and it keeps M_i's
    Laurent part (negative_shift) or drops it, but gains none. M_i -> M_{i+1}
    is then A/I_k -> A/J_k on shared summands, the identity on a kept
    Laurent part, and kills the rest of M_i; its kernel is the i-th factor
    of the ascending chain of kernels of M -> M_i, with the difference of
    the two numerators as its Hilbert numerator.
    e(M), gk(M) and the factors' growth dimensions are certified from these;
    a factor of smaller growth dimension is reported via quotients_full_gk.
    SpecError is raised for a member not nested in the previous one, one
    with the previous one's numerator (a zero factor), and one whose
    numerator has more than SERIES_DEGREE_BOUND distinct degrees or
    PIVOT_NODE_BOUND pivot nodes in one walk.
    validated=True skips validate_module on the members, for a caller that
    has checked them (the CLI's parser); the nesting is checked either way.
    """
    if not chain:
        raise SpecError("chain", "chain must start with the module itself")
    if not validated:
        for m in chain:
            validate_module(ambient, m)
    numerators = [_numerator_at_one(ambient, m, f"chain[{k+1}]")
                  for k, m in enumerate(chain)]
    gk_m, e_m = growth_certificate(ambient, numerators[0]) or (0, Fraction(0))
    notes = []
    for i, (outer, inner) in enumerate(zip(chain, chain[1:])):
        if inner.negative_shift not in (None, outer.negative_shift) or len(
                inner.summands) > len(outer.summands) or not all(
                o.shift == j.shift and _contains(j.ideal, o.ideal)
                for o, j in zip(outer.summands, inner.summands)):
            raise SpecError(f"chain[{i+2}]",
                            "chain member is not nested in the previous one")
        factor = growth_certificate(ambient, tuple(map(sub, numerators[i],
                                                       numerators[i + 1])))
        if factor is None:  # equal numerators: under nesting, a zero factor
            raise SpecError(f"chain[{i+2}]", "chain containment is not strict")
        if factor[0] != gk_m:
            notes.append(f"quotient {i+1} has smaller growth dimension than the module")
    n = len(chain) - 1
    return ChainReport(n, e_m, gk_m, n <= e_m, not notes, tuple(notes))


# ---------------------------------------------------------------------------
# holonomic numbers and torsion


class HolonomyCatalog(NamedTuple):
    """Known smallest growth dimensions over finitely generated modules, by
    algebra kind: a Weyl algebra of rank n has h = n, a polynomial ring has
    h = 0. An explicit override (when set) wins for every algebra."""

    override: Optional[int] = None

    def h_for(self, a: AlgebraSpec) -> int:
        if self.override is not None:
            return self.override
        if a.kind == "weyl":
            return a.weyl_rank
        if a.kind == "polynomial":
            return 0
        raise ValueError(f"no holonomy catalog entry for algebra kind {a.kind!r}; "
                         "supply an explicit override")


class HolonomyReport(NamedTuple):
    """gk of the module, the ambient algebra's holonomic number h, their
    difference, and whether the module attains the minimum (defect 0)."""

    gk: int
    h: int
    defect: int
    min_holonomic: bool


def holonomic_defect(ambient: AlgebraSpec, gk: Optional[int],
                     catalog: HolonomyCatalog) -> HolonomyReport:
    """Defect gk(M) - h of a module over `ambient` of growth dimension gk,
    against the catalog's holonomic number.

    analyze passes the gk that samuel.certified_growth reads from a
    presentation's exact Hilbert series, so the min-holonomic verdict is
    exact.
    Raises ValueError when gk is None (no growth dimension was established)
    or the catalog has no entry for the algebra kind.
    """
    h = catalog.h_for(ambient)
    if gk is None:
        raise ValueError("the module has no established growth dimension")
    return HolonomyReport(gk, h, gk - h, gk - h == 0)


class TorsionReport(NamedTuple):
    """Verdict of the torsion criterion for a cyclic module A/I.

    applicable is False (torsion None) when the hypotheses gk(A) > h > 0 do
    not hold; otherwise torsion is True exactly when the ideal is nonzero.
    """

    applicable: bool
    torsion: Optional[bool]
    reason: str


def torsion_check_cyclic(ambient: AlgebraSpec, ideal_nonzero: bool,
                         gk_a: int, h: int, *, validated: bool = False) -> TorsionReport:
    """Torsion criterion for a cyclic module A/I over an algebra with
    gk(A) > h > 0: every element is torsion exactly when I is nonzero.

    The criterion needs the quotient's growth dimension to drop below the
    algebra's, which a nonzero monomial ideal forces; the regular module
    (I = 0) embeds the algebra, so it is torsion-free. validated=True skips
    validate_algebra, for a caller that has checked the algebra (the CLI's
    parser).
    """
    if not validated:
        validate_algebra(ambient)
    if not (gk_a > h > 0):
        return TorsionReport(False, None,
                             "criterion needs the algebra's growth dimension "
                             "above a positive holonomic number")
    if ideal_nonzero:
        return TorsionReport(True, True,
                             "a nonzero ideal lowers the quotient's growth "
                             "dimension, so every generator is torsion")
    return TorsionReport(True, False,
                         "the regular module embeds the algebra and has no torsion")
