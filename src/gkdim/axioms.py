"""Checks of growth-dimension exactness and multiplicity additivity on short
exact sequences of monomial modules, plus chain-length bounds, holonomic
defects, a torsion criterion for cyclic modules, and dimension-level
filtration comparison.

Growth dimensions and multiplicities of presented modules are certified
from their exact Hilbert numerators (hilbert.growth_certificate), not fitted
to sampled counts, so the exactness and multiplicity verdicts hold on every
filtration, weighted ones included. Only the chain's strictness, a
degreewise comparison, is checked on the counts up to the sampled degree.
"""

from fractions import Fraction
from operator import gt, sub
from typing import NamedTuple, Optional

# detect_polynomial is not called here; bench/test_bench.py checks that its
# tracer rebinds this module's name
from .exactnum import (HilbertSamuelPolynomial, detect_polynomial,  # noqa: F401
                       sequence_values)
from .presentations import (AlgebraSpec, ModuleSpec, SpecError, Summand,
                            monomial_divides, validate_algebra,
                            validate_module)
from .hilbert import (DimensionSequence, growth_certificate, module_dim_sequence,
                      numerator_at_one)
from .samuel import gk_dimension


# ---------------------------------------------------------------------------
# short exact sequences of monomial modules


class SESSpec(NamedTuple):
    """A short exact sequence 0 -> M' -> M -> M'' -> 0 of monomial modules.

    `big` presents M as a direct sum of shifted monomial quotients A/I_k; for
    each summand, sub_ideals[k] is a monomial ideal J_k containing I_k, and
    the sub-piece M' is the span of J_k inside A/I_k (summed over summands).
    The quotient M'' is the direct sum of the A/J_k with the same shifts,
    never supplied; M' is derived by subtraction, of counts (dim M'_n =
    dim M_n - dim M''_n) and of Hilbert numerators alike.
    """

    ambient: AlgebraSpec
    big: ModuleSpec
    sub_ideals: tuple  # tuple[tuple[Monomial, ...], ...], one ideal per summand


def validate_ses(s: SESSpec) -> None:
    """Check a short-exact-sequence presentation, raising SpecError with a
    field path on the first violation."""
    validate_algebra(s.ambient)
    validate_module(s.ambient, s.big)
    if s.big.negative_shift is not None:
        raise SpecError("ses", "short-exact-sequence checks need summand "
                               "presentations, not a negative_shift module")
    if len(s.sub_ideals) != len(s.big.summands):
        raise SpecError("ses.sub_ideals",
                        "need exactly one sub-ideal per module summand")
    width = s.ambient.num_generators
    for k, (summand, sub) in enumerate(zip(s.big.summands, s.sub_ideals)):
        for j, mono in enumerate(sub):
            if len(mono) != width:
                raise SpecError(f"ses.sub_ideals[{k+1}][{j+1}]",
                                "monomial has the wrong number of exponents")
            if any((not isinstance(e, int)) or e < 0 for e in mono):
                raise SpecError(f"ses.sub_ideals[{k+1}][{j+1}]",
                                "exponents must be naturals")
        for gen in summand.ideal:
            if not any(monomial_divides(h, gen) for h in sub):
                raise SpecError(f"ses.sub_ideals[{k+1}]",
                                "sub-ideal must contain the summand ideal "
                                "(every ideal generator needs a divisor "
                                "among the sub-ideal generators)")


def _quotient(s: SESSpec) -> ModuleSpec:
    """M'': the direct sum of the A/J_k, shifted as in M."""
    return ModuleSpec(tuple(Summand(summand.shift, sub) for summand, sub
                            in zip(s.big.summands, s.sub_ideals)))


def ses_dimension_triple(s: SESSpec, top: int):
    """Cumulative dimension sequences (M', M, M'') of the sequence, degrees
    0..top.

    M and M'' are each counted once as module presentations, and M' by
    exact subtraction. The balance dim M'_n + dim M''_n = dim M_n therefore
    holds by construction; validity of all three as dimension sequences
    (natural, nondecreasing) is asserted.
    """
    validate_ses(s)
    m = module_dim_sequence(s.ambient, s.big, top)
    double = module_dim_sequence(s.ambient, _quotient(s), top)
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
    e_values: Optional[tuple]
    case: str
    exactness_ok: Optional[bool]
    additivity_ok: Optional[bool]
    notes: tuple = ()


def check_multiplicity_axioms(s: SESSpec, top: int, window: int = 6) -> AxiomReport:
    """Full multiplicity verdict on the sequence.

    Classifies the growth-dimension pattern into case "a" (e(M) = e(M'')),
    "b" (e(M') = e(M)), "c" (additivity e(M) = e(M') + e(M'')), or
    "degenerate" (a zero piece), and checks the applicable identity exactly
    over the rationals. Also checks that multiplicity 0 occurs exactly on
    zero pieces. M and M'' are certified from their Hilbert numerators, and
    M' from the difference of the two numerators, so the verdict holds in
    every degree; `top` and `window` do not enter it.
    """
    validate_ses(s)
    m = numerator_at_one(s.ambient, s.big)
    double = numerator_at_one(s.ambient, _quotient(s))
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


def check_exactness(s: SESSpec, top: int, window: int = 6) -> AxiomReport:
    """Growth-dimension exactness GK M = max(GK M', GK M'') on the sequence.

    Returns a partial report: gk_triple, case, and exactness_ok are filled,
    multiplicity fields are left empty. The growth dimensions are certified
    as in check_multiplicity_axioms; `top` and `window` do not enter them.
    """
    report = check_multiplicity_axioms(s, top, window)
    return report._replace(e_values=None, additivity_ok=None)


# ---------------------------------------------------------------------------
# descending-chain length bound


class ChainReport(NamedTuple):
    """Outcome of the chain-length bound n <= e(M) on a strictly descending
    chain M = M_0 > M_1 > ... > M_n.

    quotients_full_gk reports the precondition that every quotient
    M_i / M_{i+1} has the same growth dimension as M; when it fails the
    bound verdict is still computed but the hypothesis did not hold.
    """

    n: int
    e_m: Optional[Fraction]
    gk_m: Optional[int]
    bound_ok: Optional[bool]
    quotients_full_gk: Optional[bool]
    notes: tuple = ()


def chain_bound_check(ambient: AlgebraSpec, chain, top: int,
                      window: int = 6) -> ChainReport:
    """Check the length bound n <= e(M) on a chain of module presentations.

    `chain` lists summand presentations whose dimension sequences must be
    strictly descending degreewise, starting with M itself; n =
    len(chain) - 1. An empty tail (just M) gives n = 0. A negative_shift
    member and strictness violations on degrees 0..top raise SpecError;
    `top` sizes only that comparison, and `window` is not used. e(M),
    gk(M) and each quotient's growth dimension are certified from the
    members' Hilbert numerators (a quotient's is the difference of two);
    a quotient of smaller growth dimension is reported via
    quotients_full_gk, not raised.
    """
    if not chain:
        raise SpecError("chain", "chain must start with the module itself")
    for k, m in enumerate(chain):
        if m.negative_shift is not None:
            raise SpecError(f"chain[{k+1}]", "chain checks need summand "
                                             "presentations, not a negative_shift module")
    dims = [module_dim_sequence(ambient, m, top) for m in chain]
    for i in range(len(dims) - 1):
        prev, cur = dims[i].values, dims[i + 1].values
        if any(map(gt, cur, prev)):
            raise SpecError(f"chain[{i+2}]",
                            "chain member exceeds the previous one in some degree")
        if cur == prev:
            raise SpecError(f"chain[{i+2}]",
                            "chain containment is not strict in the sampled range")
    n = len(chain) - 1
    numerators = [numerator_at_one(ambient, m) for m in chain]
    gk_m, e_m = growth_certificate(ambient, numerators[0]) or (0, Fraction(0))
    quotients_full_gk = True
    notes = []
    for i in range(n):
        # natural by the comparison above; a cumulative sequence also needs
        # to be nondecreasing
        diffs = tuple(map(sub, dims[i].values, dims[i + 1].values))
        if any(map(gt, diffs, diffs[1:])):
            raise SpecError(f"chain[{i+2}]",
                            "difference with the previous member is not a "
                            "valid cumulative dimension sequence")
        quotient = growth_certificate(ambient, tuple(map(sub, numerators[i],
                                                         numerators[i + 1])))
        if quotient is None or quotient[0] != gk_m:
            quotients_full_gk = False
            notes.append(f"quotient {i+1} has smaller growth dimension than the module")
    return ChainReport(n, e_m, gk_m, n <= e_m, quotients_full_gk, tuple(notes))


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


def holonomic_defect(ambient: AlgebraSpec, fit: Optional[HilbertSamuelPolynomial],
                     catalog: HolonomyCatalog) -> HolonomyReport:
    """Defect gk(M) - h of a module over `ambient`, given its Hilbert-Samuel
    fit, against the catalog's holonomic number.

    Raises ValueError when the fit is None (growth not detectable on the
    sampled range) or the catalog has no entry for the algebra kind.
    """
    h = catalog.h_for(ambient)
    if fit is None:
        raise ValueError("growth dimension is not detectable on the sampled range")
    gk = gk_dimension(fit)
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
                         gk_a: int, h: int) -> TorsionReport:
    """Torsion criterion for a cyclic module A/I over an algebra with
    gk(A) > h > 0: every element is torsion exactly when I is nonzero.

    The criterion needs the quotient's growth dimension to drop below the
    algebra's, which a nonzero monomial ideal forces; the regular module
    (I = 0) embeds the algebra, so it is torsion-free.
    """
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


# ---------------------------------------------------------------------------
# filtration comparison


def filtration_equivalent(s1, s2, c_max: int) -> Optional[int]:
    """Smallest shift c <= c_max with s1(i) <= s2(i+c) and s2(i) <= s1(i+c)
    on the sampled overlap, or None.

    This is the dimension-level necessary condition for two filtrations of
    the same module to be equivalent (each contained in a shift of the
    other); it cannot certify subspace-level containment. Inputs are
    cumulative sequences.
    """
    a = sequence_values(s1, require_cumulative=True)
    b = sequence_values(s2, require_cumulative=True)
    for c in range(c_max + 1):
        fwd = all(a[i] <= b[i + c] for i in range(min(len(a), len(b) - c)))
        bwd = all(b[i] <= a[i + c] for i in range(min(len(b), len(a) - c)))
        if fwd and bwd:
            return c
    return None
