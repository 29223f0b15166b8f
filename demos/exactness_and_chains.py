"""
Exactness, additivity, and the chain length bound
=================================================

For a short exact sequence 0 -> M' -> M -> M'' -> 0 of monomial modules the
growth dimension satisfies GK(M) = max(GK M', GK M''), and the multiplicity
e is additive over the pieces of top growth.  The multiplicity also bounds
the length of any strictly descending chain of submodules whose quotients
keep the full growth dimension: n <= e(M).  This script checks all three
multiplicity cases and then saturates the chain bound.
"""

from gkdim.axioms import (SESSpec, chain_bound_check, check_multiplicity_axioms,
                          ses_dimension_triple, torsion_check_cyclic)
from gkdim.presentations import AlgebraSpec, ModuleSpec, Summand, zero_module

# ---------------------------------------------------------------------------
# One sequence per case.  A sub-ideal J containing the summand ideal I cuts
# M = A/I into the sub-piece M' = J/I and the quotient M'' = A/J.

plane = AlgebraSpec.polynomial(2)
cross = AlgebraSpec.polynomial(3)

CASES = [
    ("x*k[x,y] inside k[x,y], quotient k[y]",
     SESSpec(plane, ModuleSpec.regular(), (((1, 0),),))),
    ("the axis pair k[x,y]/(xy), sub generated by x",
     SESSpec(plane, ModuleSpec.cyclic(((1, 1),)), (((1, 0),),))),
    ("a line inside the coordinate cross k[x,y,z]/(xy, xz)",
     SESSpec(cross, ModuleSpec.cyclic(((1, 1, 0), (1, 0, 1))),
             (((1, 0, 0),),))),
]

for title, ses in CASES:
    report = check_multiplicity_axioms(ses)
    prime, big, double = ses_dimension_triple(ses, 25)
    balanced = all(prime[k] + double[k] == big[k] for k in range(26))
    print(title)
    print(f"  growth (M', M, M'') = {report.gk_triple}, case {report.case!r}")
    print(f"  multiplicities      = {tuple(str(e) for e in report.e_values)}")
    print(f"  exactness holds: {report.exactness_ok}, "
          f"additivity holds: {report.additivity_ok}, "
          f"degreewise balance: {balanced}")
    print()

# ---------------------------------------------------------------------------
# Chain bound: the free module k[x]^3 has multiplicity 3, and dropping one
# free summand at a time realizes a strictly descending chain of length
# exactly 3 -- the bound n <= e(M) is tight.

line = AlgebraSpec.polynomial(1)
rank3 = ModuleSpec(tuple(Summand(0, ()) for _ in range(3)))
chain = [rank3,
         ModuleSpec((Summand(0, ()), Summand(0, ()))),
         ModuleSpec.regular(),
         zero_module(line)]
report = chain_bound_check(line, chain)
print("free module of rank 3 over k[x], full flag of free submodules:")
print(f"  chain length n = {report.n}, e(M) = {report.e_m}, "
      f"bound n <= e(M): {report.bound_ok}")
print(f"  all quotients keep the full growth dimension: "
      f"{report.quotients_full_gk}")

# ---------------------------------------------------------------------------
# Torsion: over an algebra with growth dimension strictly above its
# holonomic number, a cyclic quotient by a nonzero ideal is all torsion.

w1 = AlgebraSpec.weyl(1)
print()
for nonzero in (True, False):
    verdict = torsion_check_cyclic(w1, nonzero, gk_a=2, h=1)
    kind = "nonzero ideal" if nonzero else "zero ideal  "
    print(f"W_1, {kind}: torsion = {verdict.torsion}  ({verdict.reason})")
