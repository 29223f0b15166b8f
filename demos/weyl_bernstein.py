"""
Weyl algebras: normal ordering, growth, and the Bernstein number
================================================================

The n-th Weyl algebra W_n is generated by x_1..x_n, y_1..y_n subject to
y_i x_i = x_i y_i + 1 (all other pairs commute).  Its standard filtration
by word length has layer dimensions C(2n + j, 2n), so the growth degree is
2n and the normalized leading coefficient -- the Bernstein number -- is 1.
This script walks from the rewriting rule to those invariants.
"""

from gkdim.presentations import (AlgebraSpec, ModuleSpec,
                                 filtration_layer_dim, normal_order_weyl)
from gkdim.hilbert import DimensionSequence, module_dim_sequence
from gkdim.samuel import detect_polynomial, gk_dimension, multiplicity
from gkdim.axioms import HolonomyCatalog, holonomic_defect

# ---------------------------------------------------------------------------
# Normal ordering: every word is a sum of x^a y^b monomials.
# Generator indices for rank n: 0..n-1 are the x's, n..2n-1 are the y's.


def render(combo, rank):
    names = [f"x{i+1}" for i in range(rank)] + [f"y{i+1}" for i in range(rank)]
    parts = []
    for mono in sorted(combo, reverse=True):
        factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                   for i, e in enumerate(mono) if e]
        coeff = combo[mono]
        term = "*".join(factors) if factors else "1"
        parts.append(term if coeff == 1 else f"{coeff}*{term}")
    return " + ".join(parts)


print("normal ordering in W_1 (0 = x, 1 = y):")
for word in ([1, 0], [1, 1, 0], [1, 0, 1, 0]):
    combo = normal_order_weyl(word, 1)
    letters = "".join("xy"[g] for g in word)
    print(f"  {letters:6s} -> {render(combo, 1)}")

# The commutator appears as the constant term: yx -> xy + 1.

# ---------------------------------------------------------------------------
# Layer dimensions of the length filtration, and the fitted polynomial.

print()
print("filtration layers and fitted growth:")
for n in (1, 2, 3):
    a = AlgebraSpec.weyl(n)
    layers = [filtration_layer_dim(a, j) for j in range(21)]
    fit = detect_polynomial(DimensionSequence(tuple(layers), "cumulative"))
    print(f"  W_{n}: dims start {layers[:5]}, "
          f"degree {gk_dimension(fit)}, Bernstein number {multiplicity(fit)}")

# ---------------------------------------------------------------------------
# The coordinate module k[x_1..x_n]: quotient of W_n by the left ideal (y's).
# Its growth degree n is exactly half of 2n -- the smallest possible for a
# nonzero module -- which makes it holonomic with defect 0.

print()
print("the coordinate module over W_n:")
catalog = HolonomyCatalog()
for n in (1, 2, 3):
    a = AlgebraSpec.weyl(n)
    kill_y = [tuple(1 if i == n + j else 0 for i in range(2 * n))
              for j in range(n)]
    module = ModuleSpec.cyclic(kill_y)
    dims = module_dim_sequence(a, module, 24)
    fit = detect_polynomial(dims)
    report = holonomic_defect(a, gk_dimension(fit), catalog)
    print(f"  over W_{n}: growth {gk_dimension(fit)}, "
          f"multiplicity {multiplicity(fit)}, defect {report.defect}, "
          f"minimally holonomic: {report.min_holonomic}")
