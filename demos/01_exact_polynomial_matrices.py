"""Exact arithmetic with homogeneous polynomial matrices.

Everything in fbinv runs over exact rationals: determinants, minors, ranks
and gcds of bivariate homogeneous polynomials come back as exact objects, so
"is this identically zero?" is always a real answer, never a tolerance call.
"""

from fbinv import (
    HomPoly,
    HomPolyMatrix,
    determinant,
    generic_rank,
    homogenize,
    maximal_minors,
    poly_gcd_list,
    rank_at_point,
    UniPoly,
)

s = HomPoly.monomial(1, 1, 0)
t = HomPoly.monomial(1, 0, 1)

print("== homogenization ==")
f = UniPoly.from_coeffs([3, 0, 1])  # s^2 + 3
h = homogenize(f, 2)
print(f"s^2 + 3 homogenized to degree 2:   {h}")
print(f"2s - 5 homogenized to degree 3:    {homogenize(UniPoly.from_coeffs([-5, 2]), 3)}")

print()
print("== determinants ==")
m = HomPolyMatrix.from_rows([[s, t], [t, s]])
print(f"det [[s, t], [t, s]] by expansion:    {determinant(m)}")

print()
print("== maximal minors and generic rank ==")
grid = HomPolyMatrix.from_rows([[s * s, s * t, t * t]])
print(f"1x1 minors of (s^2, st, t^2): {[str(x) for x in maximal_minors(grid, 1)]}")
two_rows = HomPolyMatrix.from_rows([[s * s, s * t], [s * t, t * t]])
print(f"det [[s^2, st], [st, t^2]] = {determinant(two_rows)}  (proportional rows)")
print(f"generic rank of that matrix: {generic_rank(two_rows)}")
print(f"rank at the point (1, 1):    {rank_at_point(two_rows, 1, 1)}")

print()
print("== gcds detect common projective zeros ==")
print(f"gcd(s^2, st)        = {poly_gcd_list([s * s, s * t])}   (common zero at s = 0)")
print(f"gcd(s, t)           = {poly_gcd_list([s, t])}   (no common zero)")
diff = HomPoly.from_terms(2, [(1, 2, 0), (-1, 0, 2)])
lin = HomPoly.from_terms(1, [(1, 1, 0), (-1, 0, 1)])
print(f"gcd(s^2 - t^2, s - t) = {poly_gcd_list([diff, lin])}")
