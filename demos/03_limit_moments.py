"""Moments of the limiting law across the correlation dial.

m_k(c) sums, over pair partitions of {1..k}, the partition's volume times
c^(k/2 - height).  At c = 0 only the non-crossing terms survive and the
moments are Catalan numbers (the semicircle law); at c = 1 every crossing
contributes its full volume.  The volumes are exact, so each moment is a
polynomial in c with rational coefficients; the fourth moment is
2 + (2/3) c^2.  The package reaches k = 14, but that order takes about 2.5
minutes, so this demo stops at k = 12 (about 2.5 seconds).
"""

from corrdiag import limiting_moment
from corrdiag.moments import catalan, exact_moment_polynomial

K_MAX = 12

print(f"exact moment polynomials (k <= {K_MAX}):")
for k in range(4, K_MAX + 1, 2):
    terms = [(f"{a}" if a.denominator == 1 else f"({a})") + (f" c^{j}" if j else "")
             for j, a in enumerate(exact_moment_polynomial(k)) if a]
    print(f"  m_{k}(c) = " + " + ".join(terms))

print("\n       c:   0.00      0.25      0.50      0.75      1.00   (exact)")
for k in range(2, K_MAX + 1, 2):
    row = [limiting_moment(k, c).value for c in (0.0, 0.25, 0.5, 0.75, 1.0)]
    print(f"  m_{k:<2}:  " + "  ".join(f"{v:8.4f}" for v in row))

print("\nat c = 0 the even moments are exactly the Catalan numbers:")
print("  " + ", ".join(
    f"m_{k}={limiting_moment(k, 0.0).value:.0f}"
    f" (C_{k//2}={catalan(k//2)})" for k in (2, 4, 6, 8, 10, 12)))

print("\nodd moments vanish identically:",
      all(limiting_moment(k, 0.7).value == 0.0 for k in (1, 3, 5, 7)))
