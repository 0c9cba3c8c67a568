#!/usr/bin/env python3
"""Two independent constructions of the singular series, cross-checked.

The q-sum route accumulates restricted Gauss sums over moduli; the product
route multiplies exact p-adic solution densities obtained by enumeration.
At primes dividing no modulus both routes use the textbook closed forms
(checked against the Gauss sums and the counted densities in the tests);
at the primes dividing a modulus they are built from entirely different
ingredients and must agree: neither construction is trusted alone.
"""

from goldbach3 import (
    classical_ternary_series,
    local_density_factor,
    main_term,
    singular_series_product,
    singular_series_qsum,
    triple,
)


def main():
    N = 100_003
    inst = triple(N, 1, 0, 1, 0, 1, 0)

    print(f"=== convergence of the q-sum, N={N}, no constraints ===")
    print(f"{'q_max':>6}  {'q-sum':>18}  {'|q-sum - product|':>18}")
    product = singular_series_product(inst, 2000)
    for q_max in (1, 10, 50, 200, 1000, 2000):
        qs = singular_series_qsum(inst, q_max)
        print(f"{q_max:>6}  {qs.value:>18.12f}  {abs(qs.value - product.value):>18.3e}")
    print(f"exact-density product at p <= 2000: {product.value:.12f}")
    print(f"classical closed-form product     : {classical_ternary_series(N, 2000):.12f}")

    print("\n=== local densities are exact rationals ===")
    inst9 = triple(9, 1, 0, 1, 0, 1, 0)
    for p in (2, 3, 5, 7):
        s = local_density_factor(inst9, p, 1)
        print(f"  sigma_{p}(N=9) = {s}  (= {float(s):.6f})")
    print("  p=3 divides 9, so its factor drops below 1; p=2 doubles it")

    print("\n=== parity: an even target has no odd-prime representations ===")
    even = triple(10_000, 1, 0, 1, 0, 1, 0)
    print(f"  sigma_2 = {local_density_factor(even, 2, 1)}")
    print(f"  product route: {singular_series_product(even, 200).value}")
    print(f"  q-sum route at q_max=2000: {singular_series_qsum(even, 2000).value:.2e}")

    print("\n=== constrained moduli shift the main term ===")
    con = triple(N, 3, 1, 4, 1, 5, 4)
    s = singular_series_product(con, 2000)
    print(f"  k=(3,4,5), l=(1,1,4): S = {s.value:.10f}")
    print(f"  main term M = N^2 S / (2 phi(3) phi(4) phi(5)) = {main_term(con, s):.6g}")


if __name__ == "__main__":
    main()
