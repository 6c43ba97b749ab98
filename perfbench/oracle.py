"""Reference factorizations for the output checks, computed with sympy.

Reads a JSON list of {"p": p, "core": [c0, c1, ...]} on stdin (p = 0 for
the rationals) and writes, for each, the sorted degrees of the distinct
irreducible factors of c0 + c1 t + ... .  It runs in its own process so
that sympy never enters the process whose memory and imports are measured.
"""

import json
import sys

import sympy


def factor_degrees(p, core):
    t = sympy.Symbol("t")
    coeffs = list(reversed(core))
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) <= 1:
        return []
    poly = sympy.Poly(coeffs, t, modulus=p) if p else sympy.Poly(coeffs, t, domain="QQ")
    return sorted(f.degree() for f, _ in poly.factor_list()[1])


def main():
    queries = json.load(sys.stdin)
    json.dump([factor_degrees(q["p"], q["core"]) for q in queries], sys.stdout)


if __name__ == "__main__":
    main()
