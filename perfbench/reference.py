"""Independent reference integers for the benchmark's correctness checks.

The coefficients of Q^(+/-1) are recomputed here without any qsign code.
The Jacobi triple product with p = q^10 gives

    (q;p)(q^9;p)(p;p)     = sum_k (-1)^k q^(5k^2 - 4k)
    (q^3;p)(q^7;p)(p;p)   = sum_k (-1)^k q^(5k^2 - 2k)

so the (p;p) factors cancel and Q = A/B is a quotient of two sparse series
with O(sqrt N) terms each; sparse long division costs O(N^1.5).

The sign pattern and the vanishing indices are the paper's statement, kept
here as literals so that they can be compared with qsign's own constants.
"""

from __future__ import annotations

# Signs of c_delta(n) by n mod 10, as printed in the paper.
SIGN_PATTERN = {1: "+-++--+--+", -1: "++++-----+"}

# Indices where c_delta(n) vanishes, as printed in the paper.
PAPER_ZEROS = {
    1: frozenset({2, 5, 7, 9, 15, 17, 22, 27, 37, 47}),
    -1: frozenset({3, 4, 5, 6, 9, 13, 19, 23, 29, 39}),
}


def _sparse_theta(shift: int, order: int) -> list[tuple[int, int]]:
    """Nonzero terms (exponent, coefficient) of sum_k (-1)^k q^(5k^2 - shift*k)."""
    terms: dict[int, int] = {}
    k = 0
    while 5 * k * k - shift * k <= order:
        sign = -1 if k % 2 else 1
        for e in {5 * k * k - shift * k, 5 * k * k + shift * k}:
            if e <= order:
                terms[e] = terms.get(e, 0) + sign
        k += 1
    return sorted((e, c) for e, c in terms.items() if c)


def quotient_coeffs(delta: int, order: int) -> list[int]:
    """c_delta(0..order) by sparse long division of the two theta series."""
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    a = _sparse_theta(4, order)
    b = _sparse_theta(2, order)
    num, den = (a, b) if delta == 1 else (b, a)
    if den[0] != (0, 1):
        raise ValueError("denominator must start with 1")
    num_at = dict(num)
    den_tail = den[1:]
    out = [0] * (order + 1)
    for m in range(order + 1):
        acc = num_at.get(m, 0)
        for e, c in den_tail:
            if e > m:
                break
            acc -= c * out[m - e]
        out[m] = acc
    return out


def verdict_string(delta: int, coeffs: list[int]) -> str:
    """One letter per index in qsign's report alphabet: P/N sign as the
    pattern predicts, Z a listed zero, X anything else."""
    pattern = SIGN_PATTERN[delta]
    zeros = PAPER_ZEROS[delta]
    out = []
    for n, c in enumerate(coeffs):
        if c == 0:
            out.append("Z" if n in zeros else "X")
        elif (c > 0) == (pattern[n % 10] == "+"):
            out.append("P" if c > 0 else "N")
        else:
            out.append("X")
    return "".join(out)


def checked_references(order: int, qsign_zero_exceptions) -> dict[int, list[int]]:
    """Reference integers for both signs, after checking that they agree
    with the paper's pattern and zero sets and with qsign's zero sets.

    Raises ValueError when the references disagree with each other, so
    that a benchmark never reports against an inconsistent reference.
    """
    refs = {}
    for delta in (1, -1):
        coeffs = quotient_coeffs(delta, order)
        verdicts = verdict_string(delta, coeffs)
        if "X" in verdicts:
            raise ValueError(f"reference for delta={delta} breaks the paper's sign pattern at n={verdicts.index('X')}")
        found = {n for n, c in enumerate(coeffs) if c == 0}
        expected = {n for n in PAPER_ZEROS[delta] if n <= order}
        if found != expected:
            raise ValueError(f"reference zeros {sorted(found)} differ from the paper's {sorted(expected)}")
        if frozenset(qsign_zero_exceptions[delta]) != PAPER_ZEROS[delta]:
            raise ValueError(f"qsign's ZERO_EXCEPTIONS[{delta}] differs from the paper's zero set")
        refs[delta] = coeffs
    return refs
