"""Counting sequences and asymptotics for interleaved runs.

Everything exact is integer or Fraction arithmetic.  The asymptotics and the
constant L return an Approx carrying a certified or heuristic error bound, and
geometric_mean_width a Decimal within a stated relative bound, all computed in
the standard library's decimal arithmetic (its exp, ln and sqrt are
correctly rounded).  The factorially large values here (run counts easily
exceed 10^36 by n = 40) stay exact, which is the point of the package.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import compress
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:  # annotations only: running counts does not run trees
    from .trees import SyntaxTree


class Approx(NamedTuple):
    """An estimate with an absolute error bound, both Decimal numbers.

    certified=True means the bound is proven (interval reasoning), otherwise
    it is the truncation-order heuristic of an asymptotic series.  The
    estimates are computed with the widest exponent range decimal allows,
    so values far past the float range stay finite.  ``x in a`` compares x
    (an int, Fraction, float or Decimal) exactly, through Fraction; str(a)
    prints the value to 12 significant digits and the bound to 3.
    """

    value: Decimal
    abs_error: Decimal
    certified: bool = False

    def __contains__(self, x) -> bool:
        return abs(Fraction(x) - Fraction(self.value)) <= Fraction(self.abs_error)

    def __str__(self) -> str:
        tag = "+-" if self.certified else "~"
        return f"{self.value:.12g} ({tag}{self.abs_error:.3g})"


# the working precision of the asymptotic estimates and of log_constant_L,
# in significant digits, and pi to 60 of them
_DIGITS = 34
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _context(digits: int) -> Context:
    """A decimal context of the given precision whose exponent range is the
    widest libmpdec allows: n! / 2^(n-1) passes 1e308 at n = 197."""
    return Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _product(factors: Sequence[int]) -> int:
    """Balanced product of small factors.

    Runs of 64 are multiplied in turn, then the partial products pairwise,
    which keeps the big operands of comparable size.
    """
    items = [math.prod(factors[i:i + 64]) for i in range(0, len(factors), 64)]
    while len(items) > 1:
        items = [math.prod(items[i:i + 2]) for i in range(0, len(items), 2)]
    return items[0] if items else 1


def catalan(n: int) -> int:
    """Number of distinct process shapes with n actions: Catalan(n-1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.comb(2 * n - 2, n - 1) // n


def increasing_count(n: int) -> int:
    """Total runs over all shapes of size n: (2n-2)! / (2^(n-1) (n-1)!)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.factorial(2 * n - 2) // (2 ** (n - 1) * math.factorial(n - 1))


def _ratio(factors: Sequence[int], top: int, bottom: int) -> tuple[int, int]:
    """(top! / bottom!) / prod(factors) in lowest terms, as (num, den).

    Every factor is at least 1 and 0 <= bottom <= top; the primes run up to
    the largest of top and the factors.  Legendre's prime-exponent ledger
    (Borwein 1985): tally the factors once, read each prime's net exponent
    as the sum over k of floor(top / p^k) - floor(bottom / p^k) less the
    tally at the multiples of p^k, and build each side as a product of
    prime powers.  A prime lands on one side only, so the pair is coprime
    without a gcd, and no big integer is ever divided.
    """
    limit = max(top, max(factors, default=0))
    tally = [0] * (limit + 1)
    for f in factors:
        tally[f] += 1
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    primes = list(compress(range(limit + 1), sieve))
    exponents = []
    for p in primes:
        e, q = 0, p
        while q <= limit:
            e += top // q - bottom // q - sum(tally[q::q])
            q *= p
        exponents.append(e)
    num = _prime_power_product(primes, exponents)
    if min(exponents, default=0) >= 0:
        return num, 1
    return num, _prime_power_product(primes, [-e for e in exponents])


def _prime_power_product(primes: list[int], exponents: list[int]) -> int:
    """prod p**e over the primes whose exponent e is positive.

    primes ascend from 2.  Square-and-multiply over the exponent bits, most
    significant first: each step squares the running value and multiplies
    in the balanced product of the primes whose exponent has that bit set.
    The power of two is one shift.
    """
    if not primes:
        return 1
    shift, odd = max(exponents[0], 0), exponents[1:]
    top = max(max(odd, default=0), 0)
    layers: list[list[int]] = [[] for _ in range(top.bit_length())]
    for p, e in zip(primes[1:], odd):
        i = 0
        while e > 0:
            if e & 1:
                layers[i].append(p)
            e >>= 1
            i += 1
    out = 1
    for layer in reversed(layers):
        out = out * out * _product(layer)
    return out << shift


def hook_count(t: SyntaxTree) -> int:
    """Number of complete runs of t: n! / prod |T(v)| over the subtree sizes.

    The quotient is exact: the subtree of every action must finish after
    its root starts, and the hook formula counts the valid interleavings.
    It goes through the prime-exponent kernel as _ratio(sizes, n, 0),
    so no big integer is divided.  The count command checks it by the run
    probability method mod 2^61 - 1, in word-size arithmetic that shares
    none of this; the tests hold it to a residue oracle.
    """
    sizes = t.subtree_sizes()
    n = len(sizes)
    num, den = _ratio(sizes, n, 0)
    assert den == 1
    return num


def mean_width(n: int) -> Fraction:
    """Average run count over the uniform shape of size n: n! / 2^(n-1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Fraction(math.factorial(n), 2 ** (n - 1))


def mean_width_asymptotic(n: int) -> Approx:
    """Stirling estimate 2 sqrt(2 pi n) (n / 2e)^n of the average run count."""
    if n < 1:
        raise ValueError("n must be at least 1")
    with localcontext(_context(_DIGITS)):
        x = Decimal(n)
        val = 2 * (2 * _PI * x).sqrt() * (x / (2 * Decimal(1).exp())) ** n
        # Stirling underestimates by the factor exp(theta/12n), theta in (0, 1),
        # and exp(1/12n) - 1 < 1/(11n) for every n >= 1, so this bound is proven
        return Approx(val, val / (11 * n), certified=True)


def mean_level_width(n: int, i: int) -> Fraction:
    """Average number of run prefixes that leave exactly i actions pending.

    i counts levels from the deepest one: i = 0 is complete runs, i = n - 1
    is the single starting prefix.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= i <= n - 1:
        raise ValueError("level index must be in 0..n-1")
    num = (2 ** i * math.factorial(2 * n - 2 * i - 1)
           * math.factorial(n - 1) * math.factorial(n))
    den = (math.factorial(2 * n - i - 1) * math.factorial(n - i - 1)
           * 2 ** (n - 1) * math.factorial(i))
    return Fraction(num, den)


_MEAN_SIZE_CACHE: list[Fraction] = [Fraction(0), Fraction(1), Fraction(2)]


def mean_size(n: int) -> Fraction:
    """Average node count of the computation tree over shapes of size n.

    Unrolls a four-term linear recurrence with the cached prefix; the tests
    hold it against the sum of the per-level averages mean_level_width.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cache = _MEAN_SIZE_CACHE
    while len(cache) <= n:
        k = len(cache) - 3  # recurrence offset: computes term k+3
        a0 = 2 * k ** 4 + 12 * k ** 3 + 22 * k ** 2 + 12 * k
        a1 = 4 * k ** 4 + 32 * k ** 3 + 87 * k ** 2 + 87 * k + 18
        a2 = 2 * k ** 4 + 24 * k ** 3 + 85 * k ** 2 + 106 * k + 39
        a3 = 4 * k ** 3 + 20 * k ** 2 + 31 * k + 15
        cache.append((a0 * cache[k] - a1 * cache[k + 1] + a2 * cache[k + 2]) / a3)
    return cache[n]


def cumulative_size(n: int) -> int:
    """Total computation-tree nodes summed over all shapes of size n (integer)."""
    if n < 1:
        return 0
    total = mean_size(n) * catalan(n)
    assert total.denominator == 1
    return total.numerator


def r_sequence(N: int) -> list[Fraction]:
    """Normalized sizes R_n = mean_size(n) 2^(n-1) / n! for n = 0..N.

    The scale 2^(n-1) / n! steps by 2 / (n + 1) from n to n + 1; the tests
    hold the result to R_n's own recurrence.
    """
    if N < 3:
        raise ValueError("need N >= 3")
    r, scale = [], Fraction(1, 2)
    for n in range(N + 1):
        r.append(mean_size(n) * scale)
        scale = scale * 2 / (n + 1)
    return r


def asymptotic_size(n: int) -> Approx:
    """Third-order asymptotic for the average computation-tree size."""
    if n < 1:
        raise ValueError("n must be at least 1")
    with localcontext(_context(_DIGITS)):
        x, e = Decimal(n), Decimal(1).exp()
        series = 2 + 2 / (3 * x) + 49 / (36 * x ** 2) + 27449 / (6480 * x ** 3)
        val = e * (2 * _PI * x).sqrt() * (x / (2 * e)) ** n * series
        # heuristic: next omitted term of the bracket, empirically ~20/n^4
        return Approx(val, val / series * 20 / x ** 4, certified=False)


# catalan(k) at index k, and ln k in fixed point (round(ln k 10^d)) at index
# k per number d of fractional digits: exact or fixed by d, so sharing them
# across calls changes no result; they grow on demand, so a run of indices
# computes each entry once
_CATALANS: list[int] = [0]
_LOGS: dict[int, list[int]] = {}


def geometric_mean_width(n: int, precision: int = 80) -> Decimal:
    """Geometric mean of run counts over shapes of size n.

    Product over k of k^(1 - e_k) where e_k is the expected number of
    subtrees of size k hanging in a uniform shape; exact identity with the
    brute-force geometric mean.  e_k = w_k / (2 catalan(n)) with the integer
    weight w_k = (n + 1 - k) catalan(k) catalan(n - k + 1), so the exponent
    sum(ln k) - sum(w_k ln k) / (2 catalan(n)) is one integer dot product
    of the weights with ln k in fixed point and one floor division; no
    weight is ever converted to a Decimal.  w_k and w_(n+1-k) share the
    product catalan(k) catalan(n + 1 - k), so it is taken once per pair.

    precision is in bits.  ln k is kept to d fractional digits, where d is
    ceil((precision + 20) log10 2) plus the digit count of 2n: each is off
    by at most 0.55 units of 10^-d, and the sum of |1 - e_k| is below 2n,
    so the exponent is off by less than 2n units.  The result is its exp
    rounded to d significant digits, with a relative error below
    2^-(precision + 19).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    c = _CATALANS
    while len(c) <= n:
        c.append(catalan(len(c)))
    d = math.ceil((precision + 20) * math.log10(2)) + len(str(2 * n))
    logs = _LOGS.setdefault(d, [0, 0])
    ctx = _context(d + 3)  # ln k < 100: rounded within 0.05 units of 10^-d
    while len(logs) < n:
        logs.append(round(ctx.scaleb(ctx.ln(len(logs)), d)))
    dot = sum(c[k] * c[n + 1 - k] * ((n + 1 - k) * logs[k] + k * logs[n + 1 - k])
              for k in range(2, n // 2 + 1))
    if n % 2:  # the middle index pairs with itself
        h = (n + 1) // 2
        dot += h * c[h] ** 2 * logs[h]
    exponent = sum(logs[2:n]) - dot // (2 * c[n])
    return _context(d).exp(Decimal(f"{exponent}e-{d}"))


def _smallest_prime_factors(limit: int) -> list[int]:
    """The least prime factor of each m in 2..limit, at index m (m itself
    for a prime).  Each p from sqrt(limit) down to 2 writes itself over its
    multiples from p^2 on, so the smallest divisor of m writes last."""
    spf = list(range(limit + 1))
    for p in range(math.isqrt(limit), 1, -1):
        spf[p * p::p] = [p] * len(range(p * p, limit + 1, p))
    return spf


def log_constant_L(target_abs_error: float = 1e-6) -> Approx:
    """The run-count log-scale constant: sum over n >= 2 of ln(n) C_n 4^(-n).

    Returns a certified enclosure midpoint.  The head up to a cutoff N is
    summed with the term ratio recurrence, ln n read off a smallest prime
    factor table as ln p + ln(n / p).  The tail is bracketed in closed form:
    with m = x - 1, C_x 4^(-x) = binom(2m, m) 4^(-m) / (4x), and the central
    binomial bounds 1/sqrt(pi (m + 1/3)) < binom(2m, m) 4^(-m) <=
    1/sqrt(pi (m + 1/4)) put each tail term between ln x / (4x sqrt(pi
    (x - 2/3))) and ln x / (4x sqrt(pi (x - 3/4))).  Below, sqrt(x - 2/3) <
    sqrt(x); above, sqrt(x - 3/4) >= sqrt(x) (1 - 3/(4N))^(1/2) for x >= N.
    Both resulting bounds decrease, so the tail lies between their
    integrals from N + 1 and from N, and
    integral from a to inf of ln x x^(-3/2) dx = 2 a^(-1/2) (ln a + 2)
    gives (ln(N + 1) + 2) / (2 sqrt(pi (N + 1))) below and
    (ln N + 2) / (2 sqrt(pi (N - 3/4))) above.

    The cutoffs are 10^4, 4 10^4 and 1.6 10^5, where the half-width is
    1.2e-6, 1.8e-7 and 2.5e-8; the first that meets the target is used.
    Every decimal step rounds by a relative u = 10^(1 - prec) / 2 at most:
    a head term carries fewer than 2n + 20 such roundings and the running
    sum one per step, on values below 0.6, so the half-width adds 4 N u
    for them and for the tails' few.
    """
    if target_abs_error < 1e-7:
        raise ValueError("target_abs_error below 1e-7 is not supported")
    with localcontext(_context(_DIGITS)):
        head, g = Decimal(0), Decimal("0.0625")  # g: the n = 2 weight C_2 4^(-2)
        logs = [Decimal(0)] * 2  # ln n at index n
        n = 2
        for cutoff in (10_000, 40_000, 160_000):
            spf = _smallest_prime_factors(cutoff)
            while n <= cutoff:
                p = spf[n]
                logs.append(Decimal(n).ln() if p == n else logs[p] + logs[n // p])
                head += logs[n] * g
                g = g * (2 * n - 1) / (2 * n + 2)
                n += 1
            tail_lo = (Decimal(cutoff + 1).ln() + 2) / (2 * (_PI * (cutoff + 1)).sqrt())
            tail_hi = (logs[cutoff] + 2) / (2 * (_PI * (cutoff - Decimal("0.75"))).sqrt())
            mid = head + (tail_lo + tail_hi) / 2
            half = (tail_hi - tail_lo) / 2 + Decimal(2 * cutoff).scaleb(1 - _DIGITS)
            if half <= target_abs_error:
                return Approx(mid, half, certified=True)
    raise ArithmeticError(
        f"enclosure width {float(half):.3g} misses target {target_abs_error:.3g}")


def nonplane_count(n: int) -> int:
    """Shapes of size n when sibling order is ignored (unordered trees)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    t = _nonplane_table(n)
    return t[n]


def _nonplane_table(n: int) -> list[int]:
    """[0, t_1, ..., t_n]: rooted unordered trees by node count.

    The Euler transform of itself, (m) t_{m+1} = sum_k c_k t_{m+1-k} with
    c_m = sum over d | m of d t_d.  Each t_d is pushed onto the divisor
    sums of its multiples once it is known, a sieve instead of a divisor
    scan for every m.
    """
    t = [0, 1] + [0] * max(n - 1, 0)
    c = [0] * n
    for m in range(1, n):
        dt = m * t[m]
        for j in range(m, n, m):
            c[j] += dt
        t[m + 1] = sum(c[k] * t[m + 1 - k] for k in range(1, m + 1)) // m
    return t

