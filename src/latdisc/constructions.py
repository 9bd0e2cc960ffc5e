"""Reference lattice families and exhaustive generator searches.

Three named families recur throughout tests, benchmarks, and the command
line: the 2d Fibonacci lattices (the classical good rank-1 family), scaled
integer lattices (the simplest product family), and a deliberately bad
family whose spectral test stalls at 1/2 no matter how many points are
spent.  korobov_search scans rank-1 generators modulo a prime and returns
the one maximizing the shortest dual vector, i.e. minimizing sigma.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, takewhile
from operator import mul

from . import directed, kernels, reduction
from .errors import CapExceededError, InputError, InvariantViolationError
from .lattice import IntegrationLattice, from_basis, from_rank1

# the most generators one korobov_search scans, as many as the nodes
# lattice.DEFAULT_ENUM_CAP lets a command enumerate
SEARCH_CAP = 10**6


def fibonacci_lattice(m: int) -> IntegrationLattice:
    """Rank-1 lattice with N = F_m points and generator (1, F_{m-1}).

    Uses F_1 = F_2 = 1; m >= 2.  Along this family the spectral test decays
    at the optimal rate N^{-1/2}, which makes it the standard positive
    example in dimension 2.
    """
    if m < 2:
        raise InputError("fibonacci_lattice needs m >= 2")
    a, b = 1, 1
    for _ in range(m - 2):
        a, b = b, a + b
    return from_rank1(b, (1, a))


def scaled_integer_lattice(m: int, d: int) -> IntegrationLattice:
    """The lattice (1/m) Z^d with N = m^d points."""
    if m < 1:
        raise InputError("scaled_integer_lattice needs m >= 1")
    if d < 1:
        raise InputError("dimension must be positive")
    rows = [
        [Fraction(int(i == j), m) for j in range(d)] for i in range(d)
    ]
    return from_basis(rows)


def bad_lattice(m: int, d: int = 2) -> IntegrationLattice:
    """A family whose spectral test never improves.

    The basis is (1/m)-fine along the first d-1 axes but only (1/2)-fine
    along the last, so for m >= 2 the shortest dual vector is twice the last
    axis vector and sigma stays at 1/2 while N = 2 m^{d-1} grows without
    bound.  The isotropic discrepancy of the family is therefore bounded
    away from zero; it is the standard negative example.

    m = 1 is accepted but degenerate: the lattice is Z^{d-1} x (1/2)Z with
    N = 2, a unit axis vector is a shortest dual vector, and sigma = 1.
    """
    if m < 1:
        raise InputError("bad_lattice needs m >= 1")
    if d < 2:
        raise InputError("bad_lattice needs dimension >= 2")
    rows = [
        [Fraction(int(i == j), m) for j in range(d)] for i in range(d - 1)
    ]
    rows.append([Fraction(0)] * (d - 1) + [Fraction(1, 2)])
    return from_basis(rows)


def korobov_lattice(n: int, a: int, d: int) -> IntegrationLattice:
    """Rank-1 lattice with N = n and generator (1, a, a^2, ..., a^{d-1}) mod n."""
    if n < 1:
        raise InputError("n must be positive")
    if a < 1:
        raise InputError("multiplier a must be positive")
    if d < 1:
        raise InputError("dimension must be positive")
    return from_rank1(n, _korobov_generator(n, a, d))


def _korobov_generator(n: int, a: int, d: int) -> list[int]:
    # (1, a, ..., a^{d-1}), every entry after the leading 1 reduced mod n:
    # the 1 stays 1 even at n = 1, where pow(a, 0, n) would be 0
    g = [1]
    for _ in range(d - 1):
        g.append((g[-1] * a) % n)
    return g


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _babai_constants(block) -> tuple:
    # what _unit_row needs of the Gauss block [u, v]: its first two columns,
    # U = ||u||^2, P = <u, v> and the first column U v0 - P u0 of U v*, where
    # v* = v - (P / U) u; all unit rows reduced against one block share them
    (u0, u1), (v0, v1) = block[0][:2], block[1][:2]
    nu, p = u0 * u0 + u1 * u1, u0 * v0 + u1 * v1
    return u0, u1, v0, v1, nu, p, nu * v0 - p * u0


def _unit_row(babai, n: int, c: int, i: int, d: int) -> list[int]:
    # e_i - c e_0 minus the vector of the Gauss block [u, v] that one Babai
    # nearest-plane step finds near (-c, 0): round against v* first, then
    # against u.  The block's determinant is +-n, so the integer vector
    # U v* = U v - P u has squared norm U n^2, and both roundings are exact
    # integer ones (babai is _babai_constants of the block)
    u0, u1, v0, v1, nu, p, w = babai
    b = kernels._round_div(-c * w, n * n)
    a = kernels._round_div(-c * u0 - b * p, nu)
    row = [0] * d
    row[0], row[1], row[i] = -c - b * v0 - a * u0, -b * v1 - a * u1, 1
    return row


def _norm_sq(row) -> int:
    return kernels._dot(row, row)


def _dual_rows_unit_leading(n: int, g) -> list[list[int]]:
    # basis of { h in Z^d : <h, g> == 0 mod n }, valid because g[0] == 1
    # pins h[0] modulo n once the other coordinates are chosen; the first
    # two rows, the dual of (1, g[1]) padded with zeros, come Gauss-reduced,
    # and each row e_i - g[i] e_0 after them comes reduced against that
    # block by _unit_row (d = len(g) >= 2)
    d = len(g)
    rows = [
        row + [0] * (d - 2)
        for row in kernels.gauss_reduce_2d([[n, 0], [-g[1], 1]])
    ]
    babai = _babai_constants(rows)
    rows += [_unit_row(babai, n, g[i], i, d) for i in range(2, d)]
    return rows


def _generators(n: int, d: int, mode: str):
    # strictly increasing lexicographic order, which korobov_search relies on
    if mode == "korobov":
        for a in range(1, n):
            yield _korobov_generator(n, a, d)
    else:
        for tail in product(range(1, n), repeat=d - 1):
            yield [1, *tail]


def _representatives(n: int, d: int, mode: str):
    # the generators g with 2 g[1] <= n, in _generators order; g[1] is the
    # leading free coordinate, so they all come before the first g[1] > n / 2
    return takewhile(lambda g: 2 * g[1] <= n, _generators(n, d, mode))


def _mirror_signs(d: int, mode: str) -> list[int]:
    # the diagonal of D with mirror(g) == D g mod n: (1, -1, 1, ...) for the
    # Korobov generator of n - a, (1, -1, ..., -1) for (1, n - a_2, ...)
    if mode == "korobov":
        return [(-1) ** i for i in range(d)]
    return [1] + [-1] * (d - 1)


def _dual_bases(n: int, d: int, mode: str):
    # (g, basis of the dual lattice of g) for the representatives g, in
    # _generators(n, d, mode) order; korobov_search derives each mirror's.
    # In exhaustive mode the generators sharing a prefix P share its dual
    # basis: dual(P, a) is spanned by the rows of dual(P), each with a 0
    # appended, and (-a, 0, ..., 0, 1), since subtracting h[-1] times that
    # row from any h in dual(P, a) leaves a vector of dual(P) x {0}.  Every
    # basis is built from the Gauss-reduced block of _dual_rows_unit_leading
    # and unit rows reduced against it by _unit_row; at d = 3 the block is
    # the whole prefix basis, reduced once for its n - 1 generators.  The
    # rows are handed over sorted by squared norm, ties in build order (a
    # stable sort): a reduced unit row is often shorter than the block's
    # rows, and LLL would spend its first swaps moving it to the front.  In
    # exhaustive mode at d >= 3 the prefix rows are sorted once, and each
    # generator's unit row goes in after every prefix row no longer than
    # it, the place a stable sort of the prefix rows then the unit row gives
    if mode == "korobov" or d == 2:
        for g in _representatives(n, d, mode):
            yield g, sorted(_dual_rows_unit_leading(n, g), key=_norm_sq)
        return
    for prefix in _representatives(n, d - 1, mode):
        head = [row + [0] for row in _dual_rows_unit_leading(n, prefix)]
        babai = _babai_constants(head)
        head.sort(key=_norm_sq)
        norms = [_norm_sq(row) for row in head]
        for a in range(1, n):
            row = _unit_row(babai, n, a, d - 1, d)
            k = bisect_right(norms, _norm_sq(row))
            yield [*prefix, a], [*head[:k], row, *head[k:]]


@dataclass(frozen=True)
class GeneratorSearchResult:
    """Winner of an exhaustive rank-1 generator search.

    norm_sq is the squared length of the shortest dual vector of the
    winning lattice; sigma_sq = 1 / norm_sq exactly.
    """

    n: int
    dim: int
    mode: str
    generator: tuple
    norm_sq: int
    sigma_sq: Fraction
    sigma_decimal: str
    digits: int
    n_searched: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "mode": self.mode,
            "generator": list(self.generator),
            "norm_sq": str(self.norm_sq),
            "sigma_sq": str(self.sigma_sq),
            "sigma_decimal": self.sigma_decimal,
            "digits": self.digits,
            "n_searched": self.n_searched,
        }


def korobov_search(
    n: int,
    d: int,
    mode: str = "korobov",
    digits: int = directed.DEFAULT_DIGITS,
    svp_cap: int = reduction.DEFAULT_SVP_CAP,
) -> GeneratorSearchResult:
    """Best rank-1 generator modulo a prime n, by exhaustive search.

    mode "korobov" scans the n - 1 generators (1, a, ..., a^{d-1}); mode
    "exhaustive" scans all (n - 1)^(d-1) generators (1, a_2, ..., a_d) and
    is only practical for small n.  A search over more than SEARCH_CAP
    generators is refused with CapExceededError before n is tested for
    primality.  The winner maximizes the squared length of the shortest
    dual vector; ties prefer the lexicographically smallest generator.  The
    winner is re-verified through the full dual + spectral pipeline before
    being returned.

    Generators come in strictly increasing lexicographic order, so a later
    one wins only with a strictly larger minimum: each candidate's SVP gets
    the incumbent's squared norm as `beat` and stops at the first nonzero
    dual vector no longer than that (branch and bound, as in L'Ecuyer and
    Couture's spectral-test search).  The abort reaches into LLL, which
    gives up at entry or after a swap that brings such a vector to the
    front, and hands back the basis it stopped on, that vector first.

    The generators pair up: the mirror m of g is the Korobov generator of
    n - a in korobov mode and (1, n - a_2, ..., n - a_d) in exhaustive
    mode, so m == D g mod n for a diagonal +-1 matrix D, and dual(m) =
    D dual(g) is isometric to dual(g), with the same shortest norm.  The
    search reduces only the representatives, the generators whose second
    coordinate is at most n / 2 (at n = 2 the one generator is its own
    mirror), and handles each mirror right after its twin: it counts as
    searched, and its one LLL call starts from D times the basis the
    twin's LLL returned.  That basis leads with a vector no longer than
    the incumbent when the twin's LLL stopped, and is LLL-reduced
    otherwise, so the mirror never repeats its twin's swaps.  A mirror
    cannot win: it ties its twin, which is lexicographically smaller, so a
    result from it raises InvariantViolationError.

    Every dual basis is built from the Gauss-reduced dual basis of the
    generator's first two coordinates (1, c), so LLL does not redo
    Euclid's algorithm on (n, c) through d x d swaps, and each unit row
    e_i - g_i e_0 comes reduced against that block by one Babai
    nearest-plane step, so the entry check sees the short vectors that
    step finds and rejects most exhaustive candidates.  LLL gets the rows
    sorted by squared norm, so it does not spend its swaps bringing a
    short unit row to the front.  In exhaustive mode with d = 3 the block
    is the whole basis of the prefix (1, a_2), shared by its n - 1
    generators (component by component, as in Sloan and Reztsov), so a
    prefix whose shortest dual vector is already no longer than the
    incumbent costs each of its generators only the entry check.  At every
    d, 2 included, each generator makes exactly one LLL call, and
    re-verifying the winner makes one more.
    """
    if d < 2:
        raise InputError("generator search needs dimension >= 2")
    if mode not in ("korobov", "exhaustive"):
        raise InputError(f"unknown search mode {mode!r}")
    if d > svp_cap:
        raise CapExceededError(f"search in dimension {d} exceeds cap {svp_cap}")
    # (n - 1)^e > SEARCH_CAP once n - 1 >= 2 and e >= SEARCH_CAP.bit_length(),
    # so the exponent is clipped there and no huge power is ever formed
    tail = 1 if mode == "korobov" else d - 1
    if n > 2 and (n - 1) ** min(tail, SEARCH_CAP.bit_length()) > SEARCH_CAP:
        size = f"{n - 1}" if tail == 1 else f"{n - 1}^{tail}"
        raise CapExceededError(
            f"search over {size} generators exceeds cap {SEARCH_CAP}"
        )
    if not _is_prime(n):
        raise InputError(f"generator search needs a prime modulus, got {n}")
    best_norm = None
    best_g = None
    searched = 0
    signs = _mirror_signs(d, mode)
    for g, rows in _dual_bases(n, d, mode):
        searched += 1
        reduced, found = reduction._reduce_and_enumerate(rows, best_norm)
        if found is not None:
            best_norm = found[0]
            best_g = tuple(g)
        if 2 * g[1] == n:
            continue  # n = 2: g is its own mirror
        searched += 1
        mirrored = [list(map(mul, signs, row)) for row in reduced]
        if reduction._reduce_and_enumerate(mirrored, best_norm)[1] is not None:
            raise InvariantViolationError(
                "generator search: a mirror generator beat its twin"
            )
    check = reduction.spectral_test(
        from_rank1(n, best_g), digits=digits, svp_cap=svp_cap
    )
    if check.shortest_dual_norm_sq != best_norm:
        raise InvariantViolationError(
            "generator search disagrees with the spectral test on the winner"
        )
    return GeneratorSearchResult(
        n=n,
        dim=d,
        mode=mode,
        generator=best_g,
        norm_sq=best_norm,
        sigma_sq=Fraction(1, best_norm),
        sigma_decimal=check.sigma_decimal,
        digits=digits,
        n_searched=searched,
    )
