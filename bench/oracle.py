"""Independent count oracle and the output checks built on it.

Nothing here imports afl_lab.  Every expected number is derived from the
signature string alone, by counting exponent vectors, so a report that
agrees with it agrees with a second route, not with a stored copy of an
earlier output.

For a signature with factors P_i^{a_i} of degree d_i and the star pairing
tau on indices (an sp block is its own partner, a cp block is two factors
paired with each other):

* n = sum of the block dimensions, and the divisor lattice has
  prod (a_i + 1) members;
* the subspaces stable under g and tau are the exponent vectors with
  m_i = m_tau(i), of dimension sum m_i d_i;
* A = -sum over them of (-1)^dim * dim;
* the support is Finite exactly when one sp block has odd exponent a_0,
  with degree d_0; then the cardinality is prod_cp (1 + a) * d_0 and the
  derivative is that times (a_0 + 1) / 2;
* the isotropic strata are the vectors with m_i + m_tau(i) <= a_i, and the
  contributing strata number prod_cp (1 + a), each of type d_0.

The eigenline check re-derives the defining polynomial of F_{p^{2t}} (the
smallest monic irreducible by integer encoding) with its own integer
polynomial arithmetic and tests the reported eigenvalues there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Expected:
    n: int
    divisors: int
    stable_by_dim: dict[int, int]
    analytic: int
    support: str  # "Finite" or "Empty"
    closed_card: int | None
    closed_deriv: int | None
    stratum_type: int | None
    multiplicity: int | None
    isotropic_strata: int
    contributing_strata: int


def parse_signature(text: str) -> list[tuple[str, int, int]]:
    blocks = []
    for part in text.split(","):
        kind, deg, exp = part.strip().split(":")
        if kind not in ("sp", "cp") or int(deg) < 1 or int(exp) < 1:
            raise ValueError(f"bad signature block {part!r}")
        blocks.append((kind, int(deg), int(exp)))
    return blocks


def expected_counts(signature: str) -> Expected:
    blocks = parse_signature(signature)
    n = 0
    divisors = 1
    stable = {0: 1}
    isotropic = 1
    pair_product = 1
    odd_sp = []
    for kind, d, a in blocks:
        step = d if kind == "sp" else 2 * d
        n += step * a
        divisors *= (a + 1) if kind == "sp" else (a + 1) ** 2
        grown: dict[int, int] = {}
        for dim, cnt in stable.items():
            for m in range(a + 1):
                grown[dim + step * m] = grown.get(dim + step * m, 0) + cnt
        stable = grown
        if kind == "sp":
            isotropic *= a // 2 + 1
            if a % 2:
                odd_sp.append((d, a))
        else:
            isotropic *= (a + 1) * (a + 2) // 2
            pair_product *= a + 1
    analytic = -sum((-1) ** dim * dim * cnt for dim, cnt in stable.items())
    if len(odd_sp) == 1:
        d0, a0 = odd_sp[0]
        card = pair_product * d0
        return Expected(n, divisors, dict(sorted(stable.items())), analytic, "Finite",
                        card, card * (a0 + 1) // 2, d0, (a0 + 1) // 2, isotropic, pair_product)
    return Expected(n, divisors, dict(sorted(stable.items())), analytic, "Empty",
                    None, None, None, None, isotropic, 0)


def check_afl_report(report: dict, q: int, signature: str) -> list[str]:
    """Every disagreement between a verify report and the oracle, by name."""
    exp = expected_counts(signature)
    bad = []

    def want(name, got, expected):
        if got != expected:
            bad.append(f"{name}: got {got!r}, expected {expected!r}")

    want("verdict", report.get("verdict"), "PASS")
    inst = report.get("instance", {})
    want("p", inst.get("p"), q)
    want("n", inst.get("n"), exp.n)
    want("A", report.get("A"), exp.analytic)
    want("G", report.get("G"), exp.analytic)
    want("support", report.get("support"), exp.support)
    want("closed_card", report.get("closed_card"), exp.closed_card)
    want("closed_deriv", report.get("closed_deriv"), exp.closed_deriv)
    if exp.closed_deriv is not None:
        want("A vs closed derivative", report.get("A"), exp.closed_deriv)
    want("card", report.get("card"), exp.closed_card or 0)
    want("m_counts", report.get("m_counts"), {str(k): v for k, v in exp.stable_by_dim.items()})
    strata = report.get("strata", [])
    want("isotropic strata", len(strata), exp.isotropic_strata)
    contributing = [s for s in strata if s.get("fixed_count")]
    want("contributing strata", len(contributing), exp.contributing_strata)
    for s in contributing:
        want("stratum type", s.get("type"), exp.stratum_type)
        want("stratum fixed_count", s.get("fixed_count"), exp.stratum_type)
        want("stratum multiplicity", s.get("multiplicity"), exp.multiplicity)
        want("stratum dl_count", s.get("dl_count"), s.get("fixed_count"))
    for s in strata:
        if not s.get("fixed_count"):
            want("silent stratum dl_count", s.get("dl_count"), None)
    return bad


# ---------------------------------------------------------------------------
# F_p[x] arithmetic on little-endian int lists, for the eigenline check


def _trim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    out = [c % p for c in out]
    return _reduce(out, f, p)


def _reduce(a, f, p):
    a = _trim(list(a))
    d = len(f) - 1
    while len(a) > d:
        c = a[-1]
        k = len(a) - 1 - d
        for j, fj in enumerate(f):
            a[k + j] = (a[k + j] - c * fj) % p
        _trim(a)
    return a


def _powmod(a, e, f, p):
    result, base = [1], _reduce(a, f, p)
    while e:
        if e & 1:
            result = _mulmod(result, base, f, p)
        base = _mulmod(base, base, f, p)
        e >>= 1
    return result


def _gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _reduce(a, [c * pow(b[-1], -1, p) % p for c in b], p)
    return a


@lru_cache(maxsize=None)
def defining_poly(p: int, degree: int) -> tuple[int, ...]:
    """Smallest monic irreducible of the degree, scanning sum(c_i p^i) upward;
    irreducible iff gcd(x^{p^k} - x, f) = 1 for every k <= degree / 2."""
    for enc in range(p**degree):
        f = [(enc // p**i) % p for i in range(degree)] + [1]
        h = [0, 1]
        for _ in range(degree // 2):
            h = _powmod(h, p, f, p)
            diff = h + [0] * (2 - len(h))
            diff[1] = (diff[1] - 1) % p
            if len(_gcd(diff, f, p)) > 1:
                break
        else:
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


def check_dl_payload(payload: dict, q: int, t: int) -> list[str]:
    """count = t, Galois transitivity, and t distinct norm-one eigenvalues that
    form one orbit of the q^2-Frobenius in F_{q^{2t}}."""
    bad = []
    if payload.get("count") != t:
        bad.append(f"count: got {payload.get('count')!r}, expected {t}")
    if payload.get("galois_transitive") is not True:
        bad.append("galois_transitive is not true")
    eig = [tuple(e) for e in payload.get("eigenvalue_orbit", [])]
    if len(set(eig)) != t or any(len(e) != 2 * t for e in eig):
        bad.append(f"expected {t} distinct eigenvalues at level {2 * t}")
        return bad
    f = list(defining_poly(q, 2 * t))
    elems = {tuple(_trim(list(e))) for e in eig}
    orbit: set[tuple[int, ...]] = set()
    cur = _trim(list(eig[0]))
    while tuple(cur) not in orbit:
        orbit.add(tuple(cur))
        cur = _powmod(cur, q * q, f, q)
    if orbit != elems:
        bad.append("eigenvalues are not one q^2-Frobenius orbit")
    if any(_powmod(list(e), q**t + 1, f, q) != [1] for e in elems):
        bad.append("an eigenvalue is not of norm one")
    return bad
