"""Both sides of the counting identities, their closed forms, and verdicts.

The analytic side is the alternating-weighted count over the set of
subspaces stable under both g and tau,

    A = - sum_{W} (-1)^{dim W} dim W,

enumerated through divisor exponent vectors fixed by the star pairing.  The
geometric side walks every g-invariant totally isotropic W (isotropy decided
by the actual Gram matrix, never inferred from the signature), forms the
subquotient W-perp/W, and contributes type * (a+1)/2 exactly when the
subquotient characteristic polynomial is irreducible; the per-stratum fixed
count can be re-derived by the eigenline counter, and a disagreement there
is a hard error, not a finding.  The geometric walk and the even-dimensional
counting identity each take the lattice once, from
linalg.invariant_subspaces, as row sets of one chain-adapted basis: every W
and W-perp is a set of its rows and every subquotient a slice of H and g
written in it (hermitian.adapted_basis).  The analytic side reads the
divisor exponent vectors alone.

Support (whether the geometric side can be nonempty) has a closed-form
criterion: a unique self-paired factor of odd exponent.  The engine never
feeds that criterion into the geometric walk, so the criterion itself is
verified in both directions on every instance.

Everything is an exact integer; log q is factored out of all identities,
and the p-adic inputs ell(gamma) and omega(gamma) are carried symbolically
(default ell = 0) with the dependence stated in the report notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dl import dl_fixed_points
from .errors import CrossCheckError, InputError
from .forge import MinusculeInstance, serialize_instance
from .hermitian import adapted_basis, induced_subquotient
from .linalg import charpoly, invariant_subspaces
from .poly import Poly, FactoredPoly, divisor_exponents, poly_key

SIGN_NOTE = (
    "sign convention pinned to sum(mult) = -sum((-1)^l l); the orbital derivative "
    "carries the extra factor (-1)^(ell_gamma+1), and omega(gamma), log q are "
    "external symbolic inputs"
)
ELL_NOTE = "ell_gamma is not derivable from the finite data; reports use ell_gamma = 0"


@dataclass(frozen=True)
class ScriptW:
    """Exponent vectors (with dimensions) of the g- and tau-stable subspaces."""

    members: tuple[tuple[tuple[int, ...], int], ...]

    def dims(self) -> list[int]:
        return [d for _, d in self.members]


def _degrees(fact: FactoredPoly) -> list[int]:
    return [f.degree for f, _ in fact.factors]


def script_w(inst: MinusculeInstance) -> ScriptW:
    """Divisor vectors fixed under the star pairing, i.e. m_{tau(i)} = m_i."""
    degs = _degrees(inst.fact)
    members = []
    for vec in divisor_exponents(inst.fact):
        if all(vec[j] == vec[i] for i, j in enumerate(inst.fact.pairing)):
            members.append((vec, sum(m * d for m, d in zip(vec, degs))))
    return ScriptW(tuple(members))


def m_counts(sw: ScriptW, n: int) -> dict[int, int]:
    counts = {i: 0 for i in range(n + 1)}
    for _, d in sw.members:
        counts[d] += 1
    return counts


def _analytic(sw: ScriptW) -> int:
    return -sum((-1) ** d * d for d in sw.dims())


def _alternating(sw: ScriptW) -> int:
    return sum((-1) ** d for d in sw.dims())


def analytic_count(inst: MinusculeInstance) -> int:
    """A = -sum_W (-1)^{dim W} dim W over the g- and tau-stable subspaces."""
    if inst.n % 2 == 0:
        raise InputError("the analytic count lives on odd dimensions")
    return _analytic(script_w(inst))


def alternating_sum(inst: MinusculeInstance) -> int:
    return _alternating(script_w(inst))


def afl_support(fact: FactoredPoly):
    """Index of the unique self-paired odd-exponent factor, or None."""
    odd_selfpaired = [i for i in fact.self_paired() if fact.factors[i][1] % 2 == 1]
    return odd_selfpaired[0] if len(odd_selfpaired) == 1 else None


def pair_exponent_product(fact: FactoredPoly) -> int:
    out = 1
    for i, _ in fact.pairs():
        out *= 1 + fact.factors[i][1]
    return out


def closed_form_cardinality(fact: FactoredPoly) -> int:
    """prod over pairs (1 + a_i) times deg P_{i0}."""
    i0 = afl_support(fact)
    if i0 is None:
        raise InputError("closed forms require finite support")
    return pair_exponent_product(fact) * fact.factors[i0][0].degree


def closed_form_derivative_magnitude(fact: FactoredPoly) -> int:
    """prod over pairs (1 + a_i) times deg P_{i0} times (a_{i0} + 1)/2."""
    i0 = afl_support(fact)
    if i0 is None:
        raise InputError("closed forms require finite support")
    a0 = fact.factors[i0][1]
    return pair_exponent_product(fact) * fact.factors[i0][0].degree * ((a0 + 1) // 2)


# ---------------------------------------------------------------------------
# geometric side


@dataclass(frozen=True)
class StratumRecord:
    exponents: tuple[int, ...]
    dim_w: int
    type: int  # dim of W-perp/W
    quotient_charpoly: Poly
    fixed_count: int  # 0 or type
    multiplicity: int | None  # (a_{i0}+1)/2 on contributing strata
    dl_count: int | None  # eigenline recount when cross-checking

    def to_json(self):
        return {
            "exponents": list(self.exponents),
            "dim_w": self.dim_w,
            "type": self.type,
            "quotient_charpoly": self.quotient_charpoly.to_json(),
            "fixed_count": self.fixed_count,
            "multiplicity": self.multiplicity,
            "dl_count": self.dl_count,
        }


@dataclass(frozen=True)
class GeometricResult:
    strata: tuple[StratumRecord, ...]
    total: int
    nonempty: bool

    def brute_cardinality(self) -> int:
        return sum(rec.fixed_count for rec in self.strata)


def geometric_count(inst: MinusculeInstance, cross_check: bool = True) -> GeometricResult:
    """Walk the vertex strata: isotropic g-invariant W, actual-Gram isotropy,
    each W and W-perp a row set of the adapted basis and W-perp/W a slice.

    A stratum contributes type * multiplicity when the subquotient charpoly
    is irreducible (equivalently: equals one of the P_i).  With cross_check
    the eigenline counter recounts each contributing stratum, and any
    disagreement raises CrossCheckError.
    """
    if inst.n % 2 == 0:
        raise InputError("the geometric count lives on odd dimensions")
    exponent_of = {poly_key(f): a for f, a in inst.fact.factors}
    strata = []
    total = 0
    basis = adapted_basis(invariant_subspaces(inst.g, inst.fact), inst.space, inst.g)
    for vec, w in sorted(basis.coords.items()):
        if not basis.isotropic(vec):
            continue
        quotient_space, quotient_m = induced_subquotient(basis, vec)
        t = quotient_space.dim
        qcp = charpoly(quotient_m)
        a0 = exponent_of.get(poly_key(qcp))
        fixed, mult, dl_count = 0, None, None
        if a0 is not None:
            if a0 % 2 == 0:
                raise CrossCheckError("contributing stratum with even global exponent")
            fixed = t
            mult = (a0 + 1) // 2
            if cross_check:
                dl_count = len(dl_fixed_points(quotient_space, quotient_m, seed=inst.seed))
                if dl_count != fixed:
                    raise CrossCheckError(
                        f"eigenline count {dl_count} disagrees with the formula count {fixed}"
                    )
            total += fixed * mult
        strata.append(StratumRecord(vec, len(w), t, qcp, fixed, mult, dl_count))
    return GeometricResult(tuple(strata), total, any(r.fixed_count for r in strata))


# ---------------------------------------------------------------------------
# orbital polynomial and the even-dimensional counting identity


def orbital_polynomial(inst: MinusculeInstance, ell_gamma: int = 0) -> dict[int, int]:
    """Coefficients of the orbital integral as a Laurent polynomial in u = q^{-s}.

    The coefficient of u^{i + ell_gamma} is (-1)^{i + ell_gamma} |M_i| where
    |M_i| counts the stable subspaces of dimension i.
    """
    return _orbital(m_counts(script_w(inst), inst.n), ell_gamma)


def _orbital(counts: dict[int, int], ell_gamma: int) -> dict[int, int]:
    coeffs: dict[int, int] = {}
    for i, cnt in counts.items():
        if cnt:
            e = i + ell_gamma
            coeffs[e] = coeffs.get(e, 0) + (-1) ** e * cnt
    return {e: c for e, c in sorted(coeffs.items()) if c}


def orbital_value_at_one(coeffs: dict[int, int]) -> int:
    return sum(coeffs.values())

def orbital_derivative_at_one(coeffs: dict[int, int]) -> int:
    return sum(e * c for e, c in coeffs.items())


def orbital_pretty(coeffs: dict[int, int]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for e, c in sorted(coeffs.items()):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            u = "u" if e == 1 else f"u^{e}"
            body = u if mag == 1 else f"{mag}{u}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def fl_check(inst: MinusculeInstance) -> tuple[int, int]:
    """Even-dimensional counting identity: alternating sum over the stable
    subspaces against the number of invariant Lagrangians (W-perp = W)."""
    if inst.n % 2:
        raise InputError("the counting identity lives on even dimensions")
    lhs = alternating_sum(inst)
    half = inst.n // 2
    basis = adapted_basis(invariant_subspaces(inst.g, inst.fact), inst.space, inst.g)
    rhs = sum(1 for vec, w in basis.coords.items() if len(w) == half and basis.perp(vec) == w)
    return lhs, rhs


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    instance: MinusculeInstance
    analytic: int
    geometric: GeometricResult
    support: str  # "Finite" | "Empty"
    closed_card: int | None
    closed_deriv: int | None
    counts: dict[int, int]
    alt_sum: int
    orbital: dict[int, int]
    checks: tuple[Check, ...]
    notes: tuple[str, ...] = field(default=())

    @property
    def verdict(self) -> str:
        return "PASS" if all(c.ok for c in self.checks) else "FAIL"

    def to_json(self) -> dict:
        deriv = orbital_derivative_at_one(self.orbital)
        return {
            "instance": serialize_instance(self.instance),
            "A": self.analytic,
            "G": self.geometric.total,
            "card": self.geometric.brute_cardinality(),
            "closed_card": self.closed_card,
            "closed_deriv": self.closed_deriv,
            "support": self.support,
            "strata": [rec.to_json() for rec in self.geometric.strata],
            "m_counts": {str(k): v for k, v in self.counts.items() if v},
            "alt_sum": self.alt_sum,
            "orbital": {
                "ell_gamma": 0,
                "coeffs": {str(e): c for e, c in self.orbital.items()},
                "value_at_1": orbital_value_at_one(self.orbital),
                "derivative_at_1": deriv,
                "analytic_from_derivative": -deriv,
            },
            "verdict": self.verdict,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks],
            "notes": list(self.notes),
            "seed": self.instance.seed,
        }


def afl_verdict(inst: MinusculeInstance, cross_check: bool = True) -> VerificationReport:
    """Run every identity on one odd-dimensional instance and render a verdict.

    Identity failures become failed checks inside the report, never
    exceptions: hunting for convention errors and boundary cases is part of
    the artifact's purpose.
    """
    if inst.n % 2 == 0:
        raise InputError("verdicts are for odd-dimensional instances; use fl_check")
    fact = inst.fact
    sw = script_w(inst)
    a_count = _analytic(sw)
    geo = geometric_count(inst, cross_check=cross_check)
    i0 = afl_support(fact)
    support = "Finite" if i0 is not None else "Empty"
    counts = m_counts(sw, inst.n)
    alt = _alternating(sw)
    orb = _orbital(counts, 0)

    checks = [Check("analytic_equals_geometric", a_count == geo.total, f"A={a_count} G={geo.total}")]
    if i0 is not None:
        card = closed_form_cardinality(fact)
        deriv = closed_form_derivative_magnitude(fact)
        contributing = [r for r in geo.strata if r.fixed_count]
        checks.append(Check("support_agreement", geo.nonempty, "closed form predicts nonempty"))
        checks.append(
            Check("cardinality_closed_form", geo.brute_cardinality() == card,
                  f"brute {geo.brute_cardinality()} vs closed {card}")
        )
        checks.append(Check("derivative_closed_form", a_count == deriv and geo.total == deriv,
                            f"A={a_count} G={geo.total} closed {deriv}"))
        type0 = fact.factors[i0][0].degree
        checks.append(Check("stratum_types", all(r.type == type0 for r in contributing),
                            f"expected type {type0}"))
        checks.append(Check("stratum_count", len(contributing) == pair_exponent_product(fact),
                            f"{len(contributing)} vs {pair_exponent_product(fact)}"))
    else:
        card = deriv = None
        checks.append(Check("support_agreement", not geo.nonempty, "closed form predicts empty"))
        checks.append(Check("vanishing_counts", a_count == 0 and geo.total == 0,
                            f"A={a_count} G={geo.total}"))
    checks.append(Check("alternating_sum_zero", alt == 0, f"sum (-1)^dim = {alt}"))
    checks.append(
        Check("duality_m_counts", all(counts[i] == counts[inst.n - i] for i in counts),
              "dimension counts symmetric under i -> n-i")
    )
    checks.append(Check("orbital_vanishes_at_one", orbital_value_at_one(orb) == 0,
                        f"value {orbital_value_at_one(orb)}"))
    checks.append(
        Check("orbital_derivative_matches", -orbital_derivative_at_one(orb) == a_count,
              f"derivative {orbital_derivative_at_one(orb)}")
    )
    notes = [SIGN_NOTE, ELL_NOTE]
    if inst.n > 2 * inst.p - 2:
        notes.append(
            f"extrapolated: the multiplicity formula is proved for n <= 2p-2, "
            f"here n = {inst.n} with p = {inst.p}"
        )
    return VerificationReport(
        instance=inst,
        analytic=a_count,
        geometric=geo,
        support=support,
        closed_card=card,
        closed_deriv=deriv,
        counts=counts,
        alt_sum=alt,
        orbital=orb,
        checks=tuple(checks),
        notes=tuple(notes),
    )


def fl_report(inst: MinusculeInstance) -> dict:
    lhs, rhs = fl_check(inst)
    return {
        "instance": serialize_instance(inst),
        "lhs": lhs,
        "rhs": rhs,
        "verdict": "PASS" if lhs == rhs else "FAIL",
        "notes": [] if lhs == rhs else ["counting identity mismatch is a finding"],
        "seed": inst.seed,
    }

