import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_bounds import orlicz as ol
from neumann_bounds import youngfn as yf
from neumann_bounds.conformal import PerturbedPowerMap, build_disk_quadrature
from neumann_bounds.errors import DomainError


def sampled(values, quad):
    return ol.SampledFunction(np.asarray(values, dtype=float), quad.weights, quad.measure_id)


def test_sampled_function_validation(quad64):
    with pytest.raises(DomainError):
        ol.SampledFunction(np.array([1.0, np.inf]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        ol.SampledFunction(np.ones(3), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(DomainError):
        ol.SampledFunction(np.ones(4), np.ones(3))
    f = sampled(np.ones(len(quad64)), quad64)
    assert f.total_measure == pytest.approx(np.pi, rel=1e-12)


class TestLuxemburg:
    def test_zero_function(self, quad64):
        assert ol.luxemburg_norm(sampled(np.zeros(len(quad64)), quad64), yf.LogLinear()) == 0.0

    def test_constant_closed_form(self, quad64):
        # ||c||_Y on a measure of mass m is c / Yinv(1/m)
        phi = yf.LogLinear()
        got = ol.luxemburg_norm(sampled(np.ones(len(quad64)), quad64), phi)
        expected = 1.0 / phi.inverse(1.0 / np.pi)
        assert got == pytest.approx(expected, rel=1e-8)
        assert got == pytest.approx(3.4591048179, rel=1e-8)
        got3 = ol.luxemburg_norm(sampled(np.full(len(quad64), 3.0), quad64), phi)
        assert got3 == pytest.approx(3.0 * expected, rel=1e-8)

    def test_modular_at_norm_in_unit_window(self, quad64, rng):
        values = np.abs(rng.normal(size=len(quad64))) + 0.05
        for young in (yf.LogLinear(), yf.ExpSquare(), yf.PowerP(2.5)):
            f = sampled(values, quad64)
            lam = ol.luxemburg_norm(f, young)
            modular = float(np.sum(quad64.weights * np.asarray(young.eval(values / lam))))
            assert 1.0 - 1e-8 <= modular <= 1.0 + 1e-12

    def test_lp_consistency(self, quad64, rng):
        # for Y(u) = u^p the norm is the plain Lp norm
        values = np.abs(rng.normal(size=len(quad64))) + 0.1
        f = sampled(values, quad64)
        for p in (1.5, 2.0, 3.7):
            lp = float(np.sum(quad64.weights * values**p)) ** (1.0 / p)
            assert ol.luxemburg_norm(f, yf.PowerP(p)) == pytest.approx(lp, rel=1e-10)
            # normalized variant scales by p^(-1/p)
            assert ol.luxemburg_norm(f, yf.PowerP(p, normalized=True)) == pytest.approx(
                lp / p ** (1.0 / p), rel=1e-10
            )

    def test_homogeneity(self, quad64, rng):
        values = np.abs(rng.normal(size=len(quad64)))
        f = sampled(values, quad64)
        phi = yf.LogLinear()
        base = ol.luxemburg_norm(f, phi)
        for c in (0.25, 7.5):
            assert ol.luxemburg_norm(f.scaled(c), phi) == pytest.approx(c * base, rel=1e-9)

    def test_monotonicity(self, quad64, rng):
        small = np.abs(rng.normal(size=len(quad64)))
        big = small + np.abs(rng.normal(size=len(quad64)))
        phi = yf.LogLinear()
        assert ol.luxemburg_norm(sampled(small, quad64), phi) <= ol.luxemburg_norm(
            sampled(big, quad64), phi
        ) * (1.0 + 1e-9)

    def test_triangle_inequality(self, quad64, rng):
        phi = yf.LogLinear()
        for _ in range(20):
            a = rng.normal(size=len(quad64))
            b = rng.normal(size=len(quad64))
            na = ol.luxemburg_norm(sampled(np.abs(a), quad64), phi)
            nb = ol.luxemburg_norm(sampled(np.abs(b), quad64), phi)
            nab = ol.luxemburg_norm(sampled(np.abs(a + b), quad64), phi)
            assert nab <= (na + nb) * (1.0 + 1e-8)

    def test_tiny_support(self, quad64):
        values = np.zeros(len(quad64))
        values[0] = 5.0
        lam = ol.luxemburg_norm(sampled(values, quad64), yf.LogLinear())
        # single node of weight w: modular w * Y(5/lam) = 1
        w = quad64.weights[0]
        expected = 5.0 / yf.LogLinear().inverse(1.0 / w)
        assert lam == pytest.approx(expected, rel=1e-8)

    def test_nonfinite_rejected(self, quad64):
        bad = np.zeros(len(quad64))
        bad[3] = np.inf
        with pytest.raises(DomainError):
            sampled(bad, quad64)


def test_orlicz_norm_bracket(quad64, rng):
    phi = yf.LogLinear()
    zero = sampled(np.zeros(len(quad64)), quad64)
    assert ol.orlicz_norm_bracket(zero, phi) == (0.0, 0.0)
    one = sampled(np.ones(len(quad64)), quad64)
    lo, hi = ol.orlicz_norm_bracket(one, phi)
    assert hi == pytest.approx(2.0 * lo, rel=1e-14)
    assert lo == pytest.approx(3.4591048179, rel=1e-8)
    # for the normalized power kind the dual-definition norm has the exact
    # value p'^(1/p') ||f||_p, which must land inside the bracket
    p = 2.0
    pprime = p / (p - 1.0)
    values = np.abs(rng.normal(size=len(quad64))) + 0.1
    f = sampled(values, quad64)
    exact_dual = pprime ** (1.0 / pprime) * float(
        np.sum(quad64.weights * values**p)
    ) ** (1.0 / p)
    lo, hi = ol.orlicz_norm_bracket(f, yf.PowerP(p, normalized=True))
    assert lo * (1.0 - 1e-6) <= exact_dual <= hi * (1.0 + 1e-6)


class TestHolder:
    def test_zero(self, quad64):
        zero = sampled(np.zeros(len(quad64)), quad64)
        lhs, rhs = ol.holder_pairing(zero, zero, yf.PowerP(2.0, normalized=True))
        assert lhs == 0.0 and rhs == 0.0

    def test_constants(self, quad64):
        one = sampled(np.ones(len(quad64)), quad64)
        lhs, rhs = ol.holder_pairing(one, one, yf.PowerP(2.0, normalized=True))
        assert lhs == pytest.approx(np.pi, rel=1e-12)
        assert lhs <= rhs * (1.0 + 1e-6)

    @pytest.mark.parametrize(
        "young",
        [yf.PowerP(2.0, normalized=True), yf.LogLinearTilde()],
        ids=lambda y: y.name,
    )
    def test_random_fields(self, quad32, young):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            f = sampled(rng.lognormal(sigma=1.0, size=len(quad32)), quad32)
            g = sampled(rng.lognormal(sigma=1.0, size=len(quad32)), quad32)
            lhs, rhs = ol.holder_pairing(f, g, young)
            assert lhs <= rhs * (1.0 + 1e-6)

    def test_random_fields_numeric_conjugate(self):
        # the numeric-conjugate path is slower; a smaller seeded batch
        from neumann_bounds.conformal import build_disk_quadrature

        quad = build_disk_quadrature(8, 16)
        young = yf.LogLinear()
        rng = np.random.default_rng(2718)
        for _ in range(12):
            f = sampled(rng.lognormal(sigma=1.0, size=len(quad)), quad)
            g = sampled(rng.lognormal(sigma=1.0, size=len(quad)), quad)
            lhs, rhs = ol.holder_pairing(f, g, young)
            assert lhs <= rhs * (1.0 + 1e-6)

    def test_measure_mismatch(self, quad64, quad32):
        f = sampled(np.ones(len(quad64)), quad64)
        g = sampled(np.ones(len(quad32)), quad32)
        with pytest.raises(DomainError):
            ol.holder_pairing(f, g, yf.LogLinear())


def luxemburg_per_node(f, young):
    """Reference for ``luxemburg_norm``: plain bisection from the same
    bracket, with Y evaluated at every node, to a relative width of 1e-12."""

    def modular(lam):
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.sum(w * np.asarray(young.eval(absvals / lam)))
        return np.inf if np.isnan(out) else out

    absvals = np.abs(f.values)
    fmax = absvals.max() if len(absvals) else 0.0
    if fmax == 0.0:
        return 0.0
    w = f.weights
    hi = fmax / float(young.inverse(1.0 / f.total_measure))
    lo = fmax / float(young.inverse(1.0 / w.min()))
    for _ in range(2048):
        if modular(hi) <= 1.0:
            break
        hi *= 2.0
    for _ in range(2048):
        if lo < hi and modular(lo) > 1.0:
            break
        lo *= 0.5
        if lo < 1e-300:
            return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-12 * hi:
            break
    return hi


@pytest.fixture()
def modular_lams(monkeypatch):
    """Each lambda at which ``luxemburg_norm`` evaluates a modular."""
    lams = []
    modular = ol._modular

    def recorded(young, absvals, weights, lam):
        lams.append(lam)
        return modular(young, absvals, weights, lam)

    monkeypatch.setattr(ol, "_modular", recorded)
    return lams


@pytest.fixture(scope="module")
def kphi_field_256():
    """k_phi's integrand on the pp0.5k2 map at 256x256, constant density."""
    quad = build_disk_quadrature(256, 256)
    jac = PerturbedPowerMap(0.5, 2).jacobian(quad.nodes)
    return ol.SampledFunction(jac / np.asarray(yf.LogPow(2.0).inverse(jac)), quad.weights * jac)


SHARP_KINDS = [yf.LogPow(2.0), yf.PowerP(3.0), yf.ExpSquare(), yf.LogLinear(), yf.PowerP(1.5)]
CONJUGATE_KINDS = [
    yf.NumericComplement(yf.PsiEpsAlpha(2.0, 12.0), refine=False),
    yf.NumericComplement(yf.LogLinear()),
]
# Psi vanishes below its knee, so its log modular can be -inf: the search
# bisects there
LUXEMBURG_KINDS = SHARP_KINDS + CONJUGATE_KINDS + [yf.PsiEpsAlpha(2.0, 12.0)]


FIELDS = {
    "constant": lambda n, jac, rng: np.full(n, 2.5),
    "37-values": lambda n, jac, rng: rng.choice(rng.lognormal(size=37), size=n),
    "signed": lambda n, jac, rng: -np.repeat(rng.lognormal(size=n // 8), 8),
    "lognormal": lambda n, jac, rng: rng.lognormal(sigma=2.0, size=n),
    "kphi-g": lambda n, jac, rng: jac / np.asarray(yf.LogPow(2.0).inverse(jac)),
}


def assert_luxemburg_contract(f, young):
    """The norm's modular is <= 1, and > 1 a relative 1e-12 below it; it
    agrees with the per-node bisection within 1e-12."""
    lam = ol.luxemburg_norm(f, young)
    absvals = np.abs(f.values)
    assert ol._modular(young, absvals, f.weights, lam) <= 1.0
    assert ol._modular(young, absvals, f.weights, lam * (1.0 - 1e-12)) > 1.0
    assert lam == pytest.approx(luxemburg_per_node(f, young), rel=1e-12, abs=0)


class TestLuxemburgContract:
    """The Illinois search stops a relative 1e-12 above the root, on the
    conservative side, for every kind."""

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("young", LUXEMBURG_KINDS, ids=lambda y: y.name)
    def test_fields(self, young, field, quad32, pp_map, rng):
        jac = pp_map.jacobian(quad32.nodes)
        values = FIELDS[field](len(quad32), jac, rng)
        assert_luxemburg_contract(ol.SampledFunction(values, quad32.weights * jac), young)

    @pytest.mark.parametrize("young", LUXEMBURG_KINDS, ids=lambda y: y.name)
    def test_kphi_field_256(self, young, kphi_field_256):
        assert_luxemburg_contract(kphi_field_256, young)

    def test_kphi_norm_takes_few_modulars(self, kphi_field_256, modular_lams):
        ol.luxemburg_norm(kphi_field_256, yf.LogPow(2.0))
        assert len(modular_lams) <= 12


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


# A value of an inverse depends on its own entry alone, so permuting or
# duplicating the entries of a call permutes or duplicates its results, bit
# for bit.
_PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)
_VALUES = st.lists(
    st.floats(min_value=0.0, max_value=1e12, allow_subnormal=True), min_size=1, max_size=24
)


@st.composite
def _rearrangement(draw, n):
    """Indices that take every entry at least once, in any order."""
    extra = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return np.asarray(draw(st.permutations(list(range(n)) + extra)), dtype=np.intp)


@_PROPERTY
@given(data=st.data(), values=_VALUES)
def test_inverse_is_entrywise(data, values):
    t = np.asarray(values)
    idx = data.draw(_rearrangement(len(t)))
    for young in (yf.LogLinear(), yf.LogPow(2.0)):
        assert np.array_equal(bits(young.inverse(t[idx])), bits(young.inverse(t))[idx])


@_PROPERTY
@given(data=st.data(), values=_VALUES)
def test_luxemburg_contract_on_random_fields(data, values):
    x = np.asarray(values)
    idx = data.draw(_rearrangement(len(x)))
    weights = np.asarray(data.draw(st.lists(
        st.floats(min_value=1e-3, max_value=10.0), min_size=len(idx), max_size=len(idx)
    )))
    f = ol.SampledFunction(x[idx], weights)
    if not np.any(f.values):
        assert ol.luxemburg_norm(f, yf.LogPow(2.0)) == 0.0
        return
    for young in (yf.LogPow(2.0), yf.PowerP(3.0)):
        assert_luxemburg_contract(f, young)


class TestWeightedMedian:
    def test_constant(self, quad64):
        assert ol.weighted_median(sampled(np.full(len(quad64), 2.5), quad64)) == 2.5

    def test_half_disk_indicator(self, quad64):
        # upper half-disk has measure pi/2 exactly, so t = 0 qualifies
        values = (quad64.nodes.imag > 0).astype(float)
        assert ol.weighted_median(sampled(values, quad64)) == 0.0

    def test_radial(self, quad64):
        # area{r > t} <= pi/2 first holds at t ~ 1/sqrt(2); discrete median
        # lands within one radial node weight of it
        med = ol.weighted_median(sampled(np.abs(quad64.nodes), quad64))
        assert med == pytest.approx(1.0 / np.sqrt(2.0), abs=2.0 / quad64.n_radial)

    def test_antisymmetric(self, quad64):
        med = ol.weighted_median(sampled(quad64.nodes.real, quad64))
        assert med == pytest.approx(0.0, abs=1e-12)
