import functools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_bounds import conformal as cf
from neumann_bounds import youngfn as yf
from neumann_bounds.errors import ConvergenceError, DomainError, ParameterError

from fakes import TableYoung

E = np.e


def young_validity_check(young, u_hi=30.0, n=600):
    """Shared numeric validation: zero at zero, monotone, convex, unbounded."""
    assert young.eval(0.0) == 0.0
    grid = np.linspace(0.0, u_hi, n)
    vals = np.asarray(young.eval(grid))
    assert np.all(np.diff(vals) >= -1e-12 * max(1.0, vals.max()))
    d2 = np.diff(vals, 2)
    assert d2.min() >= -1e-10 * max(1.0, vals.max())
    # growth to infinity, compared in log space (linear eval may overflow)
    assert young.log_eval(1e6) > young.log_eval(1e3)


STRICT_KINDS = [
    yf.PowerP(2.0),
    yf.PowerP(2.0, normalized=True),
    yf.PowerP(3.5),
    yf.ExpSquare(),
    yf.LogLinear(),
    yf.LogPow(2.0),
    yf.ExpMinusOne(),
]


@pytest.mark.parametrize("young", STRICT_KINDS, ids=lambda y: y.name)
def test_young_invariants(young):
    young_validity_check(young, u_hi=5.0 if "exp" in young.name else 30.0)


@pytest.mark.parametrize("alpha", [4.0, 6.0, 12.0])
def test_psi_young_invariants(alpha):
    # the conjugate-power composition is convex for alpha >= 4; below that the
    # printed formula dips concave at its positivity knee (see ledger)
    young_validity_check(yf.PsiAlpha(alpha), u_hi=20.0)
    young_validity_check(yf.PsiAlpha(alpha, eps=2.0), u_hi=20.0)


def test_eval_examples():
    assert yf.LogLinear().eval(0.0) == 0.0
    assert yf.ExpSquare().eval(1.0) == pytest.approx(np.e - 1.0, rel=1e-12)
    assert yf.PowerP(2.0, normalized=True).eval(3.0) == pytest.approx(4.5, rel=1e-14)


def test_eval_domain_errors():
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            yf.LogLinear().eval(bad)


def test_log_eval_matches_eval():
    u = np.geomspace(1e-4, 20.0, 200)
    for young in STRICT_KINDS:
        lv = np.asarray(young.log_eval(u))
        direct = np.log(np.asarray(young.eval(u)))
        ok = np.isfinite(direct)
        assert np.max(np.abs(lv[ok] - direct[ok])) < 1e-12


def test_inverse_examples():
    phi = yf.LogLinear()
    assert phi.inverse(0.0) == 0.0
    # bisection oracle for u log(u+e) = 1/pi
    assert phi.inverse(1.0 / np.pi) == pytest.approx(0.2890921358, rel=1e-9)
    assert yf.ExpSquare().inverse(np.e - 1.0) == pytest.approx(1.0, rel=1e-12)


def test_inverse_errors():
    with pytest.raises(DomainError):
        yf.LogLinear().inverse(np.inf)
    with pytest.raises(DomainError):
        yf.LogLinear().inverse(-0.5)


@pytest.mark.parametrize(
    "young,u_hi",
    [
        (yf.LogLinear(), 1e3),
        (yf.LogPow(2.0), 1e3),
        (yf.PowerP(2.7), 1e3),
        (yf.ExpSquare(), 25.0),
        (yf.ExpMinusOne(), 500.0),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_inverse_roundtrip(young, u_hi):
    u = np.geomspace(1e-6, u_hi, 120)
    back = np.asarray(young.inverse(np.asarray(young.eval(u))))
    assert np.max(np.abs(back - u) / u) < 1e-8


def test_inverse_tiny_asymptotic_branch():
    phi = yf.LogLinear()
    t = 1e-305
    u = phi.inverse(t)
    # Phi(u) ~ u near zero, so the inverse is t itself to high accuracy
    assert u == pytest.approx(t, rel=1e-10)
    assert phi.eval(u) == pytest.approx(t, rel=1e-10)


def test_inverse_log_branches():
    phi = yf.LogLinear()
    # huge target: x + log(x) = log t
    x = phi.inverse_log(127834.0)
    assert x + np.log(x) == pytest.approx(127834.0, abs=1e-8)
    # consistency with the linear inverse in ordinary range
    for t in (0.3, 1.0, 7.0, 1e5):
        assert np.exp(phi.inverse_log(np.log(t))) == pytest.approx(
            phi.inverse(t), rel=1e-10
        )


@pytest.mark.parametrize("eps", [1.0, 2.0, 3.7])
def test_inverse_log_stops_each_entry_on_its_own(eps):
    # an array call gives each entry the bits of its own scalar call
    phi = yf.LogPow(eps)
    log_t = np.array([-700.0, 3.0, 700.0, 1e5, -1e6, 0.0, 127834.0, 1e-3])
    alone = np.array([phi.inverse_log(v) for v in log_t])
    assert bits(phi.inverse_log(log_t)).tolist() == bits(alone).tolist()
    assert bits(phi.inverse_log(log_t[::-1])).tolist() == bits(alone[::-1]).tolist()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1.0, 2.0])
def test_inverse_log_at_the_ends_of_double_range(eps):
    # the top of double range has a finite root about 709 below the target;
    # +-inf are their own roots, and NaN is no target at all
    phi = yf.LogPow(eps)
    for log_t in (1e308, np.finfo(float).max):
        x = phi.inverse_log(log_t)
        assert np.isfinite(x)
        # one ulp, measured downwards: the ulp above float max is inf
        assert abs(phi.log_eval_from_log(x) - log_t) <= log_t - np.nextafter(log_t, 0.0)
    assert phi.inverse_log(np.inf) == np.inf
    assert phi.inverse_log(-np.inf) == -np.inf
    got = phi.inverse_log(np.array([-np.inf, 3.0, np.inf]))
    assert bits(got).tolist() == bits([-np.inf, phi.inverse_log(3.0), np.inf]).tolist()
    with pytest.raises(DomainError):
        phi.inverse_log(np.nan)
    with pytest.raises(DomainError):
        phi.inverse_log(np.array([1.0, np.nan]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1.0, 2.0, 3.7])
def test_inverse_log_matches_40_digit_roots(eps):
    # within three ulps of the root's scale max(|x|, |log t|): a root near
    # 0 is ill-conditioned, as x + eps log log(e^x + e) cancels there, and
    # near the top of double range the ulp is measured downwards, as the
    # ulp above float max is inf
    import mpmath as mp

    phi = yf.LogPow(eps)
    top = np.finfo(float).max
    targets = np.r_[-np.geomspace(1e6, 1e-3, 170), 0.0, np.geomspace(1e-3, 1e9, 170), 1e308, top]
    for log_t in targets:
        x = float(phi.inverse_log(log_t))
        with mp.workdps(40):
            f = lambda y: y + eps * mp.log(mp.log(mp.exp(y) + mp.e)) - float(log_t)
            err = abs(x - mp.findroot(f, mp.mpf(x)))
        scale = max(abs(x), abs(log_t))
        assert err <= 3 * (scale - np.nextafter(scale, 0.0)), log_t


def test_inverse_log_stops_where_a_step_leaves_x_as_it_was():
    # at eps = 1e4 the last Newton step can exceed _NEWTON_RTOL and still
    # round away, which would repeat it until the step cap
    phi = yf.LogPow(1e4)
    for log_t in (80911.39904085659, 101552.56214982159):
        assert phi.log_eval_from_log(phi.inverse_log(log_t)) == log_t


class _Tiny(yf.YoungFunction):
    """M(u) = 1e-300 u: a target of 1e10 lies beyond M(2^1023)."""

    name = "tiny"

    def _eval(self, u):
        return 1e-300 * u


def test_bisect_inverse_raises_when_no_finite_bracket():
    assert _Tiny().inverse(1e-300 * 2.0**1000) == pytest.approx(2.0**1000, rel=1e-9)
    with pytest.raises(ConvergenceError):
        _Tiny().inverse(1e10)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def mp_relative_errors(eps, t, u):
    """|u - r| / r for each root u of u log(u+e)^eps = t, where r is that
    root to 40 digits: mpmath Newton steps from u until one falls below
    1e-30 of it, which leaves an error far below that."""
    import mpmath as mp

    errors = []
    with mp.workdps(40):
        e, eps, tol = +mp.e, mp.mpf(eps), mp.mpf("1e-30")
        for target, got in zip(np.atleast_1d(t), np.atleast_1d(u)):
            target, r = mp.mpf(target), mp.mpf(got)
            for _ in range(20):
                log_r = mp.log(r + e)
                power = log_r**eps
                step = (r * power - target) / (power / log_r * (log_r + eps * r / (r + e)))
                r -= step
                if abs(step) <= tol * r:
                    break
            errors.append(float(abs(mp.mpf(got) - r) / r))
    return np.array(errors)


MAP_KINDS = [
    cf.IdentityMap(),
    cf.PerturbedPowerMap(0.5, 2),
    cf.PerturbedPowerMap(0.3, 3),
    cf.PolynomialMap([1.0, 0.0, 0.1j]),
    cf.MoebiusDiskMap(0.3),
]

LOG_KINDS = [yf.LogLinear(), *(yf.LogPow(eps) for eps in (1.5, 2.0, 3.7))]


@pytest.fixture(scope="module")
def quad256():
    return cf.build_disk_quadrature(256, 256)


class TestLogPowInverse:
    """LogPow's Newton inverse lies within 1e-14 of the 40-digit root."""

    @pytest.mark.parametrize("phi", LOG_KINDS, ids=lambda y: y.name)
    def test_targets_at_powers_of_two(self, phi):
        at = np.asarray(phi.eval(np.ldexp(1.0, np.arange(-12, 40))))
        t = np.concatenate([at, np.nextafter(at, 0.0), np.nextafter(at, np.inf)])
        assert mp_relative_errors(phi.eps, t, phi.inverse(t)).max() <= 1e-14

    @pytest.mark.parametrize("cmap", MAP_KINDS, ids=lambda m: m.name)
    @pytest.mark.parametrize("phi", LOG_KINDS, ids=lambda y: y.name)
    def test_jacobian_of_every_map_kind(self, phi, cmap, quad256):
        jac = cmap.jacobian(quad256.nodes)
        got = np.asarray(phi.inverse(jac))
        # every 128th node, and the ends of the Jacobian's range
        sample = np.r_[np.arange(0, len(jac), 128), np.argmin(jac), np.argmax(jac)]
        assert mp_relative_errors(phi.eps, jac[sample], got[sample]).max() <= 1e-14

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("phi", LOG_KINDS, ids=lambda y: y.name)
    def test_extreme_targets(self, phi):
        # far below 1, and near the top of the double range, where M
        # overflows just past the root
        t = [1e-300, 1e-299, 1e-200, 6e-61, 1e-60, 1e-55, 1e-50, 1e-40, 1e-20]
        t += [1e300, 1.7e308, np.finfo(float).max]
        got = [phi.inverse(target) for target in t]
        assert all(isinstance(u, float) for u in got)
        assert mp_relative_errors(phi.eps, t, got).max() <= 1e-14

    @pytest.mark.parametrize("eps", [1.0, 2.0, 3.7])
    def test_tiny_targets_meet_the_relative_stop(self, eps):
        # subnormal targets included, where t itself carries few digits
        phi = yf.LogPow(eps)
        t = np.geomspace(1e-320, 1e-40, 561)
        for got in (phi.inverse(t), np.array([phi.inverse(target) for target in t])):
            assert np.all(np.abs(phi.eval(got) - t) <= 1e-10 * t)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", [20.0, 100.0, 1000.0])
    def test_large_log_powers(self, eps):
        # the Newton start on the right side of the root takes a few steps
        # whatever eps; M's own rounding grows with eps, and so does the error
        phi = yf.LogPow(eps)
        t = np.r_[0.0, np.geomspace(1e-300, 1.7e308, 121)]
        got = np.asarray(phi.inverse(t))
        assert got[0] == 0.0
        assert mp_relative_errors(eps, t[1:], got[1:]).max() <= 1e-15 * eps


_PURE = settings(max_examples=15, derandomize=True, deadline=None)
_PURE_CASES = [
    ("inverse", yf.LogLinear()),
    ("inverse", yf.LogPow(2.0)),
    ("inverse", TableYoung([0.0, 1.0, 2.0, 4.0], [0.0, 0.5, 2.0, 8.0])),
    ("eval", yf.PsiAlpha(12.0)),
    ("eval", yf.PsiAlpha(12.0, eps=2.0)),
    ("eval", yf.NumericComplement(yf.PsiAlpha(12.0, eps=2.0), refine=True)),
]


@pytest.mark.parametrize("method,young", _PURE_CASES, ids=lambda c: getattr(c, "name", c))
@_PURE
@given(values=st.lists(st.floats(min_value=0.0, max_value=1e12), min_size=1, max_size=8))
def test_batch_is_entry_by_entry(method, young, values):
    # a value depends on its own entry alone: a batch gives, entry for
    # entry, the bits of a call on that entry by itself
    x = np.asarray(values)
    fn = getattr(young, method)
    assert np.array_equal(bits(fn(x)), bits([fn(v) for v in x]))


class TestComplementary:
    def test_power_pair(self):
        # normalized quadratic is self-dual
        star = yf.PowerP(2.0, normalized=True).complementary()
        assert star.eval(2.0) == pytest.approx(2.0, rel=1e-14)
        # unnormalized square: sup(uv - u^2) = v^2/4
        star2 = yf.PowerP(2.0).complementary()
        assert star2.eval(3.0) == pytest.approx(9.0 / 4.0, rel=1e-14)
        with pytest.raises(ParameterError):
            yf.PowerP(1.0).complementary()

    def test_registered_exp_pair(self):
        tilde = yf.LogLinearTilde()
        star = tilde.complementary()
        assert isinstance(star, yf.ExpMinusOne)
        assert star.eval(1.0) == pytest.approx(np.e - 1.0, rel=1e-14)
        assert isinstance(star.complementary(), yf.LogLinearTilde)

    def test_numeric_matches_closed_form(self):
        # the exact Legendre conjugate of (1+u)log(1+u)-u is e^v - v - 1; the
        # registered pair e^v - 1 is the standard equivalent form and lies
        # above it, which is the safe direction for the Holder machinery
        num = yf.NumericComplement(yf.LogLinearTilde())
        v = np.geomspace(0.05, 5.0, 40)
        exact = np.expm1(v) - v
        got = np.asarray(num.eval(v))
        assert np.all(got <= exact * (1.0 + 1e-12))
        assert np.max((exact - got) / (1.0 + exact)) < 1e-6
        registered = yf.LogLinearTilde().complementary()
        assert np.all(got <= np.asarray(registered.eval(v)))

    @pytest.mark.parametrize(
        "young", [yf.LogLinear(), yf.PowerP(2.0, normalized=True), yf.ExpSquare()],
        ids=lambda y: y.name,
    )
    def test_young_inequality(self, young):
        star = young.complementary()
        u = np.linspace(0.0, 100.0, 41)
        v = np.linspace(0.0, 100.0, 41)
        uu, vv = np.meshgrid(u, v)
        with np.errstate(over="ignore"):
            rhs = np.asarray(young.eval(uu)) + np.asarray(star.eval(vv.ravel())).reshape(vv.shape)
        assert np.all(uu * vv <= rhs + 1e-9 * (1.0 + uu * vv))

    @pytest.mark.parametrize(
        "young", [yf.LogLinear(), yf.LogLinearTilde(), yf.PowerP(3.0)],
        ids=lambda y: y.name,
    )
    def test_biconjugation(self, young):
        bic = yf.NumericComplement(yf.NumericComplement(young))
        u = np.geomspace(1e-2, 1e2, 50)
        orig = np.asarray(young.eval(u))
        got = np.asarray(bic.eval(u))
        assert np.max(np.abs(got - orig) / np.maximum(orig, 1e-30)) < 1e-4


@functools.lru_cache(maxsize=None)
def _dense_grid(of, top):
    grid = np.geomspace(yf._CONJ_U_LO, top, yf.NumericComplement._n)
    with np.errstate(over="ignore"):
        return grid, np.asarray(of.eval(grid))


def dense_scan(v, grid, m_grid):
    """The (v, grid) objective array and its first argmax per row."""
    with np.errstate(over="ignore", invalid="ignore"):
        obj = v[:, None] * grid[None, :] - m_grid[None, :]
    obj = np.where(np.isnan(obj), -np.inf, obj)
    return obj, np.argmax(obj, axis=1)


def dense_conjugate(of, v, refine):
    """Reference for ``NumericComplement``: the full-grid scan.

    Builds the (v, grid) objective array, takes the first argmax per row,
    expands the grid while maximisers press against its top, then refines
    by golden section exactly as ``NumericComplement`` does.  Applied to one
    v at a time it gives the value that v alone has.
    """

    n, u_hi = yf.NumericComplement._n, yf._CONJ_U_HI
    grid, m_grid = _dense_grid(of, u_hi)
    obj, idx = dense_scan(v, grid, m_grid)
    for _ in range(12):
        if idx.max() < n - 2 or u_hi >= 1e120:
            break
        u_hi *= 64.0
        grid, m_grid = _dense_grid(of, u_hi)
        obj, idx = dense_scan(v, grid, m_grid)
    best = obj[np.arange(len(v)), idx]
    if refine:

        def objective(u):
            with np.errstate(over="ignore", invalid="ignore"):
                val = u * v - np.asarray(of.eval(u))
            return np.where(np.isnan(val), -np.inf, val)

        lo = grid[np.maximum(idx - 1, 0)]
        hi = grid[np.minimum(idx + 1, n - 1)]
        invphi = (np.sqrt(5.0) - 1.0) / 2.0
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        fc, fd = objective(c), objective(d)
        for _ in range(48):
            left = fc >= fd
            hi = np.where(left, d, hi)
            lo = np.where(left, lo, c)
            c = hi - invphi * (hi - lo)
            d = lo + invphi * (hi - lo)
            fc, fd = objective(c), objective(d)
        best = np.maximum(best, np.maximum(fc, fd))
    return np.maximum(best, 0.0), idx, grid


HULL_KINDS = [
    yf.PsiAlpha(12.0, eps=2.0),
    yf.PsiAlpha(12.0),
    yf.LogLinear(),
    yf.LogLinearTilde(),
    yf.PowerP(3.0),
    yf.ExpSquare(),
]


_EPS = np.finfo(float).eps


def convex_table(seed):
    """A convex TableYoung with exact dyadic knots and slopes, some
    neighbouring pieces sharing a slope, and the slopes themselves."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    widths = rng.integers(1, 4096, n) / 8.0
    slopes = np.sort(rng.integers(1, 80, n)) / 16.0
    slopes[1::3] = slopes[:-1:3]
    u = np.concatenate([[0.0], np.cumsum(widths)])
    m = np.concatenate([[0.0], np.cumsum(slopes * widths)])
    return TableYoung(u, m), np.unique(slopes)


def near_slopes(slopes, rng):
    """v at each slope, a few hundred ulp either side of it, and between."""
    near = [s * (1.0 + rng.integers(-300, 300, 40) * _EPS) for s in slopes]
    return np.concatenate([slopes, *near, rng.uniform(0.5, 1.5, 20) * slopes.max()])


def _collinear_cases():
    """(id, young, v, scatter): scatter marks the cases whose v sit within
    the rounding scatter of a linear piece's float secant slopes."""
    rng = np.random.default_rng(20261019)
    # slopes 0.1, 0.3 and 0.7: hundreds of grid points on the slope-0.3 piece
    cases = [
        (
            "table-0.3",
            TableYoung([0.0, 1.0, 1000.0, 2000.0], [0.0, 0.1, 299.8, 999.8]),
            np.array([0.05, 0.2, 0.1 * 3, 0.3, 0.3 + 1e-16, 0.3 - 1e-16, 0.5, 0.69]),
            False,
        )
    ]
    for seed in range(12):
        tab, slopes = convex_table(seed)
        cases.append((f"table-{seed}", tab, near_slopes(slopes, rng), True))
    for young in HULL_KINDS:
        cases.append((young.name, young, np.exp(rng.uniform(-12.0, 12.0, 60)), False))
    return cases


COLLINEAR_CASES = _collinear_cases()
TABLE_CASES = [c for c in COLLINEAR_CASES if isinstance(c[1], TableYoung)]


def deficit_tol(scatter, h):
    """The deficit below the dense maximum that a lookup may show, in units
    of eps * (v*u_d + M(u_d)) at the dense maximiser u_d.

    Each TableYoung value carries up to three roundings, so on a linear
    piece of slope s a float secant slope over a cell h*u wide (h the
    level's relative spacing) can exceed s by about 3*eps*s/h.  A v that
    far above s may stop the search early on the piece, which gives up
    (v - s)*u_d at most; the two objective values add their own rounding.
    Where no v lies within that scatter, only the rounding is left.
    """
    return 4.0 + 3.0 / h if scatter else 4.0


def exact_table_conjugate(tab, v):
    """sup_u v*u - M(u) of a TableYoung's piecewise-linear M, in exact
    arithmetic on its float knots, and the largest knot index attaining it;
    (None, None) past the last slope, where the supremum is +inf."""
    if v > tab._final_slope:
        return None, None
    vals = [Fraction(v) * Fraction(u) - Fraction(m) for u, m in zip(tab._u, tab._m)]
    best = max(vals)
    return best, max(k for k, val in enumerate(vals) if val == best)


class TestHullLookup:
    """The secant-slope lookup must reproduce the full-grid scan bit for bit
    on the registered kinds, and stay within rounding of it elsewhere."""

    @staticmethod
    def probe_v():
        rng = np.random.default_rng(20260)
        return np.concatenate(
            [
                np.exp(rng.uniform(-12.0, 12.0, 300)),
                # maximisers beyond the initial grid top: forces expansion
                # for every kind that can reach it, up to the 1e120 cap
                [1e6, 3e8, 1e9, 1e12, 1e15],
                # tiny slopes: maximisers at the end of Psi's flat zero region
                np.geomspace(1e-12, 1e-3, 19),
            ]
        )

    @pytest.mark.parametrize("refine", [False, True], ids=["grid", "refined"])
    @pytest.mark.parametrize("young", HULL_KINDS, ids=lambda y: y.name)
    def test_matches_dense_scan(self, young, refine):
        # each v against the reference applied to that v alone
        v = self.probe_v()
        batches = [v[[i]] for i in range(len(v))]
        with np.errstate(all="raise"):
            conj = yf.NumericComplement(young, refine=refine)
            got = np.asarray(conj.eval(v))
            if refine and isinstance(young, yf.PsiAlpha):
                # refining Psi one v at a time is slow; Psi's eval is entry
                # by entry, and no v climbs for these kinds, so the reference
                # applied to the whole batch gives each v's own value
                assert list(conj._levels) == [0]
                batches = [v]
            want = [dense_conjugate(young, b, refine) for b in batches]
            levels = {grid.u[-1]: grid for grid in conj._levels.values()}
            for b, (_, want_idx, want_grid) in zip(batches, want):
                grid = levels[want_grid[-1]]
                assert np.array_equal(grid.u, want_grid)
                assert np.array_equal(yf._grid_max(grid, b)[0], want_idx)
        assert np.array_equal(got, np.concatenate([w[0] for w in want]))

    def test_expansion_and_flat_region_are_exercised(self):
        v = self.probe_v()
        for young in (yf.PowerP(3.0), yf.LogLinear()):
            conj = yf.NumericComplement(young, refine=False)
            conj.eval(v)
            assert max(conj._levels) > 0  # some v climbed above level 0
        psi = yf.PsiAlpha(12.0)
        grid = yf.NumericComplement(psi, refine=False)._level(0)
        flat = np.flatnonzero(grid.m == 0.0)
        assert len(flat) > 100
        # on the flat run v*u grows with u, so the tiniest slopes pick its end
        idx, _ = yf._grid_max(grid, v[-19:])
        assert idx.min() == flat[-1]

    def test_slopes_are_sorted_and_overflow_safe(self):
        overflowed = 0
        with np.errstate(all="raise"):
            for young in HULL_KINDS:
                conj = yf.NumericComplement(young)
                for grid in (conj._level(0), conj._level(12)):
                    assert len(grid.slopes) == len(grid.u) - 1
                    assert np.all(grid.slopes[1:] >= grid.slopes[:-1])
                    top = np.flatnonzero(~np.isfinite(grid.m))
                    if len(top):
                        # from the first point that overflows, every slope is inf
                        assert np.all(np.isinf(grid.slopes[top[0] - 1 :]))
                        overflowed += 1
        assert overflowed >= 3

    def test_shared_instance_across_threads(self):
        # more threads than cores, a short switch interval, and every thread
        # climbing one shared ladder while another keeps emptying its level
        # cache: each value must still be the single-threaded one
        young = yf.PowerP(3.0)
        vs = np.array([5.0, 10.0, 1e9, 1e13, 1e16, 1e19])
        allowed = [{dense_conjugate(young, vs[[i]], False)[0][0]} for i in range(len(vs))]
        conj = yf.NumericComplement(young, refine=False)
        results, errors = [], []

        def work(seed):
            order = np.random.default_rng(seed).permutation(len(vs))
            try:
                for _ in range(25):
                    for i in order:
                        results.append((i, conj.eval(vs[i])))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        def clear():
            # keep emptying the level cache, so that levels are rebuilt in races
            for _ in range(400):
                conj._levels.clear()

        threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
        threads.append(threading.Thread(target=clear))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 8 * 25 * len(vs)
        assert all(val in allowed[i] for i, val in results)

    def test_value_depends_on_v_alone(self):
        # a grid value must not change after, or next to, a v whose
        # maximiser lies far above the first level
        conj = yf.NumericComplement(yf.PowerP(3.0), refine=False)
        assert conj.eval(5.0) == 4.303114207933202
        conj.eval(1e13)
        assert conj.eval(5.0) == 4.303114207933202
        assert conj.eval([5.0, 1e13])[0] == 4.303114207933202

    @pytest.mark.parametrize("case", COLLINEAR_CASES, ids=lambda c: c[0])
    def test_collinear_runs_stay_within_rounding(self, case):
        # on each level the lookup must sit at or below the dense maximum,
        # and no further below it than deficit_tol allows
        _, young, v, scatter = case
        conj = yf.NumericComplement(young, refine=False)
        with np.errstate(all="raise"):
            for k in (0, 1, 12):
                grid = conj._level(k)
                tol = deficit_tol(scatter, grid.u[1] / grid.u[0] - 1.0)
                idx, got = yf._grid_max(grid, v)
                obj, want_idx = dense_scan(v, grid.u, grid.m)
                want = obj[np.arange(len(v)), want_idx]
                u_d, m_d = grid.u[want_idx], grid.m[want_idx]
                assert np.all(got <= want)
                assert np.all(want - got <= tol * _EPS * (v * u_d + m_d))
                assert np.array_equal(got, obj[np.arange(len(v)), idx])

    @pytest.mark.parametrize("refine", [False, True], ids=["grid", "refined"])
    @pytest.mark.parametrize("case", TABLE_CASES, ids=lambda c: c[0])
    def test_eval_on_collinear_tables(self, case, refine):
        # eval end to end, through the ladder climb and, refined, the
        # golden-section ascent.  Below: the grid value keeps deficit_tol
        # against the dense reference applied to that v alone, and
        # refining never lowers it.  Above: no value passes the exact
        # conjugate by more than the rounding of its own objective, about
        # eps * (v*u + M(u)) near the maximiser.
        _, tab, v, scatter = case
        with np.errstate(all="raise"):
            on_grid = np.asarray(yf.NumericComplement(tab, refine=False).eval(v))
            got = np.asarray(yf.NumericComplement(tab, refine=refine).eval(v))
        assert np.all(on_grid <= got)
        for x, g, val in zip(v, on_grid, got):
            want, idx, grid = dense_conjugate(tab, np.array([x]), False)
            u_d = grid[idx[0]]
            tol = deficit_tol(scatter, grid[1] / grid[0] - 1.0)
            assert g <= want[0]
            assert want[0] - g <= tol * _EPS * (x * u_d + float(tab.eval(u_d)))
            exact, k = exact_table_conjugate(tab, x)
            if exact is not None:
                slack = 2.0 * _EPS * (x * tab._u[k] + tab._m[k])
                assert Fraction(val) <= exact + Fraction(slack)


def test_numeric_complement_binds_eval_itself():
    # bench/tracing.py times NumericComplement.eval as the conjugate and
    # counts YoungFunction.eval on its own; without this binding every
    # conjugate call counts as both, and a traced quasidisk-chain run
    # counted 1,404 youngfn.eval calls instead of 1,146
    assert vars(yf.NumericComplement)["eval"] is yf.YoungFunction.eval


class TestProbes:
    def test_delta_prime_log_linear(self):
        sup = yf.probe_delta_prime(yf.LogLinear())
        assert sup <= 2.0 + 1e-9

    def test_delta_prime_power_exact(self):
        sup = yf.probe_delta_prime(yf.PowerP(2.0, normalized=True))
        assert sup == pytest.approx(2.0, rel=1e-12)

    def test_delta_prime_logs_skipped_points(self, caplog):
        # the points with u = 0 or v = 0 give -inf - -inf; the module loads
        # logging only to report them
        with np.errstate(invalid="ignore"):
            sup = yf.probe_delta_prime(yf.PowerP(2.0, normalized=True), grid=[0.0, 1.0, 2.0])
        assert sup == pytest.approx(2.0, rel=1e-12)
        assert caplog.messages == ["probe_delta_prime(power(p=2,coef=0.5)): skipped 5 grid points"]

    def test_delta_prime_exponential_unbounded(self):
        sup = yf.probe_delta_prime(yf.ExpSquare())
        assert sup > 1e6

    def test_nabla_prime_expsquare_restricted(self):
        c = yf.probe_nabla_prime(yf.ExpSquare(), grid=np.geomspace(1.0, 10.0, 40))
        assert c is not None and c <= 2.0

    def test_nabla_prime_psi(self):
        c = yf.probe_nabla_prime(yf.PsiAlpha(4.0))
        assert c is not None and np.isfinite(c)

    def test_nabla_prime_log_linear_grows_with_scale(self):
        # submultiplicative kinds fail the global condition: the per-grid
        # constant keeps growing as the grid extends (None only shows up once
        # the constant cap is exhausted)
        phi = yf.LogLinear()
        c1 = yf.probe_nabla_prime(phi, grid=np.geomspace(1e-3, 1e3, 40))
        c2 = yf.probe_nabla_prime(phi, grid=np.geomspace(1e-3, 1e9, 40))
        c3 = yf.probe_nabla_prime(phi, grid=np.geomspace(1e-3, 1e15, 40))
        assert c1 < c2 < c3
        assert yf.probe_nabla_prime(phi, grid=np.geomspace(1e-3, 1e9, 40), c_max=1.5) is None


@pytest.mark.parametrize("alpha", [3.0, 4.0, 12.0])
def test_psi_composition_identity(alpha):
    # Psi(Phi(u / PhiInv(u))) == (2/alpha) u^((alpha-2)/2) on [1, 1e3]
    phi = yf.LogLinear()
    psi = yf.PsiAlpha(alpha)
    u = np.geomspace(1.0, 1e3, 64)
    w = np.asarray(phi.inverse(u))
    lhs = np.asarray(psi.eval(np.asarray(phi.eval(u / w))))
    rhs = (2.0 / alpha) * u ** ((alpha - 2.0) / 2.0)
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-6


def test_psi_eps_variant_uses_eps_root():
    # the eps-variant inner exponent is w^(1/eps): cross-check one point by hand
    eps, alpha = 2.0, 4.0
    psi = yf.PsiAlpha(alpha, eps=eps)
    phi_eps = yf.LogPow(eps)
    u = 50.0
    w = phi_eps.inverse(u)
    expected = (2.0 / alpha) * (w * (np.exp(w ** (1.0 / eps)) - np.e)) ** ((alpha - 2) / 2)
    assert psi.eval(u) == pytest.approx(expected, rel=1e-10)


def test_psi_log_eval_from_log_matches_direct():
    psi = yf.PsiAlpha(4.0)
    for u in (10.0, 100.0, 5e3):
        direct = psi.log_eval(u)
        via_log = float(psi.log_eval_from_log(np.log(u)))
        assert via_log == pytest.approx(direct, rel=1e-9)


def test_psi_log_eval_from_log_huge():
    import mpmath as mp

    psi = yf.PsiAlpha(4.0)
    g = psi.log_eval_from_log(127834.0)
    assert mp.isfinite(g) and g > mp.mpf(10) ** 55000


@pytest.mark.parametrize("alpha", [4.0, 12.0])
def test_psi_alpha_is_the_eps_free_formula(alpha):
    # at eps = 1 the inner exponent is w itself: Psi_alpha's bits are those
    # of the formula with y = w, the flat region Psi = 0 (w <= 1) included
    phi, psi = yf.LogLinear(), yf.PsiAlpha(alpha)
    u = np.r_[0.0, np.geomspace(1e-6, 1e6, 200), np.linspace(1.0, 1.5, 51)]
    w = np.asarray(phi.inverse(u))
    assert np.any(w <= 1.0) and np.any(w > 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inner = np.maximum(w * E * np.expm1(w - 1.0), 0.0)
        want = np.where(w <= 0, 0.0, (2.0 / alpha) * inner ** ((alpha - 2.0) / 2.0))
        log_inner = np.log(w) + 1.0 + yf._log_expm1(w - 1.0)
        want_log = np.where(
            w <= 1.0, -np.inf, np.log(2.0 / alpha) + 0.5 * (alpha - 2.0) * log_inner
        )
    assert np.array_equal(np.asarray(psi.eval(u)), want)
    assert np.array_equal(np.asarray(psi.log_eval(u)), want_log)
    half = 0.5 * (alpha - 2.0)
    for log_u in np.r_[np.linspace(-10.0, 10.0, 41), 50.0, 700.0, 127834.0]:
        x = float(phi.inverse_log(log_u))
        with np.errstate(over="ignore"):
            w = float(np.exp(x))
            if w > 1:
                want = -math.log1p(half) + half * (x + 1.0 + float(yf._log_expm1(w - 1.0)))
        if w <= 1:
            want = -np.inf
        elif not math.isfinite(want):
            r = (x - math.log1p(half) / half) * math.exp(-x)
            want = yf.SignedExp(1.0, math.log(half) + x + math.log1p(r))
        assert psi.log_eval_from_log(log_u) == want, log_u


def _mp_log_psi(alpha, eps, log_u):
    """log Psi(u) at 40 digits from the full formula, with the float
    x = log Minv(u) that the code uses: log(2/alpha) + (alpha-2)/2
    (x + y + log1p(-e^(1-y))), y = e^(x/eps).  Past y = 1e4 the last term
    is below 40 digits, and mpmath would take seconds for its exp."""
    import mpmath as mp

    x = float(yf.LogPow(eps).inverse_log(log_u))
    with mp.workdps(40):
        y = mp.exp(mp.mpf(x) / eps)
        if y <= 1:
            return None, None
        tail = mp.log1p(-mp.exp(1 - y)) if y < 1e4 else 0
        head, body = mp.log(mp.mpf(2) / alpha), mp.mpf(alpha - 2) / 2 * (x + y + tail)
        return head + body, abs(head) + abs(body)


@pytest.mark.parametrize("eps", [1.0, 2.0])
def test_log_eval_from_log_matches_the_full_formula(eps):
    # across where y and then log Psi leave double range: the float path is
    # within 2e-15 of the sum's scale, and the SignedExp path's l within
    # 1e-15 of the log of the full formula
    import mpmath as mp

    paths = set()
    for alpha in (2.0001, 4.0, 12.0, 1e6):
        psi = yf.PsiAlpha(alpha, eps)
        for log_u in np.r_[np.linspace(-10, 10, 41), np.linspace(700, 722, 45), np.linspace(1410, 1440, 31), 1e5]:
            got = psi.log_eval_from_log(log_u)
            want, scale = _mp_log_psi(alpha, eps, log_u)
            if want is None:
                assert got == -np.inf
                continue
            paths.add(type(got))
            if isinstance(got, yf.SignedExp):
                with mp.workdps(40):
                    assert got.sign == 1.0 and abs(got.log_abs - mp.log(want)) <= 1e-15 * mp.log(want)
            else:
                assert abs(got - want) <= 2e-15 * scale, (alpha, log_u)
    assert paths == {float, yf.SignedExp}


def test_signed_exp_addition_matches_mpmath():
    # l + log1p(sign f e^-l) is within one ulp of l of log |v + f|, from the
    # moderate l where f shows to the chain's, where it falls below the last bit
    import mpmath as mp

    for ell in np.r_[np.linspace(1.0, 50.0, 99), 100.0, 700.0, 745.0, 1e4, 293604.46875859057764]:
        for f in (-1e3, -17.3, -2.5, -0.5, 1e-3, 0.7, 3.0, 288.0, 1e3):
            if ell < 700.0 and abs(f) > math.exp(ell) / 2:
                continue
            for sign in (1.0, -1.0):
                v = yf.SignedExp(sign, float(ell))
                for got in (v + f, f + v, v - -f):
                    with mp.workdps(40):
                        want = sign * mp.exp(mp.mpf(float(ell))) + f
                        assert got.sign == mp.sign(want)
                        assert abs(got.log_abs - mp.log(abs(want))) <= math.ulp(got.log_abs), (ell, f)


def test_signed_exp_reads_as_a_number():
    import mpmath as mp

    big = yf.SignedExp(1.0, 293604.46875859057764)
    assert float(big) == math.inf and float(-big) == -math.inf
    assert float(yf.SignedExp(-1.0, math.log(3.0))) == pytest.approx(-3.0, rel=1e-15)
    assert -big == yf.SignedExp(-1.0, big.log_abs)
    assert -big < -1.7e308 < -1.0 < 0.0 < 1.0 < 1.7e308 < big
    assert yf.SignedExp(-1.0, 3.0) < -20.0 < yf.SignedExp(-1.0, 2.0)
    assert 0.0 - big == -big and 1.0 - big == -big
    small = yf.SignedExp(1.0, 2.0)
    for got, want in [(1.0 - small, 1.0 - math.e**2), (small - 1.0, math.e**2 - 1.0), (small + 1.0, math.e**2 + 1.0)]:
        assert float(got) == pytest.approx(want, rel=1e-15)
        assert -small < float(got) < small + 2.0
    assert str(-big) == "-6.31894e+127510"
    assert str(yf.SignedExp(1.0, math.log(9.9999999))) == "1e+1"
    assert f"{yf.SignedExp(1.0, math.log(0.015))}" == "1.5e-2"
    # mpmath converts it, and compares and combines it as its value
    with mp.workdps(30):
        assert mp.mpf(yf.SignedExp(-1.0, math.log(3.0))) == pytest.approx(-3.0, rel=1e-15)
        assert mp.mpf(10) ** 127510 < big and big > mp.mpf(10) ** 127510
        assert mp.isfinite(big) and mp.log(big) == pytest.approx(big.log_abs, rel=1e-15)


def test_table_young():
    u = np.linspace(0.0, 4.0, 9)
    tab = TableYoung(u, u**2)
    assert tab.eval(2.0) == pytest.approx(4.0, rel=1e-10)
    assert tab.eval(10.0) > tab.eval(4.0)
    young_validity_check(tab, u_hi=4.0, n=9)
    with pytest.raises(ParameterError):
        TableYoung([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])


def test_constructor_parameter_errors():
    with pytest.raises(ParameterError):
        yf.PowerP(0.5)
    with pytest.raises(ParameterError):
        yf.PsiAlpha(2.0)
    with pytest.raises(ParameterError):
        yf.PsiAlpha(4.0, eps=0.5)
    for bad in (np.nan, np.inf):
        for kind in (yf.PowerP, yf.LogPow, yf.PsiAlpha, lambda x: yf.PsiAlpha(4.0, eps=x)):
            with pytest.raises(ParameterError):
                kind(bad)
        with pytest.raises(ParameterError):
            yf.PowerP(2.0, coef=bad)
        with pytest.raises(ParameterError):
            TableYoung([0.0, 1.0, 2.0], [0.0, 1.0, bad])
