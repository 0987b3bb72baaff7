"""Closed-form values, their independent cross-checks, and domain guards.

The frozen constants below were computed from the defining formulas in
standalone scripts (exhaustive weight enumeration for the moving-maximum
forms, direct normal-CDF evaluation for the Gaussian-based ones) before
the library code existed, so agreement here is a genuine cross-check
rather than the library testing itself.
"""
import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtr

from extremogram import (
    DomainError,
    Lag,
    MmaPlan,
    VariogramSpec,
    WeightSpec,
    br_extremogram,
    br_pa_extremogram,
    br_pa_tau,
    husler_reiss_cdf,
    lag_grid,
    lattice_counts,
    mma1_extremogram,
    mma1_pa_extremogram,
    mma_extremogram,
    mma_geometric_extremogram_classsum,
    mma_pa_extremogram,
)
from extremogram import oracles
from extremogram.oracles import MmaLaw, br_pa_exceedance
from extremogram.simulate import _MAXLOG, _ndtr

M_3PCT = 100.0 / 3.0  # tail index for a 3% exceedance rate

BALL = WeightSpec.indicator_ball(1.0)


# ---------------------------------------------------------------------------
# unit-ball moving maximum


def test_mma1_limit_values():
    assert mma1_extremogram(Lag.of(1, 0)) == pytest.approx(2.0 / 5.0, abs=1e-12)
    assert mma1_extremogram(Lag.of(1, 1)) == pytest.approx(2.0 / 5.0, abs=1e-12)
    assert mma1_extremogram(Lag.of(2, 0)) == pytest.approx(1.0 / 5.0, abs=1e-12)
    assert mma1_extremogram(Lag.of(3, 0)) == 0.0
    assert mma1_extremogram(Lag.of(0, 0)) == 1.0


def test_mma1_limit_matches_general_enumeration():
    """Hard-coded piecewise values against the weight-enumeration form."""
    for lag in [Lag.of(0, 0), *lag_grid(6, 2)]:
        assert mma_extremogram(BALL, lag) == mma1_extremogram(lag), lag


def test_mma1_pa_frozen_values():
    # exponents 8/5, 8/5, 9/5 in (2/m - 1 + (1-1/m)^kappa) * m at m = 100/3
    assert mma1_pa_extremogram(Lag.of(1, 0), M_3PCT).rho_pa == pytest.approx(
        0.4144582136600258, abs=1e-12
    )
    assert mma1_pa_extremogram(Lag.of(2, 0), M_3PCT).rho_pa == pytest.approx(
        0.22164359401578201, abs=1e-12
    )
    assert mma1_pa_extremogram(Lag.of(3, 0), M_3PCT).rho_pa == pytest.approx(
        0.03, abs=1e-12
    )


def test_mma1_pa_matches_general_path():
    # two independent code paths: hard-coded exponents vs weight sums
    for lag in [Lag.of(0, 0), *lag_grid(6, 2)]:
        for m in (1.01, 1.5, 5.0, M_3PCT, 1e4, 1e6):
            a = mma1_pa_extremogram(lag, m)
            b = mma_pa_extremogram(BALL, lag, m)
            assert (a.rho_pa, a.rho_limit) == (b.rho_pa, b.rho_limit), (lag, m)


def test_pa_converges_to_limit():
    """|rho_pa - rho_limit| shrinks like 1/m."""
    gaps = []
    for m in (1e2, 1e4, 1e6):
        pa = mma1_pa_extremogram(Lag.of(1, 0), m)
        gaps.append(abs(pa.rho_pa - pa.rho_limit))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-5
    # the scaled gap stays bounded
    assert gaps[0] * 1e2 < 1.0 and gaps[2] * 1e6 < 1.0


def test_mma1_rejects_unattainable_distance():
    with pytest.raises(DomainError):
        mma1_extremogram(Lag.of(1.2, 0.0))


def test_mma_extremogram_needs_exceedance_rays():
    with pytest.raises(DomainError):
        mma_pa_extremogram(BALL, Lag.of(1, 0), m=0.5)


# ---------------------------------------------------------------------------
# lattice shell counts and the geometric class-sum form


def test_lattice_counts_small_shells():
    counts = lattice_counts(3.0, Lag.of(2, 0))
    by_nsq = dict(zip(counts.norm_sq.tolist(), counts.p.tolist()))
    assert by_nsq[0] == 1
    assert by_nsq[1] == 4
    assert by_nsq[2] == 4
    assert by_nsq[4] == 4
    assert by_nsq[5] == 8
    assert counts.p.sum() == 29  # integer points with norm <= 3


def test_lattice_counts_q_doubles_p_below_half_lag():
    # any site closer to 0 than |h|/2 pairs with a distinct mirror site
    counts = lattice_counts(10.0, Lag.of(6, 0))
    under = counts.norm_sq < (6.0 / 2.0) ** 2
    assert np.array_equal(counts.q[under], 2 * counts.p[under])


def _brute_force_q(max_radius, h):
    """q(r) by a loop over a box that holds the balls around 0 and -h."""
    reach = int(max_radius) + 7
    counts = {}
    for x in range(-reach, reach + 1):
        for y in range(-reach, reach + 1):
            key = min(x * x + y * y, (x + h[0]) ** 2 + (y + h[1]) ** 2)
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_lattice_counts_q_is_symmetric_in_h_and_equals_brute_force():
    # every lag with |h_i| <= 6, so each sign pattern of the components
    for max_radius in (3.0, 5.5, 8.0):
        r2_max = int(max_radius * max_radius)
        for h in itertools.product(range(-6, 7), repeat=2):
            if h == (0, 0):
                continue
            counts = lattice_counts(max_radius, h)
            mirror = lattice_counts(max_radius, tuple(-c for c in h))
            brute = _brute_force_q(max_radius, h)
            assert counts.norm_sq.max() <= r2_max
            assert counts.q.tolist() == [brute.get(k, 0) for k in counts.norm_sq.tolist()], h
            assert np.array_equal(counts.q, mirror.q) and np.array_equal(counts.p, mirror.p)


def test_geometric_classsum_is_symmetric_in_h():
    for h in [(3, 4), (1, 0), (2, 1), (5, 2)]:
        for sign in itertools.product((1, -1), repeat=2):
            flipped = tuple(s * c for s, c in zip(sign, h))
            for g in (flipped, tuple(-c for c in flipped)):
                assert mma_geometric_extremogram_classsum(0.5, g, 8.0) == \
                    mma_geometric_extremogram_classsum(0.5, h, 8.0), g


@pytest.mark.parametrize("max_radius", [math.inf, math.nan, 0.0, -1.0])
def test_lattice_counts_refuses_a_radius_that_is_not_finite_and_positive(max_radius):
    with pytest.raises(ValueError, match="max_radius"):
        lattice_counts(max_radius, (1, 0))


def test_geometric_classsum_frozen_values():
    assert mma_geometric_extremogram_classsum(0.5, Lag.of(1, 0)) == pytest.approx(
        0.7733218855274804, abs=1e-12
    )
    assert mma_geometric_extremogram_classsum(0.5, Lag.of(1, 1)) == pytest.approx(
        0.706047629393296, abs=1e-12
    )
    assert mma_geometric_extremogram_classsum(0.5, Lag.of(2, 0)) == pytest.approx(
        0.6123126244423506, abs=1e-12
    )


def test_geometric_classsum_equals_minsum_enumeration():
    """Shell bookkeeping against the direct min/sum over the weight support."""
    for phi in (0.3, 0.5, 0.7):
        weights = WeightSpec.geometric(phi, truncation_radius=60.0)
        for off in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 4), (5, 0)]:
            direct = mma_extremogram(weights, Lag.of(*off))
            classsum = mma_geometric_extremogram_classsum(phi, Lag.of(*off))
            assert direct == pytest.approx(classsum, abs=1e-10), (phi, off)


def _mma_limit_by_dict(weights, lag, d):
    """Reference: the scalar loop over an offset -> weight dict."""
    offsets, wts = weights.support(d)
    table = {tuple(int(c) for c in off): float(w) for off, w in zip(offsets, wts)}
    h = lag.int_offset()
    num = 0.0
    for off, w in table.items():
        shifted = tuple(o + hh for o, hh in zip(off, h))
        num += min(w, table.get(shifted, 0.0))
    return num / float(wts.sum())


def test_mma_overlap_equals_the_dict_loop():
    planar = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    # lags past the support (numerator 0) as well as inside it
    far = [(51, 0), (0, -60), (40, 40), (10**6, 3), (2**63 - 1, 0)]
    cases = [
        (WeightSpec.geometric(0.5), planar[::4] + far),
        (WeightSpec.geometric(0.3, truncation_radius=6.5), planar + far),
        (WeightSpec.indicator_ball(3), planar + far),
        (WeightSpec.explicit({(0, 0): 1.0, (-2, 1): 2.5, (1, -3): 0.3, (-1, -1): 1.0}),
         planar + [(-3, 4), (4, -3), (9, 9)]),
        (WeightSpec.geometric(0.5), [(x,) for x in range(-45, 46, 3)]),
        (WeightSpec.explicit({(0,): 1.0, (-4,): 0.5, (3,): 2.0}), [(x,) for x in range(-9, 10)]),
        (WeightSpec.geometric(0.4, truncation_radius=5),
         [(0, 0, 0), (1, 0, 0), (1, -1, 1), (2, 3, -1), (0, 0, 11), (-6, 6, 0)]),
        (WeightSpec.explicit({(0, 0, 0): 1.0, (1, -2, 3): 4.0, (-1, 0, 2): 0.5}),
         [(0, 0, 0), (1, -2, 3), (-1, 2, -3), (-2, 2, -1), (5, 5, 5)]),
    ]
    for weights, lags in cases:
        law = MmaLaw(MmaPlan(weights, len(lags[0])))
        for h in lags:
            lag = Lag.of(*h)
            assert law.oracle_limit(lag) == _mma_limit_by_dict(weights, lag, lag.d), (
                weights.label(), h)


def test_geometric_pa_frozen_values():
    w = WeightSpec.geometric(0.5)
    assert mma_pa_extremogram(w, Lag.of(1, 0), M_3PCT).rho_pa == pytest.approx(
        0.7775254926255859, abs=1e-12
    )
    assert mma_pa_extremogram(w, Lag.of(1, 1), M_3PCT).rho_pa == pytest.approx(
        0.7117938417363153, abs=1e-12
    )
    assert mma_pa_extremogram(w, Lag.of(2, 0), M_3PCT).rho_pa == pytest.approx(
        0.6204324772525823, abs=1e-12
    )


# ---------------------------------------------------------------------------
# Husler-Reiss / Brown-Resnick


def test_husler_reiss_frozen_value():
    # F(1, 1, 1) = exp(-2 Phi(1))
    assert husler_reiss_cdf(1.0, 1.0, 1.0) == pytest.approx(
        0.1858733981481844, abs=1e-15
    )


def test_husler_reiss_bounds_and_limits():
    grid = [0.5, 1.0, 2.0, 5.0]
    for y1 in grid:
        for y2 in grid:
            f = husler_reiss_cdf(y1, y2, 0.7)
            indep = math.exp(-1.0 / y1 - 1.0 / y2)
            comon = math.exp(-1.0 / min(y1, y2))
            assert indep - 1e-15 <= f <= comon + 1e-15
    assert husler_reiss_cdf(1.0, 2.0, 0.0) == math.exp(-1.0)
    big = husler_reiss_cdf(1.0, 2.0, 1e8)
    assert big == pytest.approx(math.exp(-1.0 - 0.5), abs=1e-6)


def test_husler_reiss_guards():
    with pytest.raises(DomainError):
        husler_reiss_cdf(-1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        husler_reiss_cdf(1.0, 1.0, -0.5)


def test_br_limit_frozen_values():
    vario = VariogramSpec(theta=0.5, alpha=2.0)
    assert br_extremogram(Lag.of(1, 0), vario) == pytest.approx(
        0.47950012218695326, abs=1e-12
    )
    assert br_extremogram(Lag.of(2, 0), vario) == pytest.approx(
        0.157299207050285, abs=1e-12
    )
    assert br_extremogram(Lag.of(0, 0), vario) == 1.0


def test_br_limit_symmetry_and_scaling():
    vario = VariogramSpec(theta=0.5, alpha=1.5)
    h = Lag.of(1, 2)
    assert br_extremogram(h, vario) == br_extremogram(h.negate(), vario)
    # ray rescaling identity: c_b * rho(c_a, c_b) == c_a * rho(c_b, c_a)
    for c_a, c_b in [(1.0, 2.0), (0.5, 3.0), (2.0, 2.0)]:
        lhs = c_b * br_extremogram(h, vario, c_a=c_a, c_b=c_b)
        rhs = c_a * br_extremogram(h, vario, c_a=c_b, c_b=c_a)
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_br_asymmetric_rays_frozen():
    vario = VariogramSpec(theta=0.5, alpha=2.0)
    assert br_extremogram(Lag.of(1, 0), vario, c_a=1.0, c_b=2.0) == pytest.approx(
        0.32266374864913416, abs=1e-12
    )
    assert br_extremogram(Lag.of(1, 0), vario, c_a=2.0, c_b=1.0) == pytest.approx(
        0.6453274972982683, abs=1e-12
    )


def test_br_pa_frozen_values():
    vario = VariogramSpec(theta=0.5, alpha=2.0)
    assert br_pa_tau(Lag.of(1, 0), vario, m=M_3PCT) == pytest.approx(
        0.48395535136438833, abs=1e-12
    )
    assert br_pa_exceedance(1.0, M_3PCT) == pytest.approx(
        0.9851488817163949, abs=1e-12
    )
    pa1 = br_pa_extremogram(Lag.of(1, 0), vario, m=M_3PCT)
    assert pa1.rho_pa == pytest.approx(0.49125097774176796, abs=1e-12)
    pa2 = br_pa_extremogram(Lag.of(2, 0), vario, m=M_3PCT)
    assert br_pa_tau(Lag.of(2, 0), vario, m=M_3PCT) == pytest.approx(
        0.17760444616573556, abs=1e-12
    )
    assert pa2.rho_pa == pytest.approx(0.18028183299188316, abs=1e-12)


def test_br_pa_tau_zero_lag_degenerates_to_exceedance():
    vario = VariogramSpec(theta=0.5, alpha=2.0)
    tau0 = br_pa_tau(Lag.of(0, 0), vario, m=M_3PCT)
    assert tau0 == pytest.approx(br_pa_exceedance(1.0, M_3PCT), abs=1e-15)


def test_br_pa_approaches_limit():
    vario = VariogramSpec(theta=0.5, alpha=2.0)
    gaps = [
        abs(br_pa_extremogram(Lag.of(1, 0), vario, m=m).rho_pa - 0.47950012218695326)
        for m in (1e2, 1e4, 1e6)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-5


def test_br_guards():
    vario = VariogramSpec(theta=0.5, alpha=2.0)
    with pytest.raises(DomainError):
        br_extremogram(Lag.of(1, 0), vario, c_a=-1.0)
    with pytest.raises(DomainError):
        br_pa_tau(Lag.of(1, 0), vario, m=1.0)


def test_mma_law_computes_each_limit_once(monkeypatch):
    law = MmaLaw(MmaPlan(WeightSpec.geometric(0.5), 2))
    calls = []
    limit = law._limit
    monkeypatch.setattr(law, "_limit", lambda lag: calls.append(lag) or limit(lag))
    lag = Lag.of(1, 0)
    first = law.oracle_limit(lag)
    assert law.oracle_limit(Lag.of(1.0, 0.0)) == first
    assert law.oracle_pa(lag, 10.0) == mma_pa_extremogram(WeightSpec.geometric(0.5), lag, 10.0).rho_pa
    assert calls == [lag]


def _ulps_around(x: float, k: int = 4) -> list[float]:
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def test_ndtr_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(22)
    args = [*rng.normal(0.0, 1.0, 100_000), *rng.uniform(-45.0, 45.0, 100_000),
            0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-300]
    edges = [
        1.0, -1.0,  # erf for |x| < 1, erfc past it
        math.sqrt(2.0), -math.sqrt(2.0),  # erfc's own switch to erf below 1
        8.0 * math.sqrt(2.0), -8.0 * math.sqrt(2.0),  # P/Q below, R/S above
        -math.sqrt(2.0 * _MAXLOG),  # exp(-x^2/2) underflow exit
        -38.0, -38.5, -40.0,  # past it: 0
    ]
    for edge in edges:
        args += _ulps_around(edge)
    args = np.array(args)
    ours = np.array([_ndtr(float(x)) for x in args])
    theirs = ndtr(args)
    mismatched = args[ours != theirs]
    assert mismatched.size == 0, mismatched[:5]
    assert math.isnan(_ndtr(math.nan))
    # the underflow exit is live: exp(-19 * 38) is a subnormal > 0, yet Phi(-38) is 0
    edge = -math.sqrt(2.0 * _MAXLOG)
    assert _ndtr(math.nextafter(edge, 0.0)) > 0.0 and _ndtr(-38.0) == 0.0


def test_br_oracles_equal_their_scipy_ndtr_values(monkeypatch):
    grid = [(delta, c_a, c_b, m)
            for delta in (0.0, 1e-12, 0.03, 0.5, 1.0, 4.0, 60.0, 3000.0)
            for c_a in (0.5, 1.0, 3.0)
            for c_b in (0.25, 1.0, 7.0)
            for m in (1.5, 10.0, M_3PCT, 1e6)]

    def values():
        out = []
        for delta, c_a, c_b, m in grid:
            vario = VariogramSpec(theta=delta, alpha=1.0) if delta else VariogramSpec(1.0, 1.0)
            h = 1.0 if delta else 0.0
            out += [br_extremogram(h, vario, c_a, c_b), br_pa_tau(h, vario, c_a, c_b, m),
                    husler_reiss_cdf(c_a * m, c_b * m, delta)]
        return out

    ours = values()
    monkeypatch.setattr(oracles, "_ndtr", lambda x: float(ndtr(x)))
    assert values() == ours
