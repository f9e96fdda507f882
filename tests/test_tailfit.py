import numpy as np
import pytest

from polab import tailfit
from polab.errors import FitRefusedError
from polab.special import _minimize_bounded, _zeta
from polab.synth import sample_discrete_power_law
from polab.tailfit import burstiness, fit_power_law


@pytest.fixture(scope="module")
def pl_sample_35():
    rng = np.random.default_rng(42)
    return sample_discrete_power_law(3.5, 2, 100_000, rng)


class TestSampler:
    def test_support_respects_xmin(self):
        rng = np.random.default_rng(1)
        x = sample_discrete_power_law(2.5, 3, 10_000, rng)
        assert x.min() >= 3

    def test_tail_mass_matches_zeta_ratio(self):
        from scipy.special import zeta

        rng = np.random.default_rng(2)
        x = sample_discrete_power_law(2.5, 1, 200_000, rng)
        for k in (2, 5, 10):
            expected = zeta(2.5, k) / zeta(2.5, 1)
            got = (x >= k).mean()
            assert got == pytest.approx(expected, rel=0.05)


class TestPowerLawFit:
    def test_recovers_alpha_35(self, pl_sample_35):
        fit = fit_power_law(pl_sample_35)
        assert 3.4 <= fit.alpha <= 3.6
        assert fit.n_tail <= fit.n_total == 100_000
        assert 0.0 <= fit.ks_distance <= 1.0

    def test_recovers_alpha_20_xmin_1(self):
        rng = np.random.default_rng(7)
        x = sample_discrete_power_law(2.0, 1, 100_000, rng)
        fit = fit_power_law(x)
        assert 1.95 <= fit.alpha <= 2.05

    def test_stderr_tracks_asymptotic_rate(self, pl_sample_35):
        fit = fit_power_law(pl_sample_35)
        reference = (fit.alpha - 1) / np.sqrt(fit.n_tail)
        assert reference / 2 <= fit.stderr_alpha <= reference * 2

    def test_stderr_shrinks_on_nested_subsamples(self, pl_sample_35):
        fits = [fit_power_law(pl_sample_35[:n]) for n in (1_000, 10_000, 100_000)]
        errs = [f.stderr_alpha for f in fits]
        assert errs[0] > errs[1] > errs[2]

    def test_permutation_invariance(self, pl_sample_35):
        rng = np.random.default_rng(3)
        shuffled = pl_sample_35.copy()
        rng.shuffle(shuffled)
        a = fit_power_law(pl_sample_35)
        b = fit_power_law(shuffled)
        assert a.alpha == b.alpha and a.xmin == b.xmin and a.ks_distance == b.ks_distance

    def test_ones_plus_spike_keeps_xmin_low(self):
        x = np.array([1] * 99 + [7])
        fit = fit_power_law(x)
        assert fit.xmin <= 7
        assert fit.xmin == 1

    def test_refuses_small_samples(self):
        with pytest.raises(FitRefusedError, match="too few"):
            fit_power_law([1, 2, 3])

    def test_refuses_degenerate_input(self):
        with pytest.raises(FitRefusedError, match="degenerate"):
            fit_power_law([4] * 1000)

    def test_refuses_nonpositive(self):
        with pytest.raises(FitRefusedError, match="positive"):
            fit_power_law([0] * 60)

    def test_sample_floor_configurable(self):
        rng = np.random.default_rng(4)
        x = sample_discrete_power_law(3.0, 1, 40, rng)
        with pytest.raises(FitRefusedError):
            fit_power_law(x)
        fit = fit_power_law(x, min_samples=30, min_tail=5)
        assert fit.alpha > 1

    def test_geometric_fits_worse_than_power_law(self, pl_sample_35):
        # comparative diagnostic: reported, the gap itself is not a contract
        rng = np.random.default_rng(5)
        geom = rng.geometric(0.3, 100_000)
        fit_geom = fit_power_law(geom)
        fit_pl = fit_power_law(pl_sample_35)
        print(
            f"ks geometric={fit_geom.ks_distance:.4f} vs power law={fit_pl.ks_distance:.4f}"
        )
        assert fit_geom.ks_distance > 0 and fit_pl.ks_distance > 0


class TestBurstiness:
    def test_constant_lengths_are_perfectly_regular(self):
        out = burstiness([5, 5, 5, 5])
        assert out.b == -1.0
        assert out.std_tau == 0.0

    def test_empty_is_missing(self):
        assert burstiness([]) is None

    def test_single_sample_has_no_spread(self):
        assert burstiness([3]).b == -1.0

    def test_exponential_lengths_are_neutral(self):
        rng = np.random.default_rng(6)
        x = rng.exponential(1.0, 100_000)
        out = burstiness(x)
        assert abs(out.b) <= 0.02

    def test_planted_spread_ratio(self):
        # two-point mixture with sigma/mu = 3 puts B at (3-1)/(3+1) = 0.5
        rng = np.random.default_rng(8)
        q = 0.05
        a = 1.0 - 3.0 * np.sqrt(q / (1 - q))
        b = 1.0 + 3.0 * np.sqrt((1 - q) / q)
        x = np.where(rng.random(100_000) < q, b, a)
        out = burstiness(x)
        assert out.b == pytest.approx(0.5, abs=0.02)
        plug_in = (out.std_tau - out.mean_tau) / (out.std_tau + out.mean_tau)
        assert out.b == plug_in

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.integers(1, 50, 500).astype(float)
        base = burstiness(x).b
        for c in (0.25, 3.0, 1e6):
            assert burstiness(c * x).b == pytest.approx(base, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.uniform(0.1, 100, rng.integers(1, 200))
            out = burstiness(x)
            assert -1.0 <= out.b <= 1.0


# -- the scipy-free fit against scipy itself ------------------------------------
# scipy is only the oracle here: the fit's zeta and minimiser are ports of
# scipy's and must give the same bits.


class TestScipyPorts:
    def test_zeta_is_bitwise_scipy(self):
        from scipy.special import zeta

        rng = np.random.default_rng(11)
        n = 60_000
        x = np.concatenate([
            1.0 + rng.exponential(2.0, n),  # exponents the fit visits, 1 < x
            1.000001 + rng.random(n) * 1e-3,  # next to the pole
            rng.uniform(1.0, 25.0, n),
        ])
        q = np.concatenate([
            np.floor(np.exp(rng.uniform(0.0, 14.0, n))),  # integer cutoffs
            rng.uniform(1.0, 50.0, n),
            np.exp(rng.uniform(np.log(1e7), np.log(1e12), n)),  # across the q > 1e8 asymptote
        ])
        mine = np.array([_zeta(a, b) for a, b in zip(x.tolist(), q.tolist())])
        assert (q > 1e8).sum() > 20_000
        assert np.array_equal(mine.view(np.int64), zeta(x, q).view(np.int64))

    @pytest.mark.parametrize("case", range(12))
    def test_minimiser_is_scipy_bounded(self, case):
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(case)
        lo, hi = 1.000001, 25.0
        if case < 6:  # the fit's own objective on a power-law tail
            tail = sample_discrete_power_law(rng.uniform(1.3, 4.0), 1 + case, 500, rng)
            n, slog, xmin = len(tail), float(np.log(tail).sum()), 1 + case
            f = lambda a: float(n * np.log(_zeta(a, xmin)) + a * slog)
        elif case < 10:  # smooth objectives with a minimum inside or at a bound
            c, k = rng.uniform(lo - 3, hi + 3), rng.uniform(0.1, 10.0)
            f = lambda a: k * (a - c) ** 2 + np.sin(3 * a)
        else:  # flat: every step ties
            f = lambda a: 1.0
        mine = _minimize_bounded(f, lo, hi, xatol=1e-8)
        ref = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-8})
        assert float(mine) == float(ref.x)


def _scipy_fit(lengths, min_samples=50, min_tail=10, xmin_quantile=90.0):
    """The fit as it was written on scipy: zeta and minimize_scalar from
    scipy, and the KS distance over every integer of the tail's range up to
    2**20 values (above that, at observed values and one below each)."""
    from scipy import optimize, special

    x = np.sort(np.asarray(lengths, dtype=np.int64))
    distinct = np.unique(x)
    cap = np.percentile(x, xmin_quantile)
    candidates = distinct[distinct <= cap]
    best = None
    for xm in candidates.tolist():
        tail = x[np.searchsorted(x, xm, side="left"):]
        if len(tail) < min_tail or tail[0] == tail[-1]:
            continue
        n, slog = len(tail), float(np.log(tail).sum())
        res = optimize.minimize_scalar(
            lambda a: n * np.log(special.zeta(a, xm)) + a * slog,
            bounds=(1.000001, 25.0), method="bounded", options={"xatol": 1e-8},
        )
        alpha = float(res.x)
        xmax = int(tail[-1])
        if xmax - xm <= (1 << 20):
            xs = np.arange(xm, xmax + 1, dtype=np.float64)
        else:
            vals = np.unique(tail)
            xs = np.unique(np.concatenate([vals, vals - 1]))
            xs = xs[xs >= xm].astype(np.float64)
        fitted = 1.0 - special.zeta(alpha, xs + 1.0) / special.zeta(alpha, xm)
        empirical = np.searchsorted(tail, xs, side="right") / len(tail)
        ks = float(np.abs(empirical - fitted).max())
        if best is None or ks < best[0]:
            best = (ks, xm, alpha, len(tail))
    ks, xmin, alpha, n_tail = best
    lz = lambda a: np.log(special.zeta(a, xmin))
    h = 1e-4
    d2 = (lz(alpha + h) - 2.0 * lz(alpha) + lz(alpha - h)) / (h * h)
    stderr = float(1.0 / np.sqrt(n_tail * d2)) if d2 > 0 else float("nan")
    return tailfit.PowerLawFit(alpha, xmin, stderr, ks, n_tail, len(x))


@pytest.fixture(scope="module")
def reference_samples():
    rng = np.random.default_rng(2024)
    out = []
    for k in range(8):  # light tails, geometric noise
        out.append(sample_discrete_power_law(rng.uniform(2.0, 4.0), 1 + k % 4, 3_000, rng))
        out.append(rng.geometric(rng.uniform(0.1, 0.6), 2_000))
    for g in (4, 8):  # masses at 1 and g with nothing between: the fitted CDF
        # climbs through the empty stretch, and the KS sup sits at g - 1
        lengths = np.concatenate([np.ones(500, np.int64), np.full(400, g),
                                  sample_discrete_power_law(2.0, g + 1, 100, rng)])
        out.append(rng.permutation(lengths))
    wide = 0
    while wide < 6:  # heavy tails whose range passes 1e5 (and stays cheap to scan)
        x = sample_discrete_power_law(rng.uniform(1.4, 1.8), 1, 300, rng)
        if 100_000 < x.max() <= 300_000:
            out.append(x)
            wide += 1
    return out


@pytest.mark.parametrize("k", range(24))
def test_fit_matches_the_scipy_fit_field_for_field(reference_samples, k):
    x = reference_samples[k]
    got, ref = fit_power_law(x), _scipy_fit(x)
    assert (got.alpha, got.xmin, got.ks_distance, got.n_tail, got.n_total) == (
        ref.alpha, ref.xmin, ref.ks_distance, ref.n_tail, ref.n_total
    )
    assert got.stderr_alpha == ref.stderr_alpha or (
        np.isnan(got.stderr_alpha) and np.isnan(ref.stderr_alpha)
    )
