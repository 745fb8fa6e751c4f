"""Exact screens of the step against the formulas they replace.

Each step takes its masked or helper path (``where=`` calls, ``np.sinc``,
``np.copyto``) only when its own input needs it. The functions named
``*_before`` below are the formulas the screened code replaced, kept as
oracles: every branch must give their result bit for bit.
"""

import math

import numpy as np
import pytest

from rendezsim import RegionFlag, run, sim
from rendezsim.control import control_laws
from rendezsim.fields import region_of
from rendezsim.gradients import DISTANCE_FLOOR, JetKernel, _quotient_jet
from rendezsim.model import TWO_PI, wrap_angles

from conftest import make_states, small_config


def wrap_angles_before(theta):
    wrapped = np.asarray(np.fmod(theta, TWO_PI))
    np.subtract(wrapped, TWO_PI, out=wrapped, where=wrapped > math.pi)
    np.add(wrapped, TWO_PI, out=wrapped, where=wrapped <= -math.pi)
    return wrapped


def integrate_before(poses, vs, ws, dt):
    half = 0.5 * dt * ws
    chord = dt * vs * np.sinc(half / np.pi)
    mid = poses[:, 2] + half
    out = np.empty(poses.shape)
    out[:, 0] = poses[:, 0] + chord * np.cos(mid)
    out[:, 1] = poses[:, 1] + chord * np.sin(mid)
    out[:, 2] = wrap_angles_before(poses[:, 2] + dt * ws)
    return out


def quotient_jet_before(alpha, gamma, dgamma, lap_gamma, beta, dbeta, ddbeta):
    inv_alpha = 1.0 / alpha
    gamma_a = gamma ** alpha
    s = gamma_a + beta
    root = s ** inv_alpha
    e = alpha * s ** (inv_alpha + 1.0)
    ab = alpha * beta
    f = (ab * dgamma - gamma * dbeta) / e
    dpow = alpha * np.power(gamma, alpha - 1.0, out=np.zeros(np.shape(gamma)),
                            where=gamma > 0.0)
    de = (alpha + 1.0) * root * (dpow * dgamma + dbeta)
    a1 = alpha - 1.0
    diag = (a1 * dgamma * dbeta + ab * lap_gamma - gamma * ddbeta[::2]
            - f * de) / e
    cross = dgamma * dbeta[::-1]
    fe = f * de[::-1]
    hxy = (0.5 * (a1 * (cross[0] + cross[1]) - fe[0] - fe[1])
           - gamma * ddbeta[1]) / e
    return gamma / root, f, (diag[0], hxy, diag[1]), e


def desired_heading_before(grad, fallback, floor):
    theta_d = fallback.copy()
    descent = np.negative(grad)
    np.arctan2(descent[1], descent[0], out=theta_d,
               where=np.hypot(grad[0], grad[1]) > floor)
    return theta_d


def region_of_before(leader_position, cfg):
    gap = leader_position - cfg.goal_position
    if math.hypot(gap[0], gap[1]) < cfg.switch_distance:
        return RegionFlag.RENDEZVOUS
    return RegionFlag.COLLISION_FREE


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


PI = math.pi


class TestWrapAngles:
    @pytest.mark.parametrize("theta", [
        # every angle inside (-pi, pi): the screen returns them as they are
        [0.0, -0.0, 1.0, -3.0, math.nextafter(PI, 0.0),
         math.nextafter(-PI, 0.0)],
        # the turns: +-pi, +-3 pi, signed zeros, values just past +-pi
        [PI, -PI, 3 * PI, -3 * PI, 0.0, -0.0, math.nextafter(PI, 4.0),
         math.nextafter(-PI, -4.0), 2 * PI, -2 * PI, 1e6, -1e6],
        # a NaN row sends everything to the turns
        [0.5, math.nan, -0.0],
        # pi and -pi beside angles inside: -pi turns, pi does not
        [-PI, 0.5], [PI, -0.25],
    ])
    def test_matches_the_masked_form(self, theta):
        theta = np.array(theta)
        expected = wrap_angles_before(theta)
        assert same_bits(wrap_angles(theta), expected)
        out = np.full(len(theta), 7.0)
        assert wrap_angles(theta, out=out) is out
        assert same_bits(out, expected)

    def test_strided_output(self):
        theta = np.array([0.25, -0.0, 4.0])
        poses = np.zeros((3, 3))
        wrap_angles(theta, out=poses[:, 2])
        assert same_bits(poses[:, 2], wrap_angles_before(theta))


class TestIntegrateInline:
    def _case(self, ws):
        rng = np.random.default_rng(5)
        n = len(ws)
        poses = np.column_stack([rng.uniform(-5, 5, (n, 2)),
                                 rng.uniform(-3, 3, n)])
        return poses, rng.uniform(-2.0, 2.0, n), np.array(ws)

    @pytest.mark.parametrize("ws", [
        [0.3, -2.0, 1e-12, 40.0, -1e-300],       # every turn nonzero
        [0.3, 0.0, -0.0, 1e-12, -7.5],           # zero and nonzero turns
        [0.0, 0.0],                               # none turns
        [0.3, math.nan, -1.0],                   # a NaN row
    ])
    def test_matches_np_sinc(self, ws):
        poses, vs, ws = self._case(ws)
        for dt in (0.005, 0.1):
            got = sim._integrate_all(poses, vs, ws, dt)
            assert same_bits(got, integrate_before(poses, vs, ws, dt))

    def test_many_turns_match_np_sinc(self):
        # half turns up to 1.5 rad, where sin(h) / h differs from np.sinc's
        # sin(pi (h / pi)) / (pi (h / pi)) in the last bit of many rows
        poses, vs, _ = self._case(range(2000))
        ws = np.random.default_rng(6).uniform(-30.0, 30.0, 2000)
        got = sim._integrate_all(poses, vs, ws, 0.1)
        assert same_bits(got, integrate_before(poses, vs, ws, 0.1))


class TestQuotientPower:
    @pytest.mark.parametrize("alpha", [1.0, 1.2, 2.0])
    def test_plain_power_matches_the_masked_one(self, alpha):
        rng = np.random.default_rng(3)
        n = 6
        gamma = rng.uniform(0.0, 3.0, n)
        dgamma = rng.normal(size=(2, n))
        # at gamma = 0 the gradient of gamma vanishes, with either sign
        gamma[1] = gamma[2] = 0.0
        dgamma[:, 1] = 0.0
        dgamma[:, 2] = -0.0
        gamma[4] = math.nan
        args = (alpha, gamma, dgamma, np.full(n, 4.0),
                rng.uniform(0.1, 1.0, n), rng.normal(size=(2, n)),
                rng.normal(size=(3, n)))
        got = _quotient_jet(*args)
        expected = quotient_jet_before(*args)
        for a, b in zip(got[:2] + got[3:], expected[:2] + expected[3:]):
            assert same_bits(a, b)
        for a, b in zip(got[2], expected[2]):
            assert same_bits(a, b)


class TestFollowerDivides:
    """An edge under DISTANCE_FLOOR, or a NaN one, sends every edge to the
    masked divides; the followers that do not sense it must come out as on
    the unmasked path, bit for bit."""

    def _kernel_inputs(self):
        rng = np.random.default_rng(8)
        n = 7
        poses = np.column_stack([rng.uniform(-2, 2, (n, 2)),
                                 rng.uniform(-3, 3, n)])
        mask = rng.random((n, n)) < 0.6
        np.fill_diagonal(mask, False)
        mask[np.arange(1, n), np.arange(n - 1)] = True  # a parent each
        cfg = small_config(
            n_robots=n, linear_gains=[1.0] * n, angular_gains=[1.0] * n,
            initial_states=make_states(poses.tolist()))
        upper = np.triu_indices(n, 1)
        offsets, dist = sim._offsets(poses, upper)
        return cfg, mask, poses, offsets, dist, upper

    @pytest.mark.parametrize("region", [RegionFlag.COLLISION_FREE,
                                        RegionFlag.RENDEZVOUS])
    @pytest.mark.parametrize("bad", [1e-10, 0.0, math.nan])
    def test_unaffected_followers_match(self, region, bad):
        cfg, mask, poses, offsets, dist, upper = self._kernel_inputs()
        kernel = JetKernel(cfg, mask)
        plain = [np.array(x, dtype=float) for x in
                 kernel(poses[0, :2], offsets, dist, region)]
        # pair (a, b) of one sensed edge gets the bad distance
        pair = int(np.flatnonzero(mask[upper] | mask.T[upper])[-1])
        a, b = upper[0][pair], upper[1][pair]
        offsets, dist = offsets.copy(), dist.copy()
        dist[pair] = bad
        offsets[:, pair] = bad / math.sqrt(2.0)
        masked = [np.array(x, dtype=float) for x in
                  kernel(poses[0, :2], offsets, dist, region)]
        touched = {i for i, j in ((a, b), (b, a)) if mask[i, j]}
        keep = [c for c in range(len(mask)) if c not in touched]
        assert touched and len(keep) > 2
        for x, y in zip(plain, masked):
            assert same_bits(x[..., keep], y[..., keep])
        if not math.isnan(bad):  # under the floor: the edge adds no slope
            assert bad < DISTANCE_FLOOR
            assert all(np.isfinite(x).all() for x in masked)


class TestDesiredHeading:
    def test_floor_and_nan_rows_hold_the_fallback(self):
        floor = 1e-6
        # norms above, at and under the floor, NaN and zero
        grad = np.array([[0.3, floor, math.nan, -2.0, 0.0, 1e-7],
                         [-0.4, 0.0, 1.0, 0.0, -0.0, 0.0]])
        fallback = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        hess = np.ones((3, 6))
        theta = np.linspace(-3.0, 3.0, 6)
        gains = np.full(6, 2.0), np.full(6, 8.0)
        held = [1, 2, 4, 5]
        out = control_laws(grad, hess, theta, fallback, *gains, floor)
        assert same_bits(out[2], desired_heading_before(grad, fallback, floor))
        assert same_bits(out[2][held], fallback[held])
        steep = [0, 3]  # no row held: the unmasked arctan2
        out = control_laws(grad[:, steep], hess[:, steep], theta[steep],
                           fallback[steep], gains[0][steep], gains[1][steep],
                           floor)
        assert same_bits(out[2], desired_heading_before(
            grad[:, steep], fallback[steep], floor))


class TestRegionOf:
    def test_matches_the_array_form(self, params_s5):
        switch = params_s5.switch_distance
        spots = [(switch, 0.0), (math.nextafter(switch, 0.0), 0.0),
                 (0.0, -switch), (1.0, 1.0), (1.0, 1.2), (-30.0, 2.0),
                 (0.9, math.sqrt(switch ** 2 - 0.81))]
        for spot in spots:
            for position in (np.array(spot), list(spot)):
                assert (region_of(position, params_s5)
                        is region_of_before(np.asarray(position), params_s5))


class TestStopTest:
    """The informed robot's goal distance screens the convergence test: a
    run stops at the first step where the unscreened predicate holds."""

    @staticmethod
    def predicate(log, cfg):
        gap = log.poses[:, :, :2] - cfg.goal_position
        dist = np.hypot(gap[..., 0], gap[..., 1])
        holds = ((dist.max(axis=1) < cfg.position_tolerance)
                 & (np.abs(log.controls[:, :, 3]).max(axis=1)
                    < cfg.heading_tolerance))
        return dist, holds

    def converged_run(self, poses, **overrides):
        n = len(poses)
        cfg = small_config(n_robots=n, linear_gains=[2.0] + [4.0] * (n - 1),
                           angular_gains=[8.0] * n,
                           initial_states=make_states(poses), horizon=60.0,
                           **overrides)
        log = run(cfg)
        dist, holds = self.predicate(log, cfg)
        assert log.n_steps < round(cfg.horizon / cfg.time_step)
        assert np.flatnonzero(holds)[0] == log.n_steps - 1
        return cfg, dist

    @pytest.mark.parametrize("first", ["follower", "informed"])
    def test_stops_at_the_first_converged_step(self, first):
        poses = {"follower": [(-1.0, 0.2, 0.0), (0.01, 0.0, 0.0)],
                 "informed": [(-0.02, 0.0, 0.0), (-1.0, 0.5, 0.0)]}[first]
        cfg, dist = self.converged_run(poses)
        # the named robot is inside the tolerance while the other is not
        arrived = dist < cfg.position_tolerance
        named = 1 if first == "follower" else 0
        assert np.any(arrived[:, named] & ~arrived[:, 1 - named])

    def test_screen_passes_at_the_tolerance_itself(self):
        # with the heading test always met, the informed robot stops on the
        # first step inside the position tolerance, just under it
        cfg, dist = self.converged_run([(-1.0, 0.5, 0.0)],
                                       heading_tolerance=4.0)
        assert 0.9 * cfg.position_tolerance < dist[-1, 0]
