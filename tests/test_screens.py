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
from rendezsim import gradients
from rendezsim.fields import logistic_negated
from rendezsim.gradients import (DISTANCE_FLOOR, JetKernel, _quotient_jet,
                                 quotient_rows)
from rendezsim.model import TWO_PI, turn_angles, wrap_angles

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


def quotient_jet_before(alpha, gamma, dgamma, lap_gamma, beta, dbeta, ddbeta,
                        value_beta=None):
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
    if value_beta is not None:
        root = (gamma_a + value_beta) ** inv_alpha
    return gamma / root, f, (diag[0], hxy, diag[1]), e


def logistic_array_before(z):
    """The step's logistic before the screen, of z = -y."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, ez) / (1.0 + ez)


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


class TestQuotientRule:
    """The quotient rule over duplicated rows, with its constants as rows
    and beta's Hessian as (xx, yy, xy), against the formula over (n,) rows
    and scalar constants."""

    @staticmethod
    def inputs(n, seed=3):
        rng = np.random.default_rng(seed)
        gamma = rng.uniform(0.0, 3.0, n)
        dgamma = rng.normal(size=(2, n))
        # at gamma = 0 the gradient of gamma vanishes, with either sign
        gamma[1] = gamma[2] = 0.0
        dgamma[:, 1] = 0.0
        dgamma[:, 2] = -0.0
        gamma[4] = math.nan
        return (gamma, dgamma, rng.uniform(2.0, 8.0, n),
                rng.uniform(0.1, 1.0, n), rng.normal(size=(2, n)),
                rng.normal(size=(3, n)), rng.uniform(0.1, 1.0, n))

    @staticmethod
    def check(got, expected):
        for a, b in zip(got[:2] + got[3:], expected[:2] + expected[3:]):
            assert same_bits(a, b)
        for a, b in zip(got[2], expected[2]):
            assert same_bits(a, b)

    @pytest.mark.parametrize("value", [False, True])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 2.0, 3.0])
    def test_equal_shapes_match_the_broadcast_form(self, alpha, value):
        n = 6
        gamma, dgamma, lap, beta, dbeta, ddbeta, value_beta = self.inputs(n)
        value_beta = value_beta if value else None
        got = _quotient_jet(
            alpha, quotient_rows(alpha, n), np.array([gamma] * 3), dgamma,
            np.array([lap, lap]), np.array([beta, beta]), dbeta,
            ddbeta[[0, 2, 1]], value_beta)
        expected = quotient_jet_before(alpha, gamma, dgamma, lap, beta,
                                       dbeta, ddbeta, value_beta)
        self.check(got, expected)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 2.0, 3.0])
    def test_one_robot_takes_floats(self, alpha):
        gamma, dgamma, lap, beta, dbeta, ddbeta, _ = self.inputs(6)
        for i in (0, 3, 5):
            got = _quotient_jet(
                alpha, quotient_rows(alpha), float(gamma[i]), dgamma[:, i],
                float(lap[i]), float(beta[i]), dbeta[:, i],
                ddbeta[[0, 2, 1], i])
            expected = quotient_jet_before(
                alpha, float(gamma[i]), dgamma[:, i], float(lap[i]),
                float(beta[i]), dbeta[:, i], ddbeta[:, i])
            self.check(got, expected)


def logistic_before(y, minus_zero, one):
    """``logistic_negated`` by the formula it replaced."""
    return logistic_array_before(-y)


class TestLogisticNegated:
    SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0,
               math.nan, -math.nan]

    @staticmethod
    def negated(z):
        y = -np.asarray(z, dtype=float)
        return logistic_negated(y, np.full(y.shape, -0.0), np.ones(y.shape))

    @pytest.mark.parametrize("z", SPECIAL)
    def test_special_values(self, z):
        # alone, and beside a value that sends the row to the other path
        for row in ([z], [z, 1.0], [z, -1.0]):
            assert same_bits(self.negated(row),
                             logistic_array_before(np.array(row)))

    def test_random_arguments(self):
        rng = np.random.default_rng(11)
        z = np.concatenate([rng.normal(0.0, 20.0, (2, 500)),
                            rng.uniform(-1e-15, 1e-15, (2, 50))], axis=1)
        assert same_bits(self.negated(z), logistic_array_before(z))
        # every argument >= 0: the screened branch
        assert same_bits(self.negated(np.abs(z)),
                         logistic_array_before(np.abs(z)))

    def test_nan_signs(self):
        nan = np.array([math.nan, -math.nan, np.copysign(math.nan, -1.0)])
        for z in (nan, nan[::-1]):
            assert same_bits(self.negated(z), logistic_array_before(z))


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


class TestKernelLogistic:
    """While avoiding, a sensed pair under margin/2 gives B(d) a positive
    argument, so the kernel's logistic takes its general path; the jets must
    equal those made with the formula it replaced."""

    @pytest.mark.parametrize("mode", ["full", "paper"])
    def test_pair_under_half_margin(self, monkeypatch, mode):
        poses = np.array([[-4.0, -2.0, 0.5], [-4.8, -2.5, -1.0],
                          [-4.7, -2.45, 2.0], [-3.4, -2.9, 0.0]])
        n = len(poses)
        mask = ~np.eye(n, dtype=bool)
        cfg = small_config(
            n_robots=n, gradient_mode=mode, linear_gains=[1.0] * n,
            angular_gains=[1.0] * n, initial_states=make_states(poses))
        offsets, dist = sim._offsets(poses, np.triu_indices(n, 1))
        assert dist.min() < 0.5 * cfg.collision_margin
        args = (poses[0, :2].tolist(), offsets, dist,
                RegionFlag.COLLISION_FREE)
        kernel = JetKernel(cfg, mask)
        positive = []

        def spy(y, minus_zero, one):
            positive.append(np.count_nonzero(y > 0.0))
            return logistic_negated(y, minus_zero, one)
        monkeypatch.setattr(gradients, "logistic_negated", spy)
        got = [np.array(x, dtype=float) for x in kernel(*args)]
        assert positive == [2]  # the pair, once from each side
        monkeypatch.setattr(gradients, "logistic_negated", logistic_before)
        expected = [np.array(x, dtype=float) for x in kernel(*args)]
        for a, b in zip(got, expected):
            assert same_bits(a, b)


class TestHeadingError:
    """control_laws wraps theta - theta_d with one turn and no fmod: the
    fmod form's bits wherever theta is wrapped, in (-pi, pi], and theta_d
    lies in [-pi, pi]."""

    EDGES = [PI, -PI, math.nextafter(PI, 0.0), math.nextafter(PI, 4.0),
             math.nextafter(-PI, 0.0), math.nextafter(-PI, -4.0), 0.0, -0.0,
             math.nextafter(TWO_PI, 0.0), -math.nextafter(TWO_PI, 0.0),
             TWO_PI, math.nan, 3.5, -3.5, 6.0, -6.0]

    def test_one_turn_matches_the_fmod_form(self):
        x = np.array(self.EDGES)
        assert same_bits(turn_angles(x), wrap_angles_before(x))
        out = np.empty(len(x))
        assert turn_angles(x, out=out) is out
        assert same_bits(out, wrap_angles_before(x))

    def test_heading_error_matches_the_fmod_form(self):
        up, down = math.nextafter(-PI, 0.0), math.nextafter(PI, 0.0)
        pairs = [(PI, -PI), (PI, 0.0), (PI, up), (down, -PI), (up, 0.0),
                 (up, down), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0),
                 (0.5, -3.0), (-3.0, 0.5), (-1.0, PI), (1.0, -PI),
                 (PI, PI), (up, up), (math.nan, 0.5)]
        theta, held = (np.array(c) for c in zip(*pairs))
        n = len(theta)
        # a zero gradient holds theta_d at the fallback
        out = control_laws(np.zeros((2, n)), np.zeros((3, n)), theta, held,
                           np.ones(n), np.ones(n), np.full(n, 1e-6),
                           pi=np.full(n, PI))
        assert same_bits(out[2], held)
        assert same_bits(out[3], wrap_angles_before(theta - held))


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
