"""Exact screens of the step against the formulas they replace.

Each step takes its masked or helper path (``where=`` calls, ``np.sinc``,
``np.copyto``) only when its own input needs it. The functions named
``*_before`` below are the formulas the screened code replaced, kept as
oracles: every branch must give their result bit for bit. A screen reads
its boolean row as bytes, and the powers take stride-0 exponents; both
are held to the forms they replaced here too.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rendezsim import RegionFlag, run, sim
from rendezsim.control import ControlWork, control_laws
from rendezsim.fields import region_of
from rendezsim import gradients
from rendezsim.fields import edge_factors, logistic_negated
from rendezsim.gradients import (DISTANCE_FLOOR, JetKernel, QuotientWork,
                                 _one_robot_jet, _quotient_jet, exponent_row)
from rendezsim.model import TWO_PI, turn_angles, turn_rows

from conftest import (held_headings, integrator_wrap, make_states,
                      small_config, topology)
from oracles import integrate_copy, plain_step


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
    s = gamma ** alpha + beta
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


def negated_but_nan_signs(descent, grad):
    """Whether ``descent`` is ``grad`` negated, bit for bit where ``grad``
    is a number, and NaN where it is NaN: the kernel's descent is N / (-e),
    and a NaN's sign bit there may differ from that of -(N / e)."""
    grad = np.asarray(grad)
    nan = np.isnan(grad)
    return (np.array_equal(np.isnan(descent), nan)
            and same_bits(np.negative(descent)[~nan], grad[~nan]))


def jet_kernel(cfg, mask, upper, pairs):
    """A JetKernel on the pair rows ``pairs`` whose Hessian rows are its
    own."""
    return JetKernel(cfg, mask, upper, pairs, np.empty((3, len(mask))))


def pair_rows(poses, upper):
    """The pair rows of ``poses``' pairs ``upper``, by a PairWork whose take
    copies no lead values."""
    n, p = len(poses), len(upper[0])
    return sim._offsets(sim.PairWork(poses, upper, np.empty(5 * p + 5 * n),
                                     np.arange(0)))


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
    """The step screen's heading wrap (``sim._screen``), taken only when its
    pose part fails, against the masked form it replaced."""

    @pytest.mark.parametrize("theta", [
        # every angle inside (-pi, pi): the screen passes them as they are
        [0.0, -0.0, 1.0, -3.0, math.nextafter(PI, 0.0),
         math.nextafter(-PI, 0.0)],
        # the turns: +-pi, +-3 pi, signed zeros, values just past +-pi
        [PI, -PI, 3 * PI, -3 * PI, 0.0, -0.0, math.nextafter(PI, 4.0),
         math.nextafter(-PI, -4.0), 2 * PI, -2 * PI, 1e6, -1e6],
        # a NaN row sends everything to the turns
        [0.5, math.nan, -0.0],
        # pi and -pi beside angles inside: -pi turns, pi does not
        [-PI, 0.5], [PI, -0.25],
        # infinities and huge magnitudes come out NaN and wrapped
        [math.inf, -math.inf, 1e300, -1e300, -0.0],
    ])
    def test_matches_the_masked_form(self, theta):
        theta = np.array(theta)
        with np.errstate(invalid="ignore"):
            out = integrator_wrap(theta)
            expected = wrap_angles_before(theta)
        assert same_bits(out, expected)

    def test_strided_output(self):
        # the wrap writes the poses' heading column in place, a strided
        # row, and leaves x and y as the step moved them
        theta = np.array([0.25, -0.0, 4.0])
        controls, work, screen = held_headings(theta)
        assert not work.poses[:, 2].flags.contiguous
        sim._integrate_all(work)
        assert not sim._screen(screen)  # it watches nothing
        assert same_bits(work.poses[:, 2], wrap_angles_before(theta))
        assert same_bits(work.poses[:, :2], np.zeros((3, 2)))

    def test_a_screen_failed_on_x_keeps_the_headings(self):
        # the wrap runs on every heading when any coordinate fails the
        # screen; fmod and the turn leave those inside (-pi, pi) as they
        # are, and the non-finite x is named after the wrap
        theta = np.array([0.0, -0.0, 1.0, -3.0, math.nextafter(PI, 0.0),
                          math.nextafter(-PI, 0.0), math.ulp(0.0)])
        controls, work, screen = held_headings(theta)
        sim._integrate_all(work)
        work.poses[2, 0] = math.nan
        with pytest.raises(sim.NonFiniteState, match="robot 3 at"):
            sim._screen(screen)
        assert same_bits(work.poses[:, 2], theta)


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
            got = integrate_copy(poses, np.array([vs, ws]), dt)
            assert same_bits(got, integrate_before(poses, vs, ws, dt))

    def test_many_turns_match_np_sinc(self):
        # half turns up to 1.5 rad, where sin(h) / h differs from np.sinc's
        # sin(pi (h / pi)) / (pi (h / pi)) in the last bit of many rows
        poses, vs, _ = self._case(range(2000))
        ws = np.random.default_rng(6).uniform(-30.0, 30.0, 2000)
        got = integrate_copy(poses, np.array([vs, ws]), 0.1)
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
                rng.normal(size=(3, n)))

    @staticmethod
    def check(got, expected):
        # the descent -grad comes as (y, y, x, x) and the Hessian as (yy,
        # xy, xx), as control_laws takes them
        phi, descent, hess, e = got
        assert negated_but_nan_signs(descent,
                                     np.repeat(expected[1][::-1], 2, axis=0))
        for a, b in zip((phi, e, *hess), (expected[0], expected[3],
                                          *expected[2][::-1])):
            assert same_bits(a, b)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 2.0, 3.0])
    def test_equal_shapes_match_the_broadcast_form(self, alpha):
        gamma, dgamma, lap, beta, dbeta, ddbeta = self.inputs(6)
        # six robots, then one robot's rows, as the scalar references take
        # them: NaN and gamma = 0 included
        for cols in (slice(None), *(slice(i, i + 1) for i in range(6))):
            inputs = (gamma[cols], dgamma[:, cols], lap[cols], beta[cols],
                      dbeta[:, cols], ddbeta[:, cols])
            got = _quotient_jet(QuotientWork(alpha, len(inputs[0])).load(
                *inputs))
            self.check(got, quotient_jet_before(alpha, *inputs))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 2.0, 3.0])
    def test_one_robot_takes_floats(self, alpha):
        # the scalar references' entry, gamma, lap and beta as floats, gives
        # the formula over that robot's one-element rows (float ** rounds
        # differently from the rows' power at alpha = 3)
        gamma, dgamma, lap, beta, dbeta, ddbeta = self.inputs(6)
        for i in range(6):
            phi, grad, hess, e = _one_robot_jet(
                alpha, float(lap[i]), float(gamma[i]), dgamma[:, i],
                float(beta[i]), dbeta[:, i], ddbeta[:, i])
            cols = slice(i, i + 1)
            phi_rows, f, (xx, xy, yy), e_rows = quotient_jet_before(
                alpha, gamma[cols], dgamma[:, cols], lap[cols], beta[cols],
                dbeta[:, cols], ddbeta[:, cols])
            assert same_bits(phi, phi_rows[0])
            # the gradient is the kernel's descent negated
            assert negated_but_nan_signs(-grad, f[:, 0])
            assert same_bits(hess, [[xx[0], xy[0]], [xy[0], yy[0]]])
            assert same_bits(e, e_rows[0])


def logistic_before(work, halves, minus_zero, one, out, nonpositive):
    """``logistic_negated`` by the formula it replaced, into ``out``."""
    out[...] = logistic_array_before(-work[1])
    return out


def logistic_negated_before(y, minus_zero, one, out, nonpositive, e,
                            all_nonpositive):
    """``logistic_negated`` before its work block: a screen of its own for
    every y <= 0, and the maximum of e with the boolean screen row, which
    casts, where the screen fails."""
    np.less_equal(y, minus_zero, nonpositive)
    if nonpositive.tobytes() == all_nonpositive:
        np.exp(y, out)
        np.add(one, out, out)
        return np.divide(one, out, out)
    np.exp(np.copysign(y, minus_zero, e), e)
    np.maximum(e, nonpositive, out=out)
    return np.divide(out, np.add(one, e, e), out)


class TestLogisticNegated:
    SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0,
               math.nan, -math.nan]

    @staticmethod
    def negated(z, nonpositive=False):
        y = -np.asarray(z, dtype=float)
        work = np.empty((2, *y.shape))
        work[1] = y
        minus_zero = np.full(work.shape, -0.0)
        return logistic_negated(work, tuple(work), (minus_zero, minus_zero[0]),
                                np.ones(y.shape), np.empty(y.shape),
                                nonpositive)

    @staticmethod
    def negated_before(y):
        return logistic_negated_before(
            y, np.full(y.shape, -0.0), np.ones(y.shape), np.empty(y.shape),
            np.empty(y.shape, dtype=bool), np.empty(y.shape),
            np.ones(y.shape, dtype=bool).tobytes())

    @pytest.mark.parametrize("z", SPECIAL)
    def test_special_values(self, z):
        # alone, and beside a value of the other sign
        for row in ([z], [z, 1.0], [z, -1.0]):
            assert same_bits(self.negated(row),
                             logistic_array_before(np.array(row)))

    def test_random_arguments(self):
        rng = np.random.default_rng(11)
        z = np.concatenate([rng.normal(0.0, 20.0, (2, 500)),
                            rng.uniform(-1e-15, 1e-15, (2, 50))], axis=1)
        assert same_bits(self.negated(z), logistic_array_before(z))
        # every argument >= 0, -0.0 among them: the screened branch and the
        # general one
        z = np.abs(z)
        z[0, :3] = -0.0
        for nonpositive in (True, False):
            assert same_bits(self.negated(z, nonpositive),
                             logistic_array_before(z))

    def test_nan_signs(self):
        nan = np.array([math.nan, -math.nan, np.copysign(math.nan, -1.0)])
        for z in (nan, nan[::-1]):
            assert same_bits(self.negated(z), logistic_array_before(z))

    @pytest.mark.parametrize("region", [RegionFlag.COLLISION_FREE,
                                        RegionFlag.RENDEZVOUS])
    def test_edge_arguments_match_the_form_before(self, region):
        # the kernel's y = (d - center) gain through both branches against
        # the screened, casting form before, on the edge inputs: d at each
        # center (y = -0.0 or +0.0), distances far enough out that exp
        # underflows to 0 both ways, NaN, and drop_avoidance's B of center
        # +inf and gain 1, where every y is -inf
        cfg = small_config()
        kernel = jet_kernel(cfg, ~np.eye(2, dtype=bool), np.triu_indices(2, 1),
                            np.empty((4, 1)))
        if region is RegionFlag.RENDEZVOUS:
            kernel.drop_avoidance()
        # the column holds (center, gain, c1, c2), each of [b, B]
        (cb, cc), (kb, kc) = kernel.factor_column[:4, 0].reshape(2, 2)
        assert kernel.factor_column[::2, 0].tolist() == list(
            edge_factors(cfg)[0])
        d = np.array([cb, cc, 0.0, 1e-300, 800.0 / abs(kb), 1e3, 1e6,
                      math.nan, -math.nan, math.inf, 1.3, 0.1])
        with np.errstate(invalid="ignore"):
            y = (np.array([d, d]) - np.array([[cb], [cc]])) * np.array(
                [[kb], [kc]])
        assert (np.exp(-np.abs(y[np.isfinite(y)])) == 0.0).any()
        if region is RegionFlag.RENDEZVOUS:
            assert np.all(y[1][np.isfinite(d)] == -math.inf)
        else:
            assert y[0, 0] == 0.0 and y[1, 1] == 0.0
        # on a row alone, and in the kernel's (2, n) block; the screened
        # branch too where every y <= 0, as the kernel's screen finds it
        for rows in (y[:, :1], y[:, 2:3], y[:, 7:8], y[:, 4:5], y):
            expected = self.negated_before(rows)
            assert same_bits(self.negated(-rows), expected)
            if np.all(rows <= -0.0):
                assert same_bits(self.negated(-rows, True), expected)


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
        return cfg, mask, poses, pair_rows(poses, upper), upper

    @pytest.mark.parametrize("region", [RegionFlag.COLLISION_FREE,
                                        RegionFlag.RENDEZVOUS])
    @pytest.mark.parametrize("bad", [1e-10, 0.0, math.nan])
    def test_unaffected_followers_match(self, region, bad):
        cfg, mask, poses, pairs, upper = self._kernel_inputs()
        kernel = jet_kernel(cfg, mask, upper, pairs)
        if region is RegionFlag.RENDEZVOUS:
            kernel.drop_avoidance()
        plain = [np.array(x, dtype=float) for x in kernel(poses[0, :2])]
        # pair (a, b) of one sensed edge gets the bad distance, in the pair
        # rows the kernel reads
        pair = int(np.flatnonzero(mask[upper] | mask.T[upper])[-1])
        a, b = upper[0][pair], upper[1][pair]
        pairs[:, pair] = (bad / math.sqrt(2.0), bad / math.sqrt(2.0),
                          bad * bad, bad)
        masked = [np.array(x, dtype=float) for x in kernel(poses[0, :2])]
        touched = {i for i, j in ((a, b), (b, a)) if mask[i, j]}
        keep = [c for c in range(len(mask)) if c not in touched]
        assert touched and len(keep) > 2
        for x, y in zip(plain, masked):
            assert same_bits(x[..., keep], y[..., keep])
        if not math.isnan(bad):  # under the floor: the edge adds no slope
            assert bad < DISTANCE_FLOOR
            assert all(np.isfinite(x).all() for x in masked)


    # followers 2 and 3 coincide, and 4 and 5 lie under the floor apart
    CLOSE = np.array([[-4.0, -2.0, 0.5], [-4.8, -2.5, -1.0],
                      [-4.8, -2.5, 2.0], [-3.4, -2.9, 0.0],
                      [-3.4 + 0.5 * DISTANCE_FLOOR, -2.9, 1.0]])

    def _close_inputs(self):
        """Config and all-pairs topology of ``CLOSE``."""
        n = len(self.CLOSE)
        cfg = small_config(
            n_robots=n, linear_gains=[1.0] * n, angular_gains=[1.0] * n,
            initial_states=make_states(self.CLOSE))
        return cfg, topology(n, {i: [j for j in range(1, n + 1) if j != i]
                                 for i in range(1, n + 1)})

    @pytest.mark.parametrize("region", [RegionFlag.COLLISION_FREE,
                                        RegionFlag.RENDEZVOUS])
    def test_affected_followers_match_the_plain_step(self, region):
        cfg, topo = self._close_inputs()
        poses = self.CLOSE
        states, controls, _ = sim.step(cfg.initial_states, region, cfg, topo)
        new, rows, phi = plain_step(cfg, topo.adjacency, poses, poses[:, 2],
                                    region)
        assert same_bits([[*s.position, s.heading] for s in states], new)
        assert same_bits([[c.v, c.omega, c.theta_d, c.theta_tilde,
                           c.theta_d_dot] for c in controls], rows.T)
        assert same_bits([c.phi for c in controls], phi)
        assert np.isfinite(new).all()

    def test_constant_factor_row_is_neutral(self):
        # without avoidance B's row is 1 with log-derivatives -0.0, so the
        # sums are b's bits, also where b's are -0.0: at d = 0, s_b = 1; an
        # edge list rebuilt after the switch keeps it
        cfg, topo = self._close_inputs()
        upper = np.triu_indices(len(self.CLOSE), 1)
        kernel = jet_kernel(cfg, topo.adjacency, upper,
                            pair_rows(self.CLOSE, upper))
        kernel.drop_avoidance()
        for rebuilt in (False, True):
            if rebuilt:
                kernel.set_mask(topo.adjacency)
            kernel(self.CLOSE[0, :2])
            row = partial(JetKernel.PAIR.view, kernel.pair_rows)
            assert (row("s_B") == 1.0).all(), rebuilt
            l1_b, l2_b = row("l1_b"), row("l2_b")
            assert np.any(np.signbit(l1_b) & (l1_b == 0.0))
            assert np.any(np.signbit(l2_b) & (l2_b == 0.0))
            for summed, b in ((row("l1"), l1_b), (row("l2"), l2_b)):
                assert same_bits(summed, b), rebuilt


class TestKernelLogistic:
    """While avoiding, a sensed pair under margin/2 gives B(d) a positive
    argument, so the kernel's logistic takes its general path; the jets must
    equal those made with the formula it replaced."""

    def test_pair_under_half_margin(self, monkeypatch):
        poses = np.array([[-4.0, -2.0, 0.5], [-4.8, -2.5, -1.0],
                          [-4.7, -2.45, 2.0], [-3.4, -2.9, 0.0]])
        n = len(poses)
        mask = ~np.eye(n, dtype=bool)
        cfg = small_config(
            n_robots=n, linear_gains=[1.0] * n,
            angular_gains=[1.0] * n, initial_states=make_states(poses))
        upper = np.triu_indices(n, 1)
        pairs = pair_rows(poses, upper)
        assert pairs[3].min() < 0.5 * cfg.collision_margin
        args = (poses[0, :2].tolist(),)
        kernel = jet_kernel(cfg, mask, upper, pairs)
        positive = []

        def spy(work, *rows):
            positive.append(np.count_nonzero(work[1] > 0.0))
            return logistic_negated(work, *rows)
        monkeypatch.setattr(gradients, "logistic_negated", spy)
        got = [np.array(x, dtype=float) for x in kernel(*args)]
        assert positive == [1]  # the pair, once for both its edges
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
        out = np.empty(len(x))
        assert turn_angles(x, out, turn_rows(len(x))) is out
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
        work = ControlWork(theta, np.ones(n), np.ones(n), 1e-6)
        work.controls[2][...] = held
        work.load(np.zeros((2, n)), np.zeros((3, n)))
        out = control_laws(work)
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
        k_v, k_w = np.full(6, 2.0), np.full(6, 8.0)
        held = [1, 2, 4, 5]
        work = ControlWork(theta, k_v, k_w, floor)
        work.controls[2][...] = fallback
        work.load(grad, hess)
        out = control_laws(work)
        assert same_bits(out[2], desired_heading_before(grad, fallback, floor))
        assert same_bits(out[2][held], fallback[held])
        steep = [0, 3]  # no row held: the unmasked arctan2
        work = ControlWork(theta[steep], k_v[steep], k_w[steep], floor)
        work.controls[2][...] = fallback[steep]
        work.load(grad[:, steep], hess[:, steep])
        out = control_laws(work)
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


def _nudged(x, ulps):
    """x moved by ``ulps`` units in the last place, up or down."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def goal_offsets(draw):
    """(dx, dy, tol): a goal offset whose length is within a few ulps of the
    tolerance, each coordinate moved by a few ulps of its own, or NaN or
    infinite."""
    tol = draw(st.floats(min_value=0.0, exclude_min=True,
                         allow_infinity=False))
    turn = draw(st.floats(0.0, 2.0 * math.pi))
    odd = st.sampled_from([math.nan, math.inf, -math.inf])
    dx, dy = (draw(st.one_of(st.just(_nudged(x, draw(st.integers(-4, 4)))),
                             odd))
              for x in (tol * math.cos(turn), tol * math.sin(turn)))
    return dx, dy, tol


class TestStopTest:
    """The informed robot's goal distance, by ``math.hypot`` with a margin,
    screens the convergence test: a run stops at the first step where the
    unscreened predicate holds."""

    @given(goal_offsets())
    @example((math.nextafter(0.05, 0.0), 0.0, 0.05))
    # math.hypot one ulp above np.hypot, which is under the tolerance
    @example((float.fromhex("0x1.c4bc3a1882613p-1"),
              float.fromhex("0x1.1ae17a13bb583p-1"), 1.0426664956751945))
    # subnormal tolerances, where the relative margin rounds away
    @example((_nudged(1e-320, -1), 0.0, 1e-320))
    @example((3e-323, 3e-323, 5e-323))
    @example((math.nan, math.inf, 0.05))
    def test_screen_passes_every_offset_under_the_tolerance(self, offset):
        dx, dy, tol = offset
        with np.errstate(over="ignore"):
            under = np.hypot(dx, dy) < tol
        assert math.hypot(dx, dy) < sim._stop_bound(tol) or not under

    def test_screen_rejects_offsets_beyond_its_margin(self):
        tol = 0.05
        bound = sim._stop_bound(tol)
        assert math.hypot(_nudged(tol, -1), 0.0) < bound
        for dx, dy in ((tol * (1.0 + 1e-11), 0.0), (0.04, 0.04),
                       (math.nan, 0.0), (math.inf, math.nan)):
            assert not math.hypot(dx, dy) < bound

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


COMPARISONS = (np.less, np.less_equal, np.greater, np.greater_equal)


@st.composite
def compared_rows(draw):
    """(comparison, a, b, fill): operand rows of 1 to 4,000 values whose
    comparison holds everywhere, nowhere, here and there, or is broken by
    NaNs (in a row that would hold everywhere without them)."""
    comparison = draw(st.sampled_from(COMPARISONS))
    size = draw(st.integers(1, 4000))
    fill = draw(st.sampled_from(["all", "none", "mixed", "nan"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low, high = rng.uniform(-1.0, 0.0, size), rng.uniform(0.5, 1.0, size)
    holds = (low, high) if comparison in (np.less, np.less_equal) else (
        high, low)
    a, b = holds if fill != "none" else holds[::-1]
    if fill == "mixed":
        a, b = rng.normal(size=size), rng.normal(size=size)
    if fill == "nan":
        a = a.copy()
        a[rng.random(size) < draw(st.sampled_from([0.001, 0.5, 1.0]))] = (
            math.nan)
        a[rng.integers(size)] = math.nan
    return comparison, a, b, fill


class TestByteScreens:
    """Each screen compares a comparison's boolean row, as bytes, with the
    bytes of an all-True or an all-False row of its shape: the verdicts of
    ``np.count_nonzero`` against the size and against 0."""

    @given(compared_rows())
    @example((np.less, np.zeros(1), np.ones(1), "all"))
    @example((np.less, np.ones(1), np.zeros(1), "none"))
    @example((np.greater_equal, np.full(3, math.nan), np.zeros(3), "nan"))
    def test_bytes_agree_with_count_nonzero(self, case):
        comparison, a, b, fill = case
        size = a.size
        row = comparison(a, b, np.empty(size, dtype=bool))
        every = row.tobytes() == np.ones(size, dtype=bool).tobytes()
        some = row.tobytes() != bytes(size)
        assert every == (np.count_nonzero(row) == size)
        assert some == (np.count_nonzero(row) != 0)
        if fill == "all":
            assert every
        if fill == "none":
            assert not some
        if fill == "nan":
            assert not every

    def test_rows_of_a_block(self):
        # the screens of the edge pass compare (k, n) blocks
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 3, 7))
        for block in (a < b, np.abs(a) < 9.0, np.isfinite(a)):
            assert (block.tobytes() == np.ones(block.shape, bool).tobytes()
                    ) == bool(block.all())
            assert (block.tobytes() != bytes(block.size)) == bool(
                block.any())


def _power_exponents():
    """The quotient rule's exponents (alpha, 1/alpha, 1/alpha + 1, alpha -
    1) of the field exponents in the tests, and the exponents with fast
    paths: 2, 1/2 and -1."""
    exponents = {2.0, 0.5, -1.0}
    for alpha in (0.5, 1.0, 1.2, 2.0, 3.0):
        inv_alpha = 1.0 / alpha
        exponents |= {alpha, inv_alpha, inv_alpha + 1.0, alpha - 1.0}
    return sorted(exponents)


def powers(w):
    """The (base, exponent, out) of each power call of the quotient rule
    ``w``, in the order of its calls, the masked one included."""
    return [args for call, args in w.calls
            if getattr(call, "func", call) is np.power]


class TestStrideZeroPower:
    """The quotient rule's powers take their exponents as stride-0 rows
    (``exponent_row``): bit for bit the power with a scalar exponent, the
    square, sqrt and reciprocal paths of 2, 1/2 and -1 included."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0, 0.5,
               2.0, -2.5, 1e-300, 1e300, 1.7976931348623157e308]

    def values(self):
        rng = np.random.default_rng(21)
        return np.concatenate([
            self.SPECIAL, rng.uniform(0.0, 10.0, 50000),
            rng.uniform(0.0, 2.2250738585072014e-308, 2000),  # subnormal
            rng.normal(size=2000), 10.0 ** rng.uniform(-300, 300, 2000)])

    @pytest.mark.parametrize("exponent", _power_exponents())
    def test_matches_the_scalar_power(self, exponent):
        x = self.values()
        row = exponent_row(exponent, x.size)
        assert row.strides == (0,)
        with np.errstate(all="ignore"):
            got = np.power(x, row, np.empty(x.size))
            assert same_bits(got, np.power(x, exponent))
            # what the oracles' ** gives
            assert same_bits(got, x ** exponent)

    def test_int_exponent_is_its_float(self):
        # a ScenarioConfig built in code may hold field_exponent = 2: its
        # row is the float 2.0's, whose power keeps the square path (an int
        # row misses it by an ulp on some values)
        x = self.values()
        row = exponent_row(2, x.size)
        assert row.strides == (0,) and row.dtype == float and row[0] == 2.0
        with np.errstate(all="ignore"):
            assert same_bits(np.power(x, row, np.empty(x.size)),
                             np.power(x, exponent_row(2.0, x.size),
                                      np.empty(x.size)))
        w = QuotientWork(2, 4)
        assert [float(args[1][0]) for args in powers(w)] == [
            2.0, 1.0, 0.5, 1.5]

    @pytest.mark.parametrize("alpha", [0.5, 1.2, 2.0])
    def test_quotient_work_powers_flat_views(self, alpha):
        # each power takes one flat row of the head per robot quantity,
        # with its exponent a stride-0 row of the same length: gamma into
        # gamma^a and gamma^(a - 1), s into s^(1/a) and s^(1/a + 1)
        w = QuotientWork(alpha, 4)
        inv_alpha = 1.0 / alpha
        assert [float(args[1][0]) for args in powers(w)] == [
            alpha, alpha - 1.0, inv_alpha, inv_alpha + 1.0]
        row = partial(QuotientWork.HEAD.view, w.head)
        for (base, exponent, out), names in zip(powers(w), (
                ("G", "Ga"), ("G", "P2"), ("s", "root"), ("s", "S2"))):
            assert exponent.shape == (4,) and exponent.strides == (0,)
            for flat, name in zip((base, out), names):
                assert flat.shape == (4,) and flat.flags.c_contiguous
                assert np.shares_memory(flat, row(name))


class TestPoseScreen:
    """One comparison of |poses| with (inf, inf, pi), in the step's one
    screen (``sim._screen``), stands for the heading wrap's screen and the
    finiteness check: the screen passes exactly when every new pose is
    finite with its heading inside (-pi, pi), and a step whose poses fail
    it wraps the headings, then raises NonFiniteState naming the first
    robot with a non-finite pose, as the two checks did."""

    @pytest.mark.parametrize("ws", [
        [0.3, -2.0, 1.0],              # every heading stays inside
        [0.3, 40.0, -1.0],             # one crosses pi
        [0.3, math.nan, -1.0],         # a NaN turn
        [math.inf, 0.0, 0.0],          # an infinite turn
    ])
    @pytest.mark.parametrize("vs", [[1.0, -2.0, 0.5], [1.0, math.inf, 0.5]])
    def test_passes_exactly_when_finite_and_inside(self, ws, vs,
                                                   monkeypatch):
        poses = np.array([[0.5, -1.0, 3.1], [-2.0, 1.0, -3.0],
                          [0.0, 0.0, 0.25]])
        dt = 0.1
        work = sim.IntegrateWork(poses.copy(), dt, np.array([vs, ws]))
        screen = sim.ScreenWork(work.poses, np.empty(9))
        # a failed screen takes the wrap's turn, and only a failed one
        turns = []
        monkeypatch.setattr(sim, "turn_angles",
                            lambda *rows: turns.append(rows) or turn_angles(
                                *rows))
        with np.errstate(invalid="ignore", over="ignore"):
            sim._integrate_all(work)
            try:
                sim._screen(screen)
                raised = False
            except sim.NonFiniteState:
                raised = True
            heading = poses[:, 2] + dt * np.array(ws)
            expected = integrate_before(poses, np.array(vs), np.array(ws),
                                        dt)
        assert same_bits(work.poses, expected)
        finite = bool(np.isfinite(expected).all())
        assert (not turns) == (
            finite and bool((np.abs(heading) < math.pi).all()))
        assert raised == (not finite)

    @staticmethod
    def planted_step(planted):
        """A step of ``small_config``'s kernel after the poses of
        ``planted`` {(robot, column): value} are written over the poses
        its pair rows were measured on; returns the error and the poses."""
        cfg = small_config()
        kernel = sim.StepKernel(cfg, sim.initial_topology(cfg).adjacency)
        kernel.poses[...] = sim._pose_array(cfg.initial_states)
        kernel.theta_d[...] = kernel.theta
        kernel.pairs()
        leader = kernel.poses[0, :2].tolist()
        for at, value in planted.items():
            kernel.poses[at] = value
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(sim.NonFiniteState) as info:
            kernel(leader)
        return str(info.value), kernel.poses

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("robot", [0, 2])
    def test_non_finite_pose_names_the_robot(self, robot, column, value):
        message, poses = self.planted_step({(robot, column): value})
        bad = np.flatnonzero(~np.isfinite(poses).all(axis=1))
        assert bad.tolist() == [robot]
        assert message == (
            f"non-finite state after integration: robot {robot + 1} at "
            f"(x, y, theta) = {tuple(poses[robot].tolist())}")
        # the headings are wrapped before the check
        assert not (np.abs(poses[:, 2]) > math.pi).any()

    def test_first_non_finite_robot_is_named(self):
        message, poses = self.planted_step({(2, 2): math.inf,
                                            (1, 0): math.nan})
        assert np.flatnonzero(~np.isfinite(poses).all(axis=1)).tolist() == [
            1, 2]
        assert message.startswith(
            "non-finite state after integration: robot 2 at")
