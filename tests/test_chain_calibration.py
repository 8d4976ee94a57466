"""Frozen noise calibration of both phase chains.

Each case runs ``localization.run`` or ``epoch_growth.run`` once and pins
the traced per-phase noise scales and the final output to frozen reference
values (rel 1e-12).  The cases cover pure and approximate (delta = 1e-6)
budgets on the quadratic chain at d = 1 and d = 3, so
any change to how a budget becomes a noise scale, a noise draw or a step
size shows up here.
"""

import numpy as np
import pytest

from dpgrowth import epoch_growth, localization
from dpgrowth.core import PrivacyParams, RngStream
from dpgrowth.instances import build_instance

N = 64

MODES = {"pure": PrivacyParams(1.0), "approx": PrivacyParams(1.0, 1e-6)}


def _instance(d):
    return build_instance(
        "uniform_convex", d=d, kappa=2, lam=1.0, L=4.0 if d == 1 else 2.0, R=1.0,
        bias_delta=0.1,
    )


def _localization(d, mode):
    inst = _instance(d)
    data = inst.draw(N, RngStream(40 + d, 0))
    cfg = localization.LocalizationConfig.for_data_size(N, 0.05, MODES[mode])
    trace: list = []
    x = localization.run(
        inst.loss, data, inst.domain, np.zeros(d), cfg, [RngStream(40 + d, 1)], phase_trace=trace
    )[0]
    return [rec.sigma for rec in trace], x


def _epoch(d, mode):
    inst = _instance(d)
    data = inst.draw(N, RngStream(50 + d, 0))
    cfg = epoch_growth.EpochConfig.for_run(
        N, inst.loss, inst.domain, 3.0, 1.0 / (N + 1), MODES[mode])
    phases: list = []
    x = epoch_growth.run(
        inst.loss, data, inst.domain, np.zeros(d), cfg, [RngStream(50 + d, 1)],
        phase_trace=phases,
    )[0]
    sigmas = [rec.sigma for rec in phases]
    return [len(sigmas), sigmas[0], sigmas[-1], sum(sigmas)], x


# (chain, mode, d) -> (noise scales, output).  Localization pins every
# phase's sigma; the epoch chain (24 phases) pins [count, first, last, sum].
FROZEN = {
    ("localization", "approx", 1): (
        [0.21123394446670707, 0.013202121529169192, 0.0008251325955730745,
         5.1570787223317155e-05, 3.2231742014573222e-06, 2.0144838759108264e-07],
        [-0.22931917806140292],
    ),
    ("localization", "approx", 3): (
        [0.10561697223335353, 0.006601060764584596, 0.00041256629778653724,
         2.5785393611658578e-05, 1.6115871007286611e-06, 1.0072419379554132e-07],
        [0.12262945276469388, -0.02137083426842025, 0.16608767680193995],
    ),
    ("localization", "pure", 1): (
        [0.05, 0.003125, 0.0001953125, 1.220703125e-05, 7.62939453125e-07,
         4.76837158203125e-08],
        [-0.015420709855841947],
    ),
    ("localization", "pure", 3): (
        [0.04330127018922193, 0.002706329386826371, 0.00016914558667664817,
         1.0571599167290511e-05, 6.607249479556569e-07, 4.129530924722856e-08],
        [-0.08495964149075642, 0.05766336207810219, 0.026490192396752755],
    ),
    ("epoch", "approx", 1): (
        [24, 0.06807027518919374, 5.193349852691173e-07, 0.1429453966903687],
        [0.10862249952762304],
    ),
    ("epoch", "approx", 3): (
        [24, 0.03930039170429291, 2.998381935447152e-07, 0.08252956325860222],
        [-0.023284555749981922, 0.019983740136626245, 0.026185425464699548],
    ),
    ("epoch", "pure", 1): (
        [24, 0.025499742544669305, 1.9454759631858295e-07, 0.053548642243901004],
        [-0.009990865709426994],
    ),
    ("epoch", "pure", 3): (
        [24, 0.03457694697814057, 2.638011701823469e-07, 0.07261048068918044],
        [0.017600766535140266, 0.008485831409288786, -0.006515946352320181],
    ),
}


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("chain", ["localization", "epoch"])
def test_chain_noise_calibration_is_frozen(chain, mode, d):
    runner = _localization if chain == "localization" else _epoch
    sigmas, x = runner(d, mode)
    want_sigmas, want_x = FROZEN[(chain, mode, d)]
    assert sigmas == pytest.approx(want_sigmas, rel=1e-12, abs=0.0)
    assert list(x) == pytest.approx(want_x, rel=1e-12, abs=0.0)
