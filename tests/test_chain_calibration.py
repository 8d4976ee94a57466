"""Frozen noise calibration of both phase chains.

Each case runs ``localization.run`` or ``epoch_growth.run`` once and pins
the traced per-phase noise scales and the final output to frozen reference
values (rel 1e-12).  The cases cover pure, approximate (delta = 1e-6) and
conservative-Gaussian budgets on the quadratic chain at d = 1 and d = 3, so
any change to how a budget becomes a noise scale, a noise draw or a step
size shows up here.
"""

import numpy as np
import pytest

from dpgrowth import epoch_growth, localization
from dpgrowth.core import PrivacyParams, RngStream
from dpgrowth.instances import build_instance

N = 64

MODES = {
    "pure": (PrivacyParams(1.0), False),
    "approx": (PrivacyParams(1.0, 1e-6), False),
    "conservative": (PrivacyParams(1.0, 1e-6), True),
}


def _instance(d):
    return build_instance(
        "uniform_convex", d=d, kappa=2, lam=1.0, L=4.0 if d == 1 else 2.0, R=1.0,
        bias_delta=0.1,
    )


def _localization(d, mode):
    privacy, conservative = MODES[mode]
    inst = _instance(d)
    data = inst.draw(N, RngStream(40 + d, 0))
    cfg = localization.LocalizationConfig.for_data_size(
        N, 0.05, privacy, gaussian_conservative=conservative
    )
    trace: list = []
    x = localization.run(
        inst.loss, data, inst.domain, np.zeros(d), cfg, [RngStream(40 + d, 1)], phase_trace=trace
    )[0]
    return [rec.sigma for rec in trace], x


def _epoch(d, mode):
    privacy, conservative = MODES[mode]
    inst = _instance(d)
    data = inst.draw(N, RngStream(50 + d, 0))
    cfg = epoch_growth.EpochConfig.for_run(
        N, inst.loss, inst.domain, 3.0, 1.0 / (N + 1), privacy,
        gaussian_conservative=conservative,
    )
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
        [0.1858461094424919, 0.011615381840155745, 0.000725961365009734,
         4.537258531310838e-05, 2.8357865820692736e-06, 1.772366613793296e-07],
        [-0.20327937604548382],
    ),
    ("localization", "approx", 3): (
        [0.09292305472124596, 0.005807690920077872, 0.000362980682504867,
         2.268629265655419e-05, 1.4178932910346368e-06, 8.86183306896648e-08],
        [0.10754403187722748, -0.0186292895648967, 0.14595506214638315],
    ),
    ("localization", "conservative", 1): (
        [1.450865773852422, 0.09067911086577637, 0.005667444429111023,
         0.00035421527681943896, 2.2138454801214935e-05, 1.3836534250759334e-06],
        [-0.9997274671958819],
    ),
    ("localization", "conservative", 3): (
        [0.725432886926211, 0.04533955543288819, 0.0028337222145555117,
         0.00017710763840971948, 1.1069227400607468e-05, 6.918267125379667e-07],
        [0.5813543635552205, -0.10503163382027138, 0.8060733556619961],
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
        [24, 0.05988902893675464, 4.569170298519489e-07, 0.12576504171565936],
        [0.09556740597373889],
    ),
    ("epoch", "approx", 3): (
        [24, 0.03457694697814058, 2.6380117018234695e-07, 0.07261048068918045],
        [-0.020510290362843814, 0.017511523506676844, 0.02296610881020781],
    ),
    ("epoch", "conservative", 1): (
        [24, 0.4675424337601325, 3.56706568725687e-06, 0.9818241292203918],
        [0.7460738414623388],
    ),
    ("epoch", "conservative", 3): (
        [24, 0.2699357499889853, 2.0594463347548316e-06, 0.5668564253022631],
        [-0.1587457982615733, 0.14069660993032407, 0.18337753696113304],
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
