"""The phase kernel against pinned outputs and against ``erm.solve``, and
batched sweep cells against trial-by-trial execution.

``localization.run`` and ``epoch_growth.run`` run the one phase kernel
over a batch of streams, many trials at once or a single one, for every
loss.  Both are checked bit for bit against outputs recorded before the
kernel took over each loss: from the Python-float
scalar chain for the 1-D quadratic, and from the generic per-phase loop
(``erm.solve`` and ``core.project``) for 1-D power norms at kappa 3 and 4,
for the quadratic at d = 2 and d = 4, for pure_convex's separable absolute
loss at d = 1 and d = 4, and for the losses with no kernel phase of their
own (sharp_growth, knorm_regression at d = 1 and d = 2, and the power norm
at d = 2).  The pins are ``float.hex`` of the first streams' outputs per
case, and digests of all 200 outputs of the power-norm, d >= 2 quadratic
and separable cases, of the first four streams of the hintless cases, and
of each audit mechanism.  The cases cover pure and approximate (delta =
1e-6) budgets, noise scales 1, 0.5 and 0, the audit's own
configs on both audit datasets, an epoch schedule with frozen epochs, and
ones whose noise reaches the trust regions.  Power-norm, d >= 2 quadratic
and separable phases are also checked against ``erm.solve`` on their own
problems, phase by phase, and the kernel's row norms against
``np.linalg.norm``.

A sweep unit runs the trials of every chain cell of one d as one lockstep
batch, with per-trial data and starts, and the grid sampler's and the ERM
oracle's trials one after another on one set-up per cell; it must write the
rows of a trial-by-trial run and of each cell's own unit, also when one
trial's solve or draw raises, and a sweep's CSV must depend neither on
``--jobs`` nor on the batch size.
"""
import csv
import dataclasses
import hashlib
import math
from itertools import islice

import numpy as np
import pytest

from dpgrowth import epoch_growth, erm, harness, inv_sensitivity, localization
from dpgrowth.core import (
    ConvergenceError,
    Dataset,
    Domain,
    InvalidInputError,
    PrivacyParams,
    RngStream,
    derive_stream_key,
    project,
)
from dpgrowth.instances import ProblemInstance, build_instance

TRIALS = 200

MODES = {"pure": PrivacyParams(1.0), "approx": PrivacyParams(1.0, 1e-6)}

# Outputs of the first three streams of ``_streams(61)`` (per budget case),
# of ``_streams(64)`` (frozen epochs) and of ``_streams(68)`` (clamped
# epochs), recorded from the scalar chain.  The delta > 0 entries of this
# table and of the three below ("approx", "gaussian") were re-recorded from
# the kernel when ``mechanisms.gaussian_sigma`` became the exact Gaussian
# calibration; the phase tests below check the kernel against ``erm.solve``
# at any noise scale.
PINNED_BUDGET = {
    ("epoch_growth", "approx", 1.0): (
        "0x1.e644ce1bb9146p-1", "0x1.b97c5f75b7059p-1", "0x1.f600297380b6ep-1"),
    ("epoch_growth", "approx", 0.5): (
        "0x1.d930cac052ccep-1", "0x1.c2cc936d51c56p-1", "0x1.e10e786c369dcp-1"),
    ("epoch_growth", "approx", 0.0): (
        "0x1.cc1cc764ec856p-1", "0x1.cc1cc764ec856p-1", "0x1.cc1cc764ec856p-1"),
    ("epoch_growth", "pure", 1.0): (
        "0x1.c2bba8f8624eap-1", "0x1.cd1b44cc30b65p-1", "0x1.c5cf98ce6a958p-1"),
    ("epoch_growth", "pure", 0.5): (
        "0x1.c76043dea452ap-1", "0x1.cc9011c88b865p-1", "0x1.c8ea3bc9a8766p-1"),
    ("epoch_growth", "pure", 0.0): (
        "0x1.cc04dec4e656cp-1", "0x1.cc04dec4e656cp-1", "0x1.cc04dec4e656cp-1"),
    ("localization", "approx", 1.0): (
        "0x1.ffbf64a3723c9p-1", "0x1.e10ed834243e5p-1", "0x1.e564c3d3ac613p-1"),
    ("localization", "approx", 0.5): (
        "0x1.ebad64627b526p-1", "0x1.d4db8d65ffb3ap-1", "0x1.d7068335c3c50p-1"),
    ("localization", "approx", 0.0): (
        "0x1.c8a84297db28ap-1", "0x1.c8a84297db28ap-1", "0x1.c8a84297db28ap-1"),
    ("localization", "pure", 1.0): (
        "0x1.c0d3900ad88c8p-1", "0x1.c8e84561ed4ddp-1", "0x1.c8baea59eed2ep-1"),
    ("localization", "pure", 0.5): (
        "0x1.c4bde95159da9p-1", "0x1.c8c843fce43b8p-1", "0x1.c8b19678e4fddp-1"),
    ("localization", "pure", 0.0): (
        "0x1.c8a84297db28ap-1", "0x1.c8a84297db28ap-1", "0x1.c8a84297db28ap-1"),
}
PINNED_FROZEN = (
    "-0x1.45845f3e6f859p-5", "-0x1.1a4fbd96f4b1cp-4", "-0x1.d2322bf8a81b3p-7",
)
PINNED_CLAMPED = (
    "-0x1.a70802950c412p-1", "0x1.a1944b2b435fcp-2", "-0x1.0521616955fe7p-3",
)

# Outputs of ``run`` on ``_power_instance(kappa)``, recorded from the generic
# per-phase loop: float.hex of the first three streams of
# ``_streams(72 + kappa)`` and a sha256 prefix of all 200 outputs.
PINNED_POWER = {
    ("epoch_growth", 3, "noiseless"): (
        "0x1.c9f09467df698p-1", "0x1.c9f0955ed70edp-1", "0x1.c9f095d9c57e0p-1",
        "6b0e0e7e02bc6df2"),
    ("epoch_growth", 3, "small-eps"): (
        "-0x1.e3345e7050194p-1", "-0x1.8dfd98a0af762p-1", "0x1.6a2565b035043p-3",
        "f81fc34724dcc40c"),
    ("epoch_growth", 3, "zero"): (
        "0x1.c9f096166b053p-1", "0x1.c9f096166b053p-1", "0x1.c9f096166b053p-1",
        "6d5859c5ed2e7390"),
    ("epoch_growth", 4, "noiseless"): (
        "0x1.c8b95a285c2f2p-1", "0x1.c8b958ce26c44p-1", "0x1.c8b958bbb9abap-1",
        "d85a302c421d4c9d"),
    ("epoch_growth", 4, "small-eps"): (
        "0x1.055fc795f4ebbp-1", "0x1.5115503995e40p-2", "0x1.07e634d42e7aap-3",
        "24db6216944b4685"),
    ("epoch_growth", 4, "zero"): (
        "0x1.c8b958d05dfc9p-1", "0x1.c8b958d05dfc9p-1", "0x1.c8b958d05dfc9p-1",
        "a9f9ac0d6cd48b48"),
    ("localization", 3, "noiseless"): (
        "0x1.bfac2c09a40e4p-1", "0x1.bfac2cc1a2c5cp-1", "0x1.bfac2dd4bc906p-1",
        "8cee93bf280563c5"),
    ("localization", 3, "small-eps"): (
        "-0x1.6f3f8e806739dp-1", "-0x1.fff68d657ac2bp-1", "0x1.d2c34e86bdb92p-1",
        "8cdd259d8b3283b1"),
    ("localization", 3, "zero"): (
        "0x1.bfac2dccfd3d7p-1", "0x1.bfac2dccfd3d7p-1", "0x1.bfac2dccfd3d7p-1",
        "08c3dade702a567e"),
    ("localization", 4, "noiseless"): (
        "0x1.c3f6558a5a888p-1", "0x1.c3f653b2a7ca6p-1", "0x1.c3f653afb3d61p-1",
        "ebe509dabb6a53f5"),
    ("localization", 4, "small-eps"): (
        "0x1.f40d97a50ad01p-4", "0x1.d87a1a3710e65p-1", "0x1.fffe8a51178d9p-1",
        "9afebc2a110e4fa9"),
    ("localization", 4, "zero"): (
        "0x1.c3f6539715e2dp-1", "0x1.c3f6539715e2dp-1", "0x1.c3f6539715e2dp-1",
        "08bfc61c59d4a1aa"),
}

# Outputs of ``run`` on ``_quad_instance(d)`` at d = 2 and d = 4, recorded
# from the generic per-phase loop: float.hex of the first stream's output
# and a sha256 prefix of all 200 outputs of ``_streams(81 + d)``.
PINNED_QUAD = {
    ("epoch_growth", 2, "gaussian"): (
        ("0x1.c2dfde7b24107p-1", "-0x1.7f0329568e1d8p-4"),
        "448106c7cf46a8e1"),
    ("epoch_growth", 2, "noiseless"): (
        ("0x1.c9bfb08562bf9p-1", "0x1.2644758713b88p-10"),
        "16dde42d770b4b6a"),
    ("epoch_growth", 2, "small-eps"): (
        ("0x1.c4faea243886cp-2", "0x1.84ee306c26c93p-7"),
        "66821d887d09ccf5"),
    ("epoch_growth", 2, "zero"): (
        ("0x1.c9bfafe016758p-1", "0x1.263cbc1217be8p-10"),
        "d78360b73e5365a4"),
    ("epoch_growth", 4, "gaussian"): (
        ("0x1.b4bcd14fe2107p-1", "-0x1.cbd1968860793p-6",
         "-0x1.24b7580f9eb59p-7", "-0x1.247978052a48ep-5"),
        "e132f5c064a99c69"),
    ("epoch_growth", 4, "noiseless"): (
        ("0x1.cb2adc5956586p-1", "0x1.646ddd474a43ep-10",
         "-0x1.c707e095d971dp-17", "0x1.672f5ca837513p-13"),
        "c755e77deea79d3b"),
    ("epoch_growth", 4, "small-eps"): (
        ("-0x1.caf04b919538ap-7", "0x1.0bea7c66800f1p-1",
         "-0x1.127e70b2d9de0p-1", "-0x1.43f3b6cd3499ep-1"),
        "22c5e82a7534a5ca"),
    ("epoch_growth", 4, "zero"): (
        ("0x1.cb76cf5af5095p-1", "0x1.23b01008beaccp-10",
         "-0x1.724382fbb8e8fp-17", "0x1.25f51f07a7783p-13"),
        "87bfb8b3e7ac90f8"),
    ("localization", 2, "gaussian"): (
        ("0x1.c72f34279b579p-1", "-0x1.1d91d74a592d9p-3"),
        "72ca18897799e974"),
    ("localization", 2, "noiseless"): (
        ("0x1.c691f64bfefb8p-1", "-0x1.070ecd34f4bd1p-10"),
        "50ba84f0a9ad54a3"),
    ("localization", 2, "small-eps"): (
        ("0x1.b0d9ecaf92b8ep-1", "0x1.f982d1f5c32a7p-2"),
        "7efd9b92ae96bf9e"),
    ("localization", 2, "zero"): (
        ("0x1.c691f5a5f4bcap-1", "-0x1.0719be5dd2544p-10"),
        "2895b371b4bebea6"),
    ("localization", 4, "gaussian"): (
        ("0x1.af44eff58eb17p-1", "-0x1.c69ad6ab11cacp-6",
         "-0x1.926d497d4cf62p-6", "-0x1.e072822b67042p-4"),
        "3e6a24ad0103b588"),
    ("localization", 4, "noiseless"): (
        ("0x1.c7458ae119469p-1", "0x1.f128a70eb3e46p-9",
         "-0x1.701299e3d3562p-10", "-0x1.1d99c63b389d4p-9"),
        "5f1e5e0b9f15bb85"),
    ("localization", 4, "small-eps"): (
        ("0x1.99ba40f74fa15p-1", "0x1.d248145f9673ap-6",
         "0x1.1cc50141e3521p-2", "-0x1.9be7b5dd4c959p-2"),
        "3085bc00127c7a37"),
    ("localization", 4, "zero"): (
        ("0x1.c7458afbff5c9p-1", "0x1.f1280aa90c0d7p-9",
         "-0x1.7010b4c10f70fp-10", "-0x1.1d997ee897438p-9"),
        "9e40ef61569245ed"),
}

# Outputs of ``run`` on pure_convex at d = 1 and d = 4, recorded from the
# generic per-phase loop: float.hex of the first stream's output, a sha256
# prefix of the outputs of ``_streams(91 + d)``, and the streams whose run
# raised ConvergenceError there (left out of the digest).
PINNED_ABS = {
    ("epoch_growth", 1, "gaussian"): (
        ("0x1.c396ea27f5d3ep-1",),
        "3d798bfd6ff048b5", ()),
    ("epoch_growth", 1, "noiseless"): (
        ("0x1.c66911367c794p-1",),
        "42e58559d78b450b", ()),
    ("epoch_growth", 1, "small-eps"): (
        ("-0x1.f76d8d3a6cac9p-1",),
        "72e7031e4e3e3615", ()),
    ("epoch_growth", 1, "zero"): (
        ("0x1.c66913180a63dp-1",),
        "ef6c4772a65e9386", ()),
    ("epoch_growth", 4, "gaussian"): (
        ("0x1.e84e2af7de293p-1", "0x1.4d23a5fa9ef2cp-6",
         "0x1.06eae38577692p-5", "0x1.eb64fc5a02272p-5"),
        "2526073e502e21ec", ()),
    ("epoch_growth", 4, "noiseless"): (
        ("0x1.c99aee004fcf3p-1", "0x1.9c502eba59d57p-25",
         "0x1.01604f2fdbd82p-32", "-0x1.67b478f860817p-15"),
        "aaff080ae2f69d39", ()),
    ("epoch_growth", 4, "small-eps"): (
        ("-0x1.0f081db5e91b0p-4", "0x1.59bfc7b48e2e6p-1",
         "-0x1.2609b0c064861p-2", "-0x1.490034332bac8p-1"),
        "d648feb6cec5a91c", ()),
    ("epoch_growth", 4, "zero"): (
        ("0x1.ca2fcdba210c4p-1", "0x1.51762a7a5e5a1p-25",
         "0x1.a56a5a82555b3p-33", "-0x1.263aa918daf1ep-15"),
        "e853674be8073700", ()),
    ("localization", 1, "gaussian"): (
        ("0x1.94d6d7c218153p-1",),
        "a356c45a805941d9", ()),
    ("localization", 1, "noiseless"): (
        ("0x1.b42a779bfc3bbp-1",),
        "21af548021e39da5", ()),
    ("localization", 1, "small-eps"): (
        ("0x1.1249f44205e89p-1",),
        "5a40a754d312e54f", ()),
    ("localization", 1, "zero"): (
        ("0x1.b42a794900c64p-1",),
        "b923e64eae27dd8f", ()),
    ("localization", 4, "gaussian"): (
        ("0x1.f780ed62aa9fbp-1", "0x1.756c10af4fbd9p-4",
         "0x1.cf2f5a36917f3p-5", "0x1.7321d12910a5ap-4"),
        "f91275587731df68", ()),
    ("localization", 4, "noiseless"): (
        ("0x1.c07ba3583e75dp-1", "-0x1.5ad168f83a71fp-51",
         "-0x1.073a181d6697ep-47", "-0x1.357d59171dd67p-51"),
        "2d27b7d74c3fb455", (53, 99)),
    ("localization", 4, "small-eps"): (
        ("0x1.ba40a2690e409p-1", "-0x1.1966312130c2fp-2",
         "0x1.8f9f2d3517fd9p-3", "-0x1.5e0756670c821p-2"),
        "ec81aaed01d2cdc6", ()),
    ("localization", 4, "zero"): (
        ("0x1.c07ba30ae6c99p-1", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0"),
        "80fe59719c1ec8ae", ()),
}

# Outputs of ``run`` on the losses without a kernel phase (no solver hint,
# or a power norm at d = 2), recorded from the generic per-phase loop:
# float.hex of the first stream's output and a sha256 prefix of the outputs
# of the first ``GENERIC_STREAMS`` streams of ``_streams(101)``.
PINNED_GENERIC = {
    ('epoch_growth', 'knorm-d1-k2', 'gaussian'): (
        ('0x1.c3c8a72371ccfp-1',),
        '4f09236dccb1c322'),
    ('epoch_growth', 'knorm-d1-k2', 'noiseless'): (
        ('0x1.c9de885d025e4p-1',),
        '6f57a8cb6403494d'),
    ('epoch_growth', 'knorm-d1-k2', 'small-eps'): (
        ('0x1.b7553aaf4e8e4p-1',),
        '1575a246ab2c0e4b'),
    ('epoch_growth', 'knorm-d1-k2', 'zero'): (
        ('0x1.c9de8806b6a6bp-1',),
        'f4e8182f7c5651ed'),
    ('epoch_growth', 'knorm-d2-k4', 'gaussian'): (
        ('0x1.aad7ea56da81dp-1', '0x1.6bbd8b7c78698p-6'),
        '250a0693853f4e30'),
    ('epoch_growth', 'knorm-d2-k4', 'noiseless'): (
        ('0x1.cc69e483bb67ep-1', '0x1.3f19d1bcfec2cp-13'),
        'e5bcc80f7dab7a31'),
    ('epoch_growth', 'knorm-d2-k4', 'small-eps'): (
        ('0x1.fab9b4be71885p-2', '0x1.425219a91a012p-1'),
        '10e3d513a90cd398'),
    ('epoch_growth', 'knorm-d2-k4', 'zero'): (
        ('0x1.cc69e4086c92cp-1', '0x1.3f0a12f5175c8p-13'),
        'e3c97ee8d52aef46'),
    ('epoch_growth', 'sharp-1.5', 'gaussian'): (
        ('0x1.c31b1d260ed6bp-1',),
        '086e31b9ec22dbe6'),
    ('epoch_growth', 'sharp-1.5', 'noiseless'): (
        ('0x1.c92fa7087c79bp-1',),
        '0e79d26850cbea0f'),
    ('epoch_growth', 'sharp-1.5', 'small-eps'): (
        ('0x1.cb7f409788dd2p-1',),
        '04d2ac9dbe34f61f'),
    ('epoch_growth', 'sharp-1.5', 'zero'): (
        ('0x1.c92fa6b1e3c82p-1',),
        'f6f7e06a34d2baef'),
    ('epoch_growth', 'sharp-2-neg', 'gaussian'): (
        ('0x1.c35265bc54521p-1',),
        '0a485b814212aba5'),
    ('epoch_growth', 'sharp-2-neg', 'noiseless'): (
        ('0x1.c969fe3dbdc04p-1',),
        '3beb810d0ae16486'),
    ('epoch_growth', 'sharp-2-neg', 'small-eps'): (
        ('0x1.cc06af2cef708p-1',),
        'c19516a2b059e478'),
    ('epoch_growth', 'sharp-2-neg', 'zero'): (
        ('0x1.c969fde73bb2fp-1',),
        '51146de6817a065b'),
    ('epoch_growth', 'uniform-d2-k3', 'gaussian'): (
        ('0x1.a95cb773c9eb6p-1', '0x1.729c7dd09dccdp-6'),
        '0bb8e43aa4d04371'),
    ('epoch_growth', 'uniform-d2-k3', 'noiseless'): (
        ('0x1.c9ff3a2d9e7cep-1', '0x1.c4082f670d145p-11'),
        '273dd491152323e0'),
    ('epoch_growth', 'uniform-d2-k3', 'small-eps'): (
        ('0x1.ca1115402551ap-2', '0x1.c427f571b3b53p-1'),
        '262689ca003ecf7f'),
    ('epoch_growth', 'uniform-d2-k3', 'zero'): (
        ('0x1.c9ff39b2cff17p-1', '0x1.c404401a09aa7p-11'),
        '26ce63a5c7c7d23f'),
    ('localization', 'knorm-d1-k2', 'gaussian'): (
        ('0x1.8504f974e85a8p-1',),
        '886af3c53d4ac322'),
    ('localization', 'knorm-d1-k2', 'noiseless'): (
        ('0x1.c1d02cccc7e13p-1',),
        'dee0fb6327627de6'),
    ('localization', 'knorm-d1-k2', 'small-eps'): (
        ('0x1.fff41e80e92f4p-1',),
        '8fa5a471f0ce4a5f'),
    ('localization', 'knorm-d1-k2', 'zero'): (
        ('0x1.c1d02c607053cp-1',),
        'f4a056f3248153f6'),
    ('localization', 'knorm-d2-k4', 'gaussian'): (
        ('0x1.91e44f82ea9e0p-1', '0x1.1c972cbfcfd40p-5'),
        '39030e3039a03b12'),
    ('localization', 'knorm-d2-k4', 'noiseless'): (
        ('0x1.cb18560293759p-1', '0x1.9c408c1866d66p-12'),
        '5502eb8d12dfd57a'),
    ('localization', 'knorm-d2-k4', 'small-eps'): (
        ('0x1.2fa931555db75p-1', '0x1.724d4b52fc77fp-1'),
        '270e42023357eda7'),
    ('localization', 'knorm-d2-k4', 'zero'): (
        ('0x1.cb18556737119p-1', '0x1.9c3d2beff9f12p-12'),
        '5c7d5fa6dc3562a9'),
    ('localization', 'sharp-1.5', 'gaussian'): (
        ('0x1.80fcb33f4a036p-1',),
        'f670545546948481'),
    ('localization', 'sharp-1.5', 'noiseless'): (
        ('0x1.bdde5cd47bc9fp-1',),
        'a59cdd8bdc55e233'),
    ('localization', 'sharp-1.5', 'small-eps'): (
        ('0x1.fff5f1a3c226ep-1',),
        'f9b69adb8045dc65'),
    ('localization', 'sharp-1.5', 'zero'): (
        ('0x1.bdde5c67fd43ap-1',),
        'df06106f4ea27da5'),
    ('localization', 'sharp-2-neg', 'gaussian'): (
        ('0x1.82e57ea474286p-1',),
        '319dc9e017635c1f'),
    ('localization', 'sharp-2-neg', 'noiseless'): (
        ('0x1.bfc5d00a7d3cbp-1',),
        'b9b3016c00cc005b'),
    ('localization', 'sharp-2-neg', 'small-eps'): (
        ('0x1.fff6b4502466ep-1',),
        'a9e7ddb6523c05e5'),
    ('localization', 'sharp-2-neg', 'zero'): (
        ('0x1.bfc5cf9e030b0p-1',),
        'b5c7a5329bbcd21a'),
    ('localization', 'uniform-d2-k3', 'gaussian'): (
        ('0x1.8d775d876798cp-1', '0x1.0604a173be9c8p-5'),
        '05aae977eec0ba88'),
    ('localization', 'uniform-d2-k3', 'noiseless'): (
        ('0x1.c68687c5a5c9ap-1', '-0x1.3b783f9313d62p-9'),
        'e2584e4af2e63846'),
    ('localization', 'uniform-d2-k3', 'small-eps'): (
        ('0x1.4717c3e544ac3p-1', '0x1.6f2efdacbe107p-1'),
        '4ad375c7b36ed334'),
    ('localization', 'uniform-d2-k3', 'zero'): (
        ('0x1.c685f167af42ap-1', '-0x1.3b8974f34ab5ap-9'),
        '51e50e8c8c890f79'),
}

# sha256 prefixes of the audit mechanism"s 200 outputs on each audit dataset,
# recorded from per-trial runs of the scalar chain.
PINNED_AUDIT = {
    ("epoch_growth", 1.0, 0.5): ("41b5f4fc3f941763", "7dae14dec577cabb"),
    ("epoch_growth", 1.0, 1.0): ("7a662b56ba10b7cb", "0ed98fafe31917ff"),
    ("epoch_growth", 1.0, 2.0): ("b71bea8ea60b219a", "a086d25e4993e226"),
    ("epoch_growth", 0.5, 0.5): ("8214d1daf2120c6e", "cff6cd68313a6c51"),
    ("epoch_growth", 0.5, 1.0): ("b71bea8ea60b219a", "a086d25e4993e226"),
    ("epoch_growth", 0.5, 2.0): ("8e0aa556296e0383", "bc736959a5da16db"),
    ("epoch_growth", 1.0 / 16.1, 0.5): ("f7a2057e5230c217", "bfb85b3f77ab6e94"),
    ("epoch_growth", 1.0 / 16.1, 1.0): ("d79a55c398ddb599", "4ba53c393b62b9ff"),
    ("epoch_growth", 1.0 / 16.1, 2.0): ("c67309ab70052d21", "c6c6aef375cf1451"),
    ("localization", 1.0, 0.5): ("5e6e2005a38a5c0a", "995cabab89de15c7"),
    ("localization", 1.0, 1.0): ("f8ae2e111dd1e432", "7705f877a7193198"),
    ("localization", 1.0, 2.0): ("7a6a58f376f95c8f", "5b6e729b985ebf70"),
    ("localization", 0.5, 0.5): ("f8ae2e111dd1e432", "7705f877a7193198"),
    ("localization", 0.5, 1.0): ("7a6a58f376f95c8f", "5b6e729b985ebf70"),
    ("localization", 0.5, 2.0): ("5286560aac08a9b3", "07e63a53c3f34502"),
    ("localization", 1.0 / 16.1, 0.5): ("f76e370144727b78", "e301c1aefe53e4b9"),
    ("localization", 1.0 / 16.1, 1.0): ("5e9fb110fcc9d3e4", "d78b1bc8fbab1d56"),
    ("localization", 1.0 / 16.1, 2.0): ("5d879111d87b41d5", "c2a721c03c7ef602"),
}


def _quad_instance(d=1, L=4.0):
    return build_instance(
        "uniform_convex", d=d, kappa=2, lam=1.0, L=L, R=1.0, bias_delta=0.1
    )


def _power_instance(kappa, L=2.0):
    lam = {3: 0.5, 4: 0.25}[kappa]
    return build_instance(
        "uniform_convex", d=1, kappa=kappa, lam=lam, L=L, R=1.0, bias_delta=0.1
    )


def _streams(seed):
    parent = RngStream(seed, 5)
    return (parent.child(t) for t in range(TRIALS))


def _assert_matches_pinned(module, loss, data, domain, x0, cfg, seed, pinned, trace=None):
    got = module.run(loss, data, domain, x0, cfg, _streams(seed), trace)
    assert got.shape == (TRIALS, 1)
    assert tuple(float(v).hex() for v in got[:3, 0]) == pinned
    single = [module.run(loss, data, domain, x0, cfg, [s])[0][0] for s in islice(_streams(seed), 3)]
    assert tuple(float(v).hex() for v in single) == pinned
    return got


def _config(pipeline, inst, n, privacy, noise_scale, kappa_lower=3.0):
    kw = dict(noise_scale=noise_scale)
    if pipeline == "localization":
        beta = 1.0 / (n + 1)
        eta = localization.default_eta(
            inst.domain.diameter(), inst.loss.lipschitz, n, beta, privacy, inst.domain.dim
        )
        return localization.LocalizationConfig.for_data_size(n, eta, privacy, **kw)
    return epoch_growth.EpochConfig.for_run(
        n, inst.loss, inst.domain, kappa_lower, 1.0 / (n + 1), privacy, **kw
    )


MODULES = {"localization": localization, "epoch_growth": epoch_growth}


@pytest.mark.parametrize("noise_scale", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_run_trials_matches_run_per_budget(pipeline, mode, noise_scale):
    privacy = MODES[mode]
    inst = _quad_instance()
    n = 128
    data = inst.draw(n, RngStream(60, 0))
    cfg = _config(pipeline, inst, n, privacy, noise_scale)
    # Start off-center so both the trust-region and the domain clamps bind.
    _assert_matches_pinned(
        MODULES[pipeline], inst.loss, data, inst.domain, np.array([0.9]), cfg, 61,
        PINNED_BUDGET[(pipeline, mode, noise_scale)],
    )


# Power-norm budgets: the acceptance sweeps' noiseless epsilon, no noise
# draws at all, and a small epsilon with a step large enough that the noise
# carries points out of the trust regions and the domain.
POWER_BUDGETS = {
    "noiseless": (PrivacyParams(1e6), 1.0),
    "zero": (PrivacyParams(1.0), 0.0),
    "small-eps": (PrivacyParams(0.1), 1.0),
}
# The quadratic chains also run an approximate budget.
BUDGETS = {**POWER_BUDGETS, "gaussian": (PrivacyParams(1.0, 1e-6), 1.0)}


def _budget_config(pipeline, inst, n, budget):
    privacy, noise_scale = BUDGETS[budget]
    cfg = _config(pipeline, inst, n, privacy, noise_scale)
    if budget != "small-eps":
        return cfg
    if pipeline == "localization":
        return dataclasses.replace(cfg, eta=4.0)
    return dataclasses.replace(cfg, eta0=0.5)


@pytest.mark.parametrize("budget", sorted(POWER_BUDGETS))
@pytest.mark.parametrize("kappa", [3, 4])
@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_power_norm_chains_match_pinned_outputs(pipeline, kappa, budget):
    inst = _power_instance(kappa)
    n = 128
    data = inst.draw(n, RngStream(70 + kappa, 0))
    cfg = _budget_config(pipeline, inst, n, budget)
    trace: list = []
    pinned = PINNED_POWER[(pipeline, kappa, budget)]
    got = _assert_matches_pinned(
        MODULES[pipeline], inst.loss, data, inst.domain, np.array([0.9]), cfg, 72 + kappa,
        pinned[:3], trace,
    )
    assert hashlib.sha256(got[:, 0].tobytes()).hexdigest()[:16] == pinned[3]
    if budget == "small-eps":
        # Some trials end an epoch on their region's edge, or a phase on the
        # domain's: core.project moved them there.
        if pipeline == "epoch_growth":
            edge = [np.abs(rec.x_next - rec.center) >= rec.radius * (1 - 1e-12) for rec in trace]
        else:
            edge = [np.abs(rec.x_noised) == 1.0 for rec in trace]
        assert np.sum(edge) > 0


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_quadratic_chains_match_pinned_outputs(pipeline, d, budget, monkeypatch):
    # The localization chain runs in a lens, the ball of radius 0.5 around
    # its start within the domain, so that its regions, like the epoch
    # chain's, are intersections of balls.  At the small epsilon, closed
    # forms and noised points leave them, and core.project runs Dykstra.
    inst = _quad_instance(d)
    n = 128
    data = inst.draw(n, RngStream(80 + d, 0))
    x0 = np.zeros(d)
    x0[0] = 0.9
    domain = inst.domain if pipeline == "epoch_growth" else Domain(x0, 0.5, parent=inst.domain)
    cfg = _budget_config(pipeline, inst, n, budget)
    dykstra = []
    monkeypatch.setattr(
        localization, "project",
        lambda dom, x: dykstra.append(dom.parent is not None) or project(dom, x),
    )
    module = MODULES[pipeline]
    got = module.run(inst.loss, data, domain, x0, cfg, _streams(81 + d))
    first, digest = PINNED_QUAD[(pipeline, d, budget)]
    assert got.shape == (TRIALS, d)
    assert tuple(float(v).hex() for v in got[0]) == first
    assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == digest
    single = np.array([module.run(inst.loss, data, domain, x0, cfg, [s])[0]
                       for s in islice(_streams(81 + d), 3)])
    assert single.tobytes() == got[:3].tobytes()
    if budget == "small-eps":
        assert sum(dykstra) > 0


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_separable_chains_match_pinned_outputs(pipeline, d, budget, monkeypatch):
    # pure_convex's separable absolute loss, in the lens and domain of the
    # quadratic chains above.  At the small epsilon, minimizers leave their
    # regions (erm.solve dualizes the binding ball) and noised points leave
    # the lens and the epoch balls (core.project runs Dykstra).  In the
    # noiseless d = 4 localization case two streams raise ConvergenceError
    # in the generic loop: a phase's certificate fails, and so does the
    # projected-subgradient fallback.  The kernel falls back to that same
    # erm.solve and raises on the same streams; two solver iterations
    # suffice to show it, and no other stream of these cases descends.
    monkeypatch.setattr(localization, "MAX_SOLVER_ITERS", 2)
    inst = build_instance("pure_convex", d=d, L=1.0, R=1.0)
    n = 128
    data = inst.draw(n, RngStream(90 + d, 0))
    x0 = np.zeros(d)
    x0[0] = 0.9
    domain = inst.domain if pipeline == "epoch_growth" else Domain(x0, 0.5, parent=inst.domain)
    cfg = _budget_config(pipeline, inst, n, budget)
    fallbacks = dict(dykstra=0, dual_ball=0)
    monkeypatch.setattr(
        localization, "project",
        lambda dom, x: fallbacks.__setitem__("dykstra", fallbacks["dykstra"] + (
            dom.parent is not None)) or project(dom, x),
    )
    dual_ball = erm._dual_ball_separable
    monkeypatch.setattr(
        erm, "_dual_ball_separable",
        lambda *a, **kw: fallbacks.__setitem__("dual_ball", fallbacks["dual_ball"] + 1)
        or dual_ball(*a, **kw),
    )
    first, digest, raised = PINNED_ABS[(pipeline, d, budget)]
    module = MODULES[pipeline]

    def streams(keep):
        return [s for t, s in enumerate(_streams(91 + d)) if (t in raised) != keep]

    got = module.run(inst.loss, data, domain, x0, cfg, streams(True))
    assert got.shape == (TRIALS - len(raised), d)
    assert tuple(float(v).hex() for v in got[0]) == first
    assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == digest
    single = np.array([module.run(inst.loss, data, domain, x0, cfg, [s])[0]
                       for s in streams(True)[:3]])
    assert single.tobytes() == got[:3].tobytes()
    for s in streams(False):
        with pytest.raises(ConvergenceError):
            module.run(inst.loss, data, domain, x0, cfg, [s])
    if budget == "small-eps":
        assert min(fallbacks.values()) > 0, fallbacks


GENERIC = {
    "knorm-d1-k2": ("knorm_regression", dict(d=1, kappa=2, R=1.0)),
    "knorm-d2-k4": ("knorm_regression", dict(d=2, kappa=4, R=1.0)),
    "sharp-1.5": ("sharp_growth", dict(kappa=1.5, bias_delta=0.25)),
    "sharp-2-neg": ("sharp_growth", dict(kappa=2.0, bias_delta=0.5, v=-1)),
    "uniform-d2-k3": ("uniform_convex", dict(d=2, kappa=3, lam=0.5, L=4.0, R=1.0,
                                              bias_delta=0.2)),
}
GENERIC_STREAMS = 4


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("case", sorted(GENERIC))
@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_hintless_chains_match_pinned_outputs(pipeline, case, budget):
    # The losses with no kernel phase of their own: each phase takes the
    # regularizer-dominance shortcut or solves every trial with erm.solve.
    name, params = GENERIC[case]
    inst = build_instance(name, **params)
    d = inst.domain.dim
    n = 128
    data = inst.draw(n, RngStream(100, 0))
    x0 = np.zeros(d)
    x0[0] = 0.9
    cfg = _budget_config(pipeline, inst, n, budget)
    module = MODULES[pipeline]
    first, digest = PINNED_GENERIC[(pipeline, case, budget)]
    got = module.run(inst.loss, data, inst.domain, x0, cfg,
                     islice(_streams(101), GENERIC_STREAMS))
    assert got.shape == (GENERIC_STREAMS, d)
    assert tuple(float(v).hex() for v in got[0]) == first
    assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == digest
    single = module.run(inst.loss, data, inst.domain, x0, cfg, [next(_streams(101))])[0]
    assert single.tobytes() == got[0].tobytes()


def test_row_norms_equal_numpy_norm_row_for_row():
    rng = np.random.default_rng(13)
    for d in range(1, 17):
        rows = rng.standard_normal((5000, d)) * 10.0 ** rng.uniform(-8, 2, (5000, 1))
        want = np.array([np.linalg.norm(row) for row in rows])
        assert erm._row_norms(rows).tobytes() == want.tobytes()
        # A difference with a broadcast center, as the kernel forms it.
        center = rows[0]
        want = np.array([np.linalg.norm(row - center) for row in rows])
        assert erm._row_norms(rows - center).tobytes() == want.tobytes()


def _assert_block_means(samples, offsets, k, n0, label):
    """Each of ``_block_means``'s means has the bits of its widened block's
    own ``mean(axis=0)``, and so does that mean times each scale: the
    shipped lin_scales 0.5, 1 and 2, one that is not a power of two, and a
    negative one.  Return how many scaled means read -0.0 from a block that
    is not all zeros."""
    got = localization._block_means(samples, offsets, k, n0)
    assert got.shape == (len(offsets), k, len(samples), samples.shape[-1])
    zeros = 0
    for c, offset in enumerate(offsets):
        for i in range(k):
            for t in range(len(samples)):
                block = samples[t, offset + i * n0 : offset + (i + 1) * n0].astype(float)
                want = block.mean(axis=0)
                assert got[c, i, t].tobytes() == want.tobytes(), label
                for scale in (1.0, 2.0, 0.5, 0.3, -2.0):
                    scaled = scale * want
                    assert (scale * got[c, i, t]).tobytes() == scaled.tobytes(), label
                    zeros += int(np.sum((scaled == 0.0) & np.signbit(scaled)
                                        & (block != 0.0).any(axis=0)))
    return zeros


def test_block_means_equal_each_blocks_own_mean():
    # One pass over every dataset's chains of blocks must give each block
    # the bits of the mean the loss's batch_subgrad takes of it alone.
    # Continuous samples: sums of the sweeps' +-1 samples are exact in any
    # order and would not tell.  float32 samples are widened exactly, and
    # 200 or more datasets go through in one pass.
    rng = np.random.default_rng(14)
    for d in (1, 2, 4):
        for k, n0 in ((1, 3), (5, 8), (3, 9), (7, 18), (2, 129)):
            offsets = [0, k * n0 + 3, 2 * k * n0 + 11]
            samples = rng.standard_normal((3, 3 * k * n0 + 16, d)) * 10.0 ** rng.uniform(-3, 3)
            _assert_block_means(samples, offsets, k, n0, (d, k, n0))
        for dtype in (np.float64, np.float32):
            offsets = [0, 37]
            samples = (rng.standard_normal((203, 90, d)) * 10.0 ** rng.uniform(-3, 3)).astype(dtype)
            _assert_block_means(samples, offsets, 2, 17, (d, dtype))


def test_integer_block_sums_equal_the_float_reduction_bit_for_bit():
    # int8 samples, as the signed-coordinate samplers draw the sweeps' 0 and
    # +-1, take exact int64 block sums; every block's mean, and that mean
    # times any scale, must have the bits of the float reduction's, the
    # sign of zero included: at -2 a block that sums to 0 reads -0.0 both
    # ways.
    rng = np.random.default_rng(25)
    n0s = (1, 2, 3, 7, 8, 9, 100, 129, 1000, 2**14)
    zeros = 0
    for d in (1, 4):
        for n0 in n0s:
            k = 2 if n0 < 2**14 else 1
            datasets = 3 if n0 < 1000 else 2
            offsets = [0, k * n0 + 5]
            samples = rng.integers(-1, 2, (datasets, 2 * k * n0 + 5, d)).astype(np.int8)
            if n0 >= 100:  # some blocks of large values
                samples[0] = rng.integers(-128, 128, samples.shape[1:])
            zeros += _assert_block_means(samples, offsets, k, n0, (d, n0))
    assert zeros > 0


def test_per_trial_samples_are_held_as_given_with_the_same_bits():
    # A run holds per-trial samples as they come: a sampler's int8 or
    # float32 draws as drawn, and Datasets of them as float64.  Their block
    # means have the same bits either way, and so do the runs' outputs, at
    # any lin_scale: L = 3 gives 1.5, which is not a power of two.
    cases = (("uniform_convex", dict(d=1, kappa=2, lam=1.0, L=4.0, R=1.0, bias_delta=0.1), np.int8),
             ("uniform_convex", dict(d=4, kappa=2, lam=1.0, L=2.0, R=1.0), np.int8),
             ("uniform_convex", dict(d=1, kappa=2, lam=1.0, L=3.0, R=1.0, bias_delta=0.1), np.int8),
             ("uniform_convex", dict(d=2, kappa=2, lam=1.0, L=3.0, R=1.0), np.int8),
             ("uniform_convex", dict(d=1, kappa=4, lam=0.25, L=3.0, R=1.0, bias_delta=0.1),
              np.int8),
             ("pure_convex", dict(d=4, L=1.0, R=1.0), np.float32))
    for name, params, dtype in cases:
        inst = build_instance(name, **params)
        d = inst.loss.point_dim
        drawn = [inst.draw_samples(256, RngStream(5, t)) for t in range(4)]
        assert drawn[0].dtype == dtype
        for algorithm, module in harness._CHAINS.items():
            cfg = harness._chain_config(algorithm, inst, 256, d, 1.0 / 257, PrivacyParams(1.0), 3.0)
            held, outs = [], []
            for data in (drawn, [Dataset(samples) for samples in drawn]):
                held.append(localization._trial_inputs(inst.loss, data, inst.domain,
                                                       np.zeros(d), 1)[0].dtype)
                outs.append(module.run(inst.loss, data, inst.domain, np.zeros(d), cfg,
                                       [RngStream(6, t) for t in range(4)]))
            assert held == [dtype, np.float64], (name, d, algorithm)
            assert outs[0].tobytes() == outs[1].tobytes(), (name, d, algorithm)


def _one_chain(loss, samples, cfg, schedule, z, x, domain, epoch, trace):
    """The phase kernel on one chain of one group of trials, with its own
    schedule and unit noise."""
    table = np.array([[phase[1:] for phase in schedule]])
    # The unit noise of the phases that draw any, one row per trial.
    draws = z[:, : np.count_nonzero(table[..., 5] > 0)].reshape(len(z), -1)
    bounds, noise = localization._noise_table([table], [draws], x.shape[1])
    plan = (samples, ([0], [None], cfg.n0, table))
    ((parts, phases),) = localization._lockstep(loss, [plan], noise, bounds, x.shape[1])
    return localization._chain_trials(loss, parts, phases, x, domain, epoch, trace)


def test_lone_group_schedule_columns_are_a_view_of_its_table_row():
    # A lone group's per-trial schedule columns broadcast its table row with
    # stride 0 along the trials: a group of 100 000 outputs holds no copy.
    inst = _quad_instance()
    cfg = localization.LocalizationConfig.for_data_size(64, 0.01, PrivacyParams(1.0))
    table = localization._table(cfg, inst.loss.lipschitz, 1)
    trials = 1000
    samples = inst.draw(64, RngStream(0, 0)).samples[None]
    draws = np.zeros((trials, np.count_nonzero(table[..., 5] > 0)))
    bounds, noise = localization._noise_table([table], [draws], 1)
    plan = (samples, ([0], [None], cfg.n0, table))
    ((_, (values, active, *_)),) = localization._lockstep(inst.loss, [plan], noise, bounds, 1)
    assert values.shape == (cfg.k, 6, trials, 1)
    assert values.strides[2] == 0
    assert values[:, :, 0, 0].tobytes() == table[0].tobytes()
    assert active.shape == (cfg.k, trials) and active.all()


def test_quadratic_phase_matches_erm_solve_bit_for_bit(monkeypatch):
    # 3 instances x 2 domains x 4 schedules x 100 trials = 2400 random
    # phases at d = 2 and d = 4 with L = 4, and at d = 2 with L = 3, whose
    # lin_scale 1.5 is not a power of two, each with its own data, anchor
    # and epoch ball.  The kernel's solution and its projected noised point
    # must equal erm.solve's and core.project's.  Anchors a hair outside their ball
    # make the dominance shortcut project, small trust regions put closed
    # forms outside their region, and large noise leaves the domain.  The
    # kernel's certificate must reject a closed form exactly when
    # erm.solve's does: it falls back to erm.solve once per reference solve
    # that has to descend (none at these scales; see the batch test below
    # for a forced one).
    solve, descend = erm.solve, erm._solve_subgradient
    fallbacks, descents = [], []
    monkeypatch.setattr(erm, "solve", lambda *a, **kw: fallbacks.append(1) or solve(*a, **kw))
    monkeypatch.setattr(
        erm, "_solve_subgradient", lambda *a, **kw: descents.append(1) or descend(*a, **kw)
    )
    rng = np.random.default_rng(12)
    trials, m = 100, 16
    cfg = localization.LocalizationConfig(eta=1.0, privacy=PrivacyParams(1.0), k=1, n0=m)
    counts = dict(phases=0, dominance=0, anchor_projected=0, outside_region=0, projected=0)
    for d, L in ((2, 4.0), (4, 4.0), (2, 3.0)):
        inst = _quad_instance(d, L)
        loss, domain, st = inst.loss, inst.domain, inst.loss.structure
        for with_epoch in (False, True):
            samples = rng.uniform(-1.0, 1.0, (trials, m, d))
            u = rng.standard_normal((trials, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            radius_e = float(rng.uniform(0.05, 0.5))
            hair = 10.0 ** rng.uniform(-12, -9.4, (40, 1))
            if with_epoch:
                v = rng.standard_normal((trials, d))
                v /= np.linalg.norm(v, axis=1, keepdims=True)
                centers = v * rng.uniform(0.0, 0.9 - radius_e, (trials, 1))
                x = centers + u * radius_e * rng.uniform(0.0, 1.0, (trials, 1))
                x[:40] = centers[:40] + u[:40] * (radius_e + hair)
            else:
                x = u * rng.uniform(0.0, 1.0, (trials, 1))
                x[:40] = u[:40] * (1.0 + hair)
            epoch = (centers, radius_e) if with_epoch else None
            outer = [Domain(centers[t], radius_e, parent=domain) if with_epoch else domain
                     for t in range(trials)]
            z = rng.laplace(size=(trials, 1, d))
            tol_floor = localization._tol_floor(loss.lipschitz, outer[0])
            for dominance in (False, True, False, False):
                sensitivity = 10.0 ** rng.uniform(-10, -2)
                sigma = 10.0 ** rng.uniform(-2, 1)
                tol = localization._phase_tol(sensitivity, sigma, tol_floor)
                lam = (loss.lipschitz ** 2 / (4.0 * tol) * 2.0 if dominance
                       else 10.0 ** rng.uniform(-1, 4))
                radius = 10.0 ** rng.uniform(-4, 0)
                sigma_used = float(rng.choice([0.0, sigma]))
                schedule = [(1, 1.0, radius, lam, sensitivity, sigma, sigma_used)]
                trace: list = []
                fallbacks.clear()
                got = _one_chain(loss, samples, cfg, schedule, z, x, domain, epoch, trace)
                descents.clear()
                for t in range(trials):
                    region = Domain(x[t], radius, parent=outer[t])
                    problem = erm.RegularizedProblem(
                        loss=loss, batch=Dataset(samples[t]), anchor=x[t], reg_weight=lam,
                        domain=region,
                    )
                    want = solve(problem, tol=tol, max_iters=localization.MAX_SOLVER_ITERS)
                    assert trace[0].x_solved[t].tobytes() == want.tobytes()
                    noised = want + (z[t, 0] * sigma_used if sigma_used > 0 else 0.0)
                    want_next = project(outer[t], noised)
                    assert got[t].tobytes() == want_next.tobytes()
                    closed = (2.0 * lam * x[t] - st.lin_scale * samples[t].mean(axis=0)) / (
                        st.curvature + 2.0 * lam
                    )
                    counts["phases"] += 1
                    counts["dominance"] += dominance
                    counts["anchor_projected"] += dominance and not np.array_equal(want, x[t])
                    counts["outside_region"] += not dominance and not region.contains(closed, 0.0)
                    counts["projected"] += not np.array_equal(want_next, noised)
                assert len(fallbacks) == len(descents)
    assert counts["phases"] >= 1000
    assert min(counts.values()) > 0, counts


def test_separable_phase_matches_erm_solve_bit_for_bit(monkeypatch):
    # 2 dimensions x 2 domains x 4 schedules x 150 trials = 2400 random
    # phases of pure_convex's separable absolute loss at d = 1 and d = 4,
    # each with its own data (three-atom or continuous), anchor and epoch
    # ball.  The kernel's solution and its projected noised point must equal
    # erm.solve's and core.project's.  Anchors a hair outside their ball make
    # the dominance shortcut project, small trust regions put coordinatewise
    # minimizers outside their region (erm.solve then dualizes the binding
    # ball), and large noise leaves the domain.  The kernel must fall back to
    # erm.solve exactly for the phases whose reference solve leaves the
    # interior path: its minimizer lies outside, or its certificate fails.
    solve = erm.solve
    fallbacks, slow = [], []
    monkeypatch.setattr(erm, "solve", lambda *a, **kw: fallbacks.append(1) or solve(*a, **kw))
    for name in ("_dual_ball_separable", "certified_gap"):
        original = getattr(erm, name)
        monkeypatch.setattr(
            erm, name, lambda *a, _f=original, _n=name, **kw: slow.append(_n) or _f(*a, **kw)
        )
    rng = np.random.default_rng(15)
    trials, m = 150, 16
    cfg = localization.LocalizationConfig(eta=1.0, privacy=PrivacyParams(1.0), k=1, n0=m)
    counts = dict(phases=0, dominance=0, anchor_projected=0, outside_region=0, projected=0)
    for d in (1, 4):
        inst = build_instance("pure_convex", d=d, L=1.0, R=1.0)
        loss, domain = inst.loss, inst.domain
        for with_epoch in (False, True):
            samples = rng.uniform(-1.0, 1.0, (trials, m, d))
            samples[::2] = np.round(samples[::2] * 2.0) / 4.0
            u = rng.standard_normal((trials, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            radius_e = float(rng.uniform(0.05, 0.5))
            hair = 10.0 ** rng.uniform(-12, -9.4, (40, 1))
            if with_epoch:
                v = rng.standard_normal((trials, d))
                v /= np.linalg.norm(v, axis=1, keepdims=True)
                centers = v * rng.uniform(0.0, 0.9 - radius_e, (trials, 1))
                x = centers + u * radius_e * rng.uniform(0.0, 1.0, (trials, 1))
                x[:40] = centers[:40] + u[:40] * (radius_e + hair)
            else:
                x = u * rng.uniform(0.0, 1.0, (trials, 1))
                x[:40] = u[:40] * (1.0 + hair)
            epoch = (centers, radius_e) if with_epoch else None
            outer = [Domain(centers[t], radius_e, parent=domain) if with_epoch else domain
                     for t in range(trials)]
            z = rng.laplace(size=(trials, 1, d))
            tol_floor = localization._tol_floor(loss.lipschitz, outer[0])
            for dominance in (False, True, False, False):
                sensitivity = 10.0 ** rng.uniform(-10, -2)
                sigma = 10.0 ** rng.uniform(-2, 1)
                tol = localization._phase_tol(sensitivity, sigma, tol_floor)
                lam = (loss.lipschitz ** 2 / (4.0 * tol) * 2.0 if dominance
                       else 10.0 ** rng.uniform(-1, 4))
                radius = 10.0 ** rng.uniform(-4, 0)
                sigma_used = float(rng.choice([0.0, sigma]))
                schedule = [(1, 1.0, radius, lam, sensitivity, sigma, sigma_used)]
                trace: list = []
                fallbacks.clear()
                got = _one_chain(loss, samples, cfg, schedule, z, x, domain, epoch, trace)
                reference_slow = 0
                for t in range(trials):
                    region = Domain(x[t], radius, parent=outer[t])
                    problem = erm.RegularizedProblem(
                        loss=loss, batch=Dataset(samples[t]), anchor=x[t], reg_weight=lam,
                        domain=region,
                    )
                    slow.clear()
                    want = solve(problem, tol=tol, max_iters=localization.MAX_SOLVER_ITERS)
                    reference_slow += bool(slow)
                    assert trace[0].x_solved[t].tobytes() == want.tobytes()
                    noised = want + (z[t, 0] * sigma_used if sigma_used > 0 else 0.0)
                    want_next = project(outer[t], noised)
                    assert got[t].tobytes() == want_next.tobytes()
                    counts["phases"] += 1
                    counts["dominance"] += dominance
                    counts["anchor_projected"] += dominance and not np.array_equal(want, x[t])
                    counts["outside_region"] += "_dual_ball_separable" in slow
                    counts["projected"] += not np.array_equal(want_next, noised)
                assert len(fallbacks) == reference_slow
    assert counts["phases"] >= 1000
    assert min(counts.values()) > 0, counts


def test_power_norm_phase_matches_erm_solve_bit_for_bit(monkeypatch):
    # 3 instances x 2 domains x 4 schedules x 100 trials = 2400 random
    # phases, each with its own data, anchor and epoch ball: kappa 3 and 4
    # with L = 2, and kappa 4 with L = 3, whose lin_scale 1.5 is not a
    # power of two.  The kernel's solution
    # and its projected noised point must equal erm.solve's and
    # core.project's.  Anchors a hair outside their epoch ball make the
    # dominance shortcut project, and large noise lands points where a clamp
    # to the interval and core.project differ by an ulp.  At kappa = 4, some
    # anchors with L = 2 sit on the lower edge of their epoch ball, at
    # points where numpy's cube falls below libm's, and their data put the
    # phase's derivative at exactly 0 there (the linear term is the sample
    # itself): libm's pow gives the edge, numpy's power a bisection.
    # The kernel's certificate must reject a root exactly when erm.solve's
    # does: it falls back to erm.solve once per reference solve that has to
    # descend.
    solve, descend = erm.solve, erm._solve_subgradient
    fallbacks, descents = [], []
    monkeypatch.setattr(erm, "solve", lambda *a, **kw: fallbacks.append(1) or solve(*a, **kw))
    monkeypatch.setattr(
        erm, "_solve_subgradient", lambda *a, **kw: descents.append(1) or descend(*a, **kw)
    )
    rng = np.random.default_rng(11)
    trials, m = 100, 16  # identical samples then have an exact mean
    cfg = localization.LocalizationConfig(eta=1.0, privacy=PrivacyParams(1.0), k=1, n0=m)
    counts = dict(phases=0, dominance=0, anchor_projected=0, edge_solutions=0, projected=0,
                  clamp_differs=0)
    for kappa, L in ((3, 2.0), (4, 2.0), (4, 3.0)):
        inst = _power_instance(kappa, L)
        loss, domain = inst.loss, inst.domain
        L, cp = loss.lipschitz, loss.structure.coef * loss.structure.power
        for with_epoch in (False, True):
            samples = rng.uniform(-1.0, 1.0, (trials, m))
            radius_e = float(rng.uniform(0.05, 0.5))
            centers = rng.uniform(-0.9 + radius_e, 0.9 - radius_e, trials)
            x = rng.uniform(-1.0, 1.0, trials)
            edge = np.zeros(trials, dtype=bool)
            if with_epoch:
                x = np.clip(centers + rng.uniform(-1.0, 1.0, trials) * radius_e, -1.0, 1.0)
                side = rng.choice([-1.0, 1.0], 40)
                x[:40] = centers[:40] + side * (radius_e + 10.0 ** rng.uniform(-12, -9.4, 40))
                if kappa == 4 and L == 2.0:
                    c = rng.uniform(radius_e + 0.05, 0.9, 4000)
                    a = c - radius_e
                    a_cubed = np.array([v ** 3.0 for v in a.tolist()])
                    pick = np.flatnonzero(np.power(a, 3.0) < a_cubed)[:20]
                    centers[40:60], x[40:60] = c[pick], a[pick]
                    samples[40:60] = -(cp * a_cubed[pick])[:, None]
                    edge[40:60] = True
            epoch = (centers[:, None], radius_e) if with_epoch else None
            outer = [Domain(centers[t : t + 1], radius_e, parent=domain) if with_epoch
                     else domain for t in range(trials)]
            tol_floor = localization._TOL_FLOOR_FACTOR * L * max(
                1.0, 2.0 * min(radius_e if with_epoch else 1.0, 1.0)
            )
            z = rng.laplace(size=(trials, 1, 1))
            for dominance in (False, True, False, False):
                sensitivity = 10.0 ** rng.uniform(-10, -2)
                sigma = 10.0 ** rng.uniform(-2, 1)
                tol = max(min(sensitivity, sigma) / 100.0, tol_floor)
                lam = (L * L / (4.0 * tol) * 2.0 if dominance
                       else 10.0 ** rng.uniform(-1, 4))
                radius = 10.0 ** rng.uniform(-4, 0)
                sigma_used = float(rng.choice([0.0, sigma]))
                schedule = [(1, 1.0, radius, lam, sensitivity, sigma, sigma_used)]
                trace: list = []
                fallbacks.clear()
                got = _one_chain(loss, samples[:, :, None], cfg, schedule, z, x[:, None], domain,
                                 epoch, trace)
                descents.clear()
                for t in range(trials):
                    problem = erm.RegularizedProblem(
                        loss=loss, batch=Dataset(samples[t]), anchor=x[t : t + 1],
                        reg_weight=lam, domain=Domain(x[t : t + 1], radius, parent=outer[t]),
                    )
                    want = solve(problem, tol=tol, max_iters=localization.MAX_SOLVER_ITERS)
                    assert float(trace[0].x_solved[t, 0]).hex() == float(want[0]).hex()
                    if edge[t]:
                        assert want[0] == x[t]
                    noised = want + (z[t, 0] * sigma_used if sigma_used > 0 else 0.0)
                    want_next = project(outer[t], noised)
                    assert float(got[t, 0]).hex() == float(want_next[0]).hex()
                    lo, hi = outer[t].interval()
                    counts["phases"] += 1
                    counts["dominance"] += dominance
                    counts["anchor_projected"] += dominance and want[0] != x[t]
                    counts["edge_solutions"] += edge[t] and not dominance
                    counts["projected"] += bool(want_next[0] != noised[0])
                    counts["clamp_differs"] += bool(np.clip(noised[0], lo, hi) != want_next[0])
                assert len(fallbacks) == len(descents)
    assert counts["phases"] >= 1000
    assert min(counts.values()) > 0, counts


@pytest.mark.parametrize("scale", [1.0, 0.5, 1.0 / 16.1])
@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_audit_mechanism_matches_per_trial_runs(pipeline, scale):
    # The audit's own configs (n = 32) on both datasets of the audit pair,
    # each dataset's outputs one group of an audit batch.
    for eps in (0.5, 1.0, 2.0):
        outs = harness._audit_chains(pipeline, [
            (scale, eps, dataset, RngStream(62, 1), TRIALS)
            for dataset in harness._audit_datasets(32)])
        digests = tuple(hashlib.sha256(out.tobytes()).hexdigest()[:16] for out in outs)
        assert digests == PINNED_AUDIT[(pipeline, scale, eps)]


def test_epoch_run_trials_skips_frozen_epochs():
    # kappa_lower = 1.2 at n = 1024 gives T = 101 epochs; radii below
    # 1e-15 R0 (i >= 50) freeze 51 of them.
    inst = _quad_instance()
    n = 1024
    cfg = _config("epoch_growth", inst, n, PrivacyParams(1.0), 1.0, kappa_lower=1.2)
    data = inst.draw(n, RngStream(63, 0))
    trace: list = []
    epoch_growth.run(inst.loss, data, inst.domain, np.zeros(1), cfg, [RngStream(63, 1)],
                     trace=trace)
    assert cfg.T == 101
    assert sum(rec.frozen for rec in trace) == 51
    batched: list = []
    epoch_growth.run(inst.loss, data, inst.domain, np.zeros(1), cfg, _streams(64),
                     trace=batched)
    assert [rec.frozen for rec in batched] == [rec.frozen for rec in trace]
    _assert_matches_pinned(
        epoch_growth, inst.loss, data, inst.domain, np.zeros(1), cfg, 64, PINNED_FROZEN
    )


def test_epoch_run_trials_clamps_to_each_trials_region():
    # A step size 30x the default at eps = 0.1 makes the noise comparable to
    # the epoch radii, so outputs land on their own trial's region bounds.
    inst = _quad_instance()
    n = 128
    base = _config("epoch_growth", inst, n, PrivacyParams(0.1), 1.0)
    cfg = epoch_growth.EpochConfig(privacy=base.privacy, T=base.T, R0=base.R0, eta0=0.5)
    data = inst.draw(n, RngStream(67, 0))
    x0 = np.array([0.9])
    trace: list = []
    epoch_growth.run(inst.loss, data, inst.domain, x0, cfg, _streams(68), trace=trace)
    on_region_edge = sum(
        int(np.sum((np.abs(rec.x_next - rec.center) >= rec.radius * (1 - 1e-12))
                   & (np.abs(rec.x_next) < 1.0)))
        for rec in trace
    )
    assert on_region_edge > 0
    _assert_matches_pinned(
        epoch_growth, inst.loss, data, inst.domain, x0, cfg, 68, PINNED_CLAMPED
    )


@pytest.mark.parametrize("pipeline", sorted(MODULES))
def test_run_trials_rejects_bad_inputs(pipeline):
    module = MODULES[pipeline]
    privacy = PrivacyParams(1.0)
    # x0 outside the domain, too few samples.
    quad = _quad_instance()
    data = quad.draw(64, RngStream(65, 2))
    cfg = _config(pipeline, quad, 64, privacy, 1.0)
    with pytest.raises(InvalidInputError):
        module.run(quad.loss, data, quad.domain, np.array([9.0]), cfg, _streams(66))
    with pytest.raises(InvalidInputError):
        module.run(quad.loss, quad.draw(4, RngStream(65, 3)), quad.domain,
                   np.zeros(1), cfg, _streams(66))
    # Per-trial inputs: one start outside the domain, a count that is neither
    # one nor the number of streams, datasets of different sizes.
    starts = np.zeros((TRIALS, 1))
    starts[7] = 9.0
    with pytest.raises(InvalidInputError):
        module.run(quad.loss, data, quad.domain, starts, cfg, _streams(66))
    with pytest.raises(InvalidInputError):
        module.run(quad.loss, [data, data], quad.domain, np.zeros(1), cfg,
                   _streams(66))
    with pytest.raises(InvalidInputError):
        module.run(quad.loss, [data, quad.draw(65, RngStream(65, 4))], quad.domain,
                   np.zeros(1), cfg, _streams(66))
    # The boundaries of the one input check: the fewest samples a run takes
    # (k * n0 for localization, two per epoch), and a start just inside and
    # just outside the start tolerance, on the closed-form 1-D chain and on
    # the d = 2 kernel.
    least = cfg.k * cfg.n0 if pipeline == "localization" else 2 * cfg.T
    tol = localization._START_TOL
    cases = [(quad, cfg, least, 0.0, True), (quad, cfg, least - 1, 0.0, False)]
    for inst in (quad, _quad_instance(2)):
        inst_cfg = _config(pipeline, inst, 64, privacy, 1.0)
        edge = inst.domain.radius
        cases += [(inst, inst_cfg, 64, edge + tol / 2, True),
                  (inst, inst_cfg, 64, edge + 2 * tol, False)]
    for inst, inst_cfg, n, offset, runs in cases:
        x0 = np.zeros(inst.domain.dim)
        x0[0] = offset

        def run():
            return module.run(inst.loss, inst.draw(n, RngStream(65, 5)), inst.domain,
                              x0, inst_cfg, _streams(66))

        if runs:
            assert np.isfinite(run()).all()
        else:
            with pytest.raises(InvalidInputError):
                run()


# ---------------------------------------------------------------------------
# Batched sweep cells
# ---------------------------------------------------------------------------

SWEEP = """
[experiment]
name = batched
algorithm = epoch_growth
seeds = 5
master_seed = 31
beta = auto
x0_offset = 0.01

[instance]
name = uniform_convex
d = 1
kappa = 2
lam = 1.0
L = 4.0
R = 1.0
bias_delta = 0.1

[sweep]
n = 256
epsilon = 1.0

[algorithm]
kappa_lower = 3.0
"""

# Sweep cells, as changes to the config above: both chains with
# distinct random starts, an approximate budget, frozen epochs (T = 100 at
# kappa_lower = 1.2, n = 1024), a cell too small for its epochs, whose
# every trial records the error, and both chains on the kappa = 4 power
# norm, one with enough noise to reach the trust regions, and both chains
# on the d = 4 quadratic, the epoch one also at an approximate budget, and
# on pure_convex's separable absolute loss: localization at d = 4, as the
# priv_pure sweep runs it, and epochs at d = 1, noisy, and at d = 4 with an
# approximate budget, and losses whose phases erm.solve solves: localization
# on sharp_growth, and epochs on the d = 2 knorm regression.  The starts are
# close enough to the minimizer, and at d = 1 the noise large enough, that
# the trials' epoch_i0 differ; at d >= 2 each trial's epoch_i0 is read from
# its own centers.  The grid sampler (on the invsens config's lattice) and
# the ERM oracle, at d = 1 and d = 4, run a unit's trials one after
# another.
KAPPA4 = dict(kappa=4, lam=0.25, L=2.0, R=1.0, bias_delta=0.1)
ABS = dict(instance_name="pure_convex", instance_params=dict(L=1.0, R=1.0))
GRID = dict(algorithm="inv_sensitivity", rho=1e-3, grid_spacing=2.5e-4)
CELLS = {
    "localization-abs-d4": dict(algorithm="localization", sweep_d=(4,), **ABS),
    "epoch-abs-d1": dict(sweep_epsilon=(0.05,), **ABS),
    "epoch-abs-d4-approx": dict(sweep_d=(4,), sweep_delta=(1e-6,), **ABS),
    "localization": dict(algorithm="localization"),
    "localization-kappa4": dict(algorithm="localization", instance_params=KAPPA4),
    "localization-d4": dict(algorithm="localization", sweep_d=(4,)),
    "epoch-d4": dict(sweep_d=(4,)),
    "epoch-d4-approx": dict(sweep_d=(4,), sweep_delta=(1e-6,)),
    "epoch-kappa4": dict(instance_params=KAPPA4),
    "epoch-kappa4-private": dict(instance_params=KAPPA4, sweep_epsilon=(0.05,)),
    "epoch-approx": dict(sweep_delta=(1e-6,)),
    "epoch-frozen": dict(
        sweep_n=(1024,), kappa_lower=1.2, sweep_epsilon=(1e6,), x0_offset=0.001
    ),
    "epoch-too-small": dict(sweep_n=(8,), kappa_lower=1.5),
    "localization-sharp": dict(algorithm="localization", instance_name="sharp_growth",
                               instance_params=dict(kappa=1.5, bias_delta=0.25)),
    "epoch-knorm-d2": dict(instance_name="knorm_regression", instance_params=dict(kappa=4, R=1.0),
                           sweep_d=(2,)),
    "inv-sensitivity": GRID,
    "erm-oracle": dict(algorithm="erm_oracle"),
    "erm-oracle-d4": dict(algorithm="erm_oracle", sweep_d=(4,)),
}
CSV_INDEX = {col: i for i, col in enumerate(harness.CSV_COLUMNS)}


def _sweep_config(tmp_path, **changes):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP)
    return dataclasses.replace(harness.load_config(path), **changes)


def _rows(records):
    return [
        [harness._format_field(dataclasses.asdict(rec)[col]) for col in harness.CSV_COLUMNS]
        for rec in records
    ]


def _unit(cfg, cells, seeds):
    """A sweep unit of ``cells``, (grid index, cell) pairs, over ``seeds``."""
    return cfg, cfg.config_hash(), [(index, cell, seeds) for index, cell in cells]


def _alone(cfg, index, cell):
    """Each trial of a cell with grid index ``index``, run alone."""
    return [rec for s in range(cfg.seeds)
            for rec in harness._execute_trial(_unit(cfg, [(index, cell)], range(s, s + 1)))]


@pytest.mark.parametrize("case", sorted(CELLS))
def test_batched_sweep_cell_matches_per_trial_execution(tmp_path, case):
    cfg = _sweep_config(tmp_path, **CELLS[case])
    (cell,) = cfg.cells()
    # Grid index 8 at 5 seeds: trial s runs on stream 40 + s.
    batched = _rows(harness._execute_unit(_unit(cfg, [(8, cell)], range(cfg.seeds))))
    assert batched == _rows(_alone(cfg, 8, cell))
    errors = [row[CSV_INDEX["error"]] for row in batched]
    if case == "epoch-too-small":
        assert all(error.startswith("InvalidInputError") for error in errors)
        return
    assert not any(errors)
    # Each trial has its own data and start, so no two excesses agree; the
    # ERM oracle's minimizer depends only on its sample counts, which can
    # repeat across trials.
    excesses = {row[CSV_INDEX["excess_pop"]] for row in batched}
    assert len(excesses) > 1 if cfg.algorithm == "erm_oracle" else len(excesses) == cfg.seeds
    if cfg.algorithm == "epoch_growth":
        assert len({row[CSV_INDEX["epoch_i0"]] for row in batched}) > 1


def test_a_batch_that_raises_runs_trial_by_trial(tmp_path, monkeypatch):
    # Force every certificate on trial 2's last solved trust region to fail:
    # its phase then falls back to erm.solve, whose subgradient method gives
    # up at once and raises ConvergenceError.  That region's anchor depends
    # on the trial's data, so no other trial shares the error.
    cfg = _sweep_config(tmp_path, **CELLS["epoch-kappa4"])
    (cell,) = cfg.cells()
    certified = erm._interval_gap
    regions = []

    def recording(g_left, g_right, lam, lo, hi, t, h):
        regions.append((lo, hi))
        return certified(g_left, g_right, lam, lo, hi, t, h)

    monkeypatch.setattr(erm, "_interval_gap", recording)
    harness._execute_trial(_unit(cfg, [(8, cell)], range(2, 3)))
    target = regions[-1]

    def failing(g_left, g_right, lam, lo, hi, t, h):
        return math.inf if (lo, hi) == target else certified(g_left, g_right, lam, lo, hi, t, h)

    monkeypatch.setattr(erm, "_interval_gap", failing)
    monkeypatch.setattr(localization, "MAX_SOLVER_ITERS", 2)
    batched = _rows(harness._execute_unit(_unit(cfg, [(8, cell)], range(cfg.seeds))))
    assert batched == _rows(_alone(cfg, 8, cell))
    errors = [row[CSV_INDEX["error"]] for row in batched]
    assert errors[2].startswith("ConvergenceError: no accuracy certificate")
    assert not any(errors[:2] + errors[3:])


def test_a_d4_batch_that_raises_runs_trial_by_trial(tmp_path, monkeypatch):
    # The d = 4 version: the kernel's certificate fails on trial 2's last
    # closed form with a nonzero residual, recognized by that residual, and
    # every certificate of erm.solve, which the kernel then calls, fails
    # too.  Its subgradient method gives up at once and raises
    # ConvergenceError.
    cfg = _sweep_config(tmp_path, **CELLS["epoch-d4"])
    (cell,) = cfg.cells()
    bound = erm._gap_bound
    residuals = []

    def recording(residual, lam):
        residuals.append(residual)
        return bound(residual, lam)

    monkeypatch.setattr(erm, "_gap_bound", recording)
    harness._execute_trial(_unit(cfg, [(8, cell)], range(2, 3)))
    target = next(r[0] for r in reversed(residuals) if r[0] > 0)

    def failing(residual, lam):
        # The kernel passes one residual per trial, erm.solve a float.
        if np.ndim(residual) == 0:
            return math.inf
        return np.where(residual == target, math.inf, bound(residual, lam))

    monkeypatch.setattr(erm, "_gap_bound", failing)
    monkeypatch.setattr(localization, "MAX_SOLVER_ITERS", 2)
    batched = _rows(harness._execute_unit(_unit(cfg, [(8, cell)], range(cfg.seeds))))
    assert batched == _rows(_alone(cfg, 8, cell))
    errors = [row[CSV_INDEX["error"]] for row in batched]
    assert errors[2].startswith("ConvergenceError: no accuracy certificate")
    assert not any(errors[:2] + errors[3:])


def test_a_separable_batch_that_raises_runs_trial_by_trial(tmp_path, monkeypatch):
    # The separable-absolute version: the kernel's certificate fails on
    # trial 2's last certified phase, recognized by the regularizer's
    # gradient there, and every certificate of erm.solve, which the kernel
    # then calls, fails too.  Its subgradient method gives up at once and
    # raises ConvergenceError.
    cfg = _sweep_config(tmp_path, **CELLS["localization-abs-d4"])
    (cell,) = cfg.cells()
    gap, certificate = erm._separable_gap, erm._separable_certificate
    grads, in_solve = [], []

    def solve_certificate(*args):
        in_solve.append(1)
        try:
            return certificate(*args)
        finally:
            in_solve.pop()

    def recording(below, above, m, weight, grad, lam):
        if not in_solve:
            grads.append(grad.copy())
        return gap(below, above, m, weight, grad, lam)

    monkeypatch.setattr(erm, "_separable_certificate", solve_certificate)
    monkeypatch.setattr(erm, "_separable_gap", recording)
    harness._execute_trial(_unit(cfg, [(8, cell)], range(2, 3)))
    target = grads[-1][0]

    def failing(below, above, m, weight, grad, lam):
        return np.where((grad == target).all(axis=1), math.inf,
                        gap(below, above, m, weight, grad, lam))

    monkeypatch.setattr(erm, "_separable_certificate", lambda *args: math.inf)
    monkeypatch.setattr(erm, "_separable_gap", failing)
    monkeypatch.setattr(localization, "MAX_SOLVER_ITERS", 2)
    batched = _rows(harness._execute_unit(_unit(cfg, [(8, cell)], range(cfg.seeds))))
    assert batched == _rows(_alone(cfg, 8, cell))
    errors = [row[CSV_INDEX["error"]] for row in batched]
    assert errors[2].startswith("ConvergenceError: no accuracy certificate")
    assert not any(errors[:2] + errors[3:])


# Sweeps whose cells mix two n, two epsilon and delta in {0, 1e-6} (Laplace
# and Gaussian noise), and for the epoch pipeline two kappa_lower: the 1-D
# quadratic's clamped phases, the kappa = 4 power norm's bisections, the
# d = 2 quadratic (its d = 1 cells in a unit of their own), and
# pure_convex's separable absolute loss.  At kappa_lower = 1.2 and epsilon
# in {0.05, 1e6} the late epochs' steps are so small that the
# regularizer dominates some cells' phases and not others' in one slot.
# The grid sampler (on the invsens config's lattice) and the ERM oracle run
# the base grid of two n, two epsilon and two delta.
DOMINANCE = dict(sweep_n=(256, 512), sweep_kappa_lower=(1.2,), sweep_epsilon=(0.05, 1e6))
GROUPED = {
    "localization": dict(algorithm="localization"),
    "epoch": dict(sweep_kappa_lower=(2.0, 3.0)),
    "epoch-kappa4": dict(instance_params=KAPPA4, sweep_kappa_lower=(2.0, 3.0)),
    "epoch-d1-d2": dict(sweep_d=(1, 2), sweep_kappa_lower=(2.0, 3.0)),
    "localization-abs-d2": dict(algorithm="localization", sweep_d=(2,), **ABS),
    "epoch-kappa4-dominance": dict(instance_params=KAPPA4, **DOMINANCE),
    "epoch-d2-dominance": dict(sweep_d=(2,), **DOMINANCE),
    "epoch-abs-d2-dominance": dict(sweep_d=(2,), **DOMINANCE, **ABS),
    "inv-sensitivity": GRID,
    "erm-oracle": dict(algorithm="erm_oracle"),
}


def _grouped_config(tmp_path, case):
    base = dict(seeds=3, sweep_n=(128, 256), sweep_epsilon=(0.5, 2.0), sweep_delta=(0.0, 1e-6))
    return _sweep_config(tmp_path, **{**base, **GROUPED[case]})


@pytest.mark.parametrize("case", sorted(GROUPED))
def test_a_grouped_unit_writes_each_cells_own_rows(tmp_path, case):
    # A unit runs every cell of its d in lockstep; each row, epoch_i0
    # included, must be the row the cell's trials write as a unit of their
    # own, at --jobs 1 and 2.
    cfg = _grouped_config(tmp_path, case)
    cells = list(enumerate(cfg.cells()))
    units = harness._units(cfg, cfg.config_hash(), 1)
    assert len(units) == len({cell["d"] for _, cell in cells})
    assert sum(len(unit[2]) for unit in units) == len(cells)
    alone = [_rows(harness._execute_unit(_unit(cfg, [pair], range(cfg.seeds)))) for pair in cells]
    want = [row for rows in alone for row in rows]
    assert not any(row[CSV_INDEX["error"]] for row in want)
    if cfg.algorithm == "epoch_growth":
        assert len({row[CSV_INDEX["epoch_i0"]] for row in want}) > 1
    for jobs in (1, 2):
        _, csv_path, _ = harness.run_sweep(cfg, tmp_path / f"jobs{jobs}", jobs=jobs)
        with open(csv_path, newline="") as fh:
            assert list(csv.reader(fh))[1:] == want


def test_a_grouped_unit_that_raises_runs_trial_by_trial(tmp_path, monkeypatch):
    # Force every certificate on the last solved trust region of one trial
    # of one cell to fail, as the one-cell test above does: only that
    # trial's row may carry the error.
    cfg = _grouped_config(tmp_path, "epoch-kappa4")
    cells = list(enumerate(cfg.cells()))
    certified = erm._interval_gap
    regions = []

    def recording(g_left, g_right, lam, lo, hi, t, h):
        regions.append((lo, hi))
        return certified(g_left, g_right, lam, lo, hi, t, h)

    monkeypatch.setattr(erm, "_interval_gap", recording)
    harness._execute_trial(_unit(cfg, [cells[5]], range(1, 2)))
    target = regions[-1]

    def failing(g_left, g_right, lam, lo, hi, t, h):
        return math.inf if (lo, hi) == target else certified(g_left, g_right, lam, lo, hi, t, h)

    monkeypatch.setattr(erm, "_interval_gap", failing)
    monkeypatch.setattr(localization, "MAX_SOLVER_ITERS", 2)
    # Only the failing cell runs again trial by trial; the others run again
    # as their own units.
    alone, calls = harness._execute_trial, []
    monkeypatch.setattr(harness, "_execute_trial", lambda unit: calls.append(unit) or alone(unit))
    grouped = _rows(harness._execute_unit(_unit(cfg, cells, range(cfg.seeds))))
    assert [unit[2] for unit in calls] == [[(*cells[5], range(s, s + 1))]
                                           for s in range(cfg.seeds)]
    assert grouped == _rows([rec for index, cell in cells for rec in _alone(cfg, index, cell)])
    errors = [row[CSV_INDEX["error"]] for row in grouped]
    failed = 5 * cfg.seeds + 1
    assert errors[failed].startswith("ConvergenceError: no accuracy certificate")
    assert not any(errors[:failed] + errors[failed + 1 :])


def test_a_grid_sampler_unit_that_raises_runs_trial_by_trial(tmp_path, monkeypatch):
    # The grid sampler's draw raises on one trial's stream alone: only that
    # trial's row may carry the error, and every row is the one its trial
    # writes alone.  The unit catches the error in that trial: no trial runs
    # again, alone or in its cell, and each trial draws once.
    cfg = _grouped_config(tmp_path, "inv-sensitivity")
    cells = list(enumerate(cfg.cells()))
    failed = 5 * cfg.seeds + 1
    target = derive_stream_key(cfg.master_seed, failed)
    sample, drawn = inv_sensitivity.sample, []

    def failing(density, rng, size=None):
        drawn.append(rng.seed)
        if rng.seed == target:
            raise RuntimeError("forced draw failure")
        return sample(density, rng, size)

    monkeypatch.setattr(inv_sensitivity, "sample", failing)
    alone, calls = harness._execute_trial, []
    monkeypatch.setattr(harness, "_execute_trial", lambda unit: calls.append(unit) or alone(unit))
    grouped = _rows(harness._execute_unit(_unit(cfg, cells, range(cfg.seeds))))
    assert calls == []
    assert drawn == [derive_stream_key(cfg.master_seed, index * cfg.seeds + s)
                     for index, _ in cells for s in range(cfg.seeds)]
    assert grouped == _rows([rec for index, cell in cells for rec in _alone(cfg, index, cell)])
    errors = [row[CSV_INDEX["error"]] for row in grouped]
    assert errors[failed] == "RuntimeError: forced draw failure"
    assert not any(errors[:failed] + errors[failed + 1 :])



def _held_samples(monkeypatch, cfg):
    """A chain unit of every cell and seed of ``cfg``: its records, the
    Datasets it built, and the dtypes of its sampler's draws and of its
    groups' samples."""
    built, drawn, held = [], [], []
    post_init, draw_samples, run_chains = Dataset.__post_init__, \
        ProblemInstance.draw_samples, localization._run_chains

    def drawing(self, n, rng):
        samples = draw_samples(self, n, rng)
        drawn.append(samples.dtype)
        return samples

    monkeypatch.setattr(Dataset, "__post_init__", lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(ProblemInstance, "draw_samples", drawing)
    monkeypatch.setattr(localization, "_run_chains", lambda loss, domain, groups: held.extend(
        group[0].dtype for group in groups) or run_chains(loss, domain, groups))
    records = harness._execute(_unit(cfg, list(enumerate(cfg.cells())), range(cfg.seeds)))
    monkeypatch.undo()
    return records, built, drawn, held


@pytest.mark.parametrize("d", (1, 4))
@pytest.mark.parametrize("algorithm", ("localization", "epoch_growth"))
def test_a_signed_coordinate_chain_unit_holds_its_int8_draws(tmp_path, monkeypatch, algorithm, d):
    # A uniform_convex chain unit holds each trial's samples as the sampler
    # draws them, int8, and scores them so: it builds no Dataset (whose
    # samples are float64), and each of its groups holds int8 samples.  Its
    # rows are still those its trials write alone.
    cfg = _sweep_config(tmp_path, algorithm=algorithm, sweep_d=(d,), sweep_n=(256, 512))
    records, built, drawn, held = _held_samples(monkeypatch, cfg)
    assert built == [] and len(drawn) == 2 * cfg.seeds
    assert set(drawn) == set(held) == {np.dtype(np.int8)} and len(held) == 2
    cells = list(enumerate(cfg.cells()))
    assert _rows(records) == _rows([rec for index, cell in cells for rec in _alone(cfg, index, cell)])
    assert not any(rec.error for rec in records)


def test_a_pure_convex_chain_unit_holds_its_float32_draws(tmp_path, monkeypatch):
    # pure_convex at R = 1 draws its 0 and +-1/2 as float32, and a
    # localization unit at d = 4, as the priv_pure sweep runs it, holds
    # them so, with the rows its trials write alone.
    cfg = _sweep_config(tmp_path, algorithm="localization", sweep_d=(4,), sweep_n=(256, 512),
                        **ABS)
    records, built, drawn, held = _held_samples(monkeypatch, cfg)
    assert built == [] and len(drawn) == 2 * cfg.seeds
    assert set(drawn) == set(held) == {np.dtype(np.float32)} and len(held) == 2
    cells = list(enumerate(cfg.cells()))
    assert _rows(records) == _rows([rec for index, cell in cells for rec in _alone(cfg, index, cell)])
    assert not any(rec.error for rec in records)

def test_negative_excess_is_recorded_as_an_error(tmp_path, monkeypatch):
    cfg = _sweep_config(tmp_path)
    (cell,) = cfg.cells()
    monkeypatch.setattr(ProblemInstance, "excess_pop", lambda self, x: -1.0)
    unit = _unit(cfg, [(0, cell)], range(cfg.seeds))
    for rec in harness._execute_unit(unit) + _alone(cfg, 0, cell)[:1]:
        assert rec.error.startswith("negative-excess: emp=")
        assert rec.error.endswith(" pop=-1.000e+00")


def test_sweep_csv_is_independent_of_jobs_and_batch_size(tmp_path, monkeypatch):
    # kappa = 3: d = 1 cells run the 1-D power-norm phase and d = 2 cells
    # solve every phase with erm.solve, interleaved.
    cfg = _sweep_config(tmp_path, sweep_n=(128, 256), sweep_d=(1, 2), seeds=3,
                        instance_params=dict(kappa=3, lam=0.5, L=4.0, R=1.0, bias_delta=0.1))
    assert [(cell["n"], cell["d"]) for cell in cfg.cells()] == [(128, 1), (128, 2), (256, 1),
                                                                 (256, 2)]
    _, serial, _ = harness.run_sweep(cfg, tmp_path / "serial", jobs=1)
    _, parallel, _ = harness.run_sweep(cfg, tmp_path / "parallel", jobs=2)
    assert serial.read_bytes() == parallel.read_bytes()
    # Units of one seed: each d's cells hold more than 256 sample values.
    monkeypatch.setattr(harness, "_BATCH_SAMPLES", 256)
    _, split, _ = harness.run_sweep(cfg, tmp_path / "split", jobs=1)
    assert split.read_bytes() == serial.read_bytes()
