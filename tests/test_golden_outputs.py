"""Byte-for-byte goldens of the CSV drivers.

The sha256 of the CSV and of the ``.meta.json`` sidecar of eight inline
``psd`` configs, capped and uncapped under both schedules, of one small
``uniqueness_mc`` config and of one small symmetric ``rate_region``
config.  A change to the solver, the certificates, the CSV writer or the
JSON writer that moves a single byte of either file fails here, whatever
the tolerance-based tests say.
"""

import copy
import hashlib

import pytest

from specnash.experiments import run_psd, run_rate_region, run_uniqueness_mc

T2 = [[[[0.514, 0.821], [0.573, -0.487]], [[-0.696, 0.034], [0.431, 0.255]]],
      [[[0.905, 0.375], [0.32, -0.366]], [[-0.554, 0.742], [0.024, 0.406]]]]
T3 = [[[[-0.688, -0.218], [-0.646, -0.388], [0.452, -0.74]],
       [[-0.267, 0.082], [-0.334, -0.126], [-0.111, 0.209]],
       [[-0.216, 0.136], [0.028, 0.212], [0.112, 0.829]]],
      [[[-0.332, 0.6], [-0.201, -0.479], [0.606, -0.22]],
       [[-0.194, -0.694], [-1.049, 0.317], [-0.583, 0.389]],
       [[0.924, -0.057], [-0.563, 0.197], [0.381, -0.131]]],
      [[[0.009, 0.668], [0.633, 0.355], [-0.433, -0.027]],
       [[0.301, -0.106], [-0.305, -0.383], [-0.316, -0.336]],
       [[-0.226, 0.573], [-0.4, 0.443], [0.209, 0.07]]]]
CAPS = [[12.375, 14.582, 26.339, 4.35, 22.622, 15.881, 19.316, 7.806],
        [24.851, 13.862, 14.655, 18.711, 10.779, 15.345, 7.505, 22.275],
        [6.615, 11.267, 9.682, 7.422, 18.276, 9.121, 23.53, 11.277]]
SHORT = [8.744, 5.521, 1.704, 5.962, 2.672, 4.022, 2.66, 3.273]  # sums to 0.43 of the budget
# Two bins, each user's direct link strong on its own bin and a flat cross
# link: an orthogonal equilibrium under the moderate-interference premise.
SPLIT = [[[[1.0, 0.0], [0.9, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
         [[[0.5, 0.0], [0.0, 0.0]], [[1.0, 0.0], [-0.9, 0.0]]]]


def raw(taps, d_cross, pmax_bar=None, Gamma=None, N=8):
    Q = len(taps)
    scen = {"taps": taps, "d": [[1.0 if r == q else d_cross for q in range(Q)] for r in range(Q)],
            "gamma": 2.5, "P": [10.0] * Q, "sigma2": [1.0] * Q,
            "Gamma": Gamma or [1.0] * Q, "N": N}
    if pmax_bar is not None:
        scen["pmax_bar"] = pmax_bar
    return scen


def ratio(Q, N, d_ratio):
    return {"Q": Q, "N": N, "gamma": 2.5, "snr_db": 10.0, "d_ratio": d_ratio, "Gamma": 1.0,
            "channel_order": 4}


CONFIGS = {
    "uncapped_ratio_sequential": {"seed": 3, "scenario": ratio(4, 32, 2.0),
                                  "solver": {"schedule": "sequential", "tol": 1e-10}},
    "uncapped_ratio_simultaneous": {"seed": 5, "scenario": ratio(3, 16, 3.0),
                                    "solver": {"schedule": "simultaneous"}},
    "uncapped_raw_orthogonal_rule": {"scenario": raw(SPLIT, 1.0, N=2), "check_rule": True,
                                     "solver": {"schedule": "sequential", "tol": 1e-12}},
    "uncapped_raw_sequential": {"scenario": raw(T2, 3.0),
                                "solver": {"schedule": "sequential", "tol": 1e-12}},
    "uncapped_raw_simultaneous": {"scenario": raw(T3, 2.0, Gamma=[1.0, 1.5, 2.0]),
                                  "solver": {"schedule": "simultaneous", "tol": 1e-10}},
    "capped_raw_sequential": {"scenario": raw(T3, 1.5, [CAPS[0], CAPS[1][:3] + [None] * 5,
                                                        CAPS[2]]),
                              "solver": {"schedule": "sequential", "tol": 1e-10}},
    "capped_raw_simultaneous": {"scenario": raw(T3, 2.5, CAPS),
                                "solver": {"schedule": "simultaneous", "max_iter": 4}},
    "capped_raw_short_user": {"scenario": raw(T3, 2.0, [CAPS[0], SHORT, CAPS[2]]),
                              "solver": {"schedule": "sequential", "tol": 1e-10},
                              "check_rule": True},
}

# sha256 of (CSV, .meta.json), recorded before the one-row Gauss-Seidel
# step and the bulk CSV and JSON writers replaced the per-value code.
GOLDEN = {
    "capped_raw_sequential": (
        "179ed12e7e27448e5f63f9885b060a5956cfb7be2adf19a3fe92ca213bd7cfb7",
        "85ea38243763b3e92f0f6267783d240e5d45c9add1d3566c2ba7c239364401ad"),
    "capped_raw_short_user": (
        "a319b5f31ea226292734e31849340fcf4eea774f84d6ff1bc0606c1701925e4f",
        "646b142e96e5338498f7cf2369e1eaacd86ba7c66748777d044e4aa29c9ef724"),
    "capped_raw_simultaneous": (
        "1fac1f6dcc9b5c498bedee1982320e2898774957fb92f28b4c00026a7c4b3c16",
        "28bd071339e1289ada59b218566b4d98ff4e6f2ed512452059c2fefd37b65549"),
    "uncapped_ratio_sequential": (
        "66a682c681e483028a83ccfb302c66ea3059f8abdfe02d5c150e43109ef6a47a",
        "08b7ffc3dacf910a112b73ae29e8e371b242885b1acacea427350e11582e0a76"),
    "uncapped_ratio_simultaneous": (
        "295319a53468204ff5f50fee0e6ac003ce424e0a8f4afdb511cfd7ed5ed23b80",
        "f963c39a44f6c009dda27d0e731e7f6414e3a54617c688fe595583f116a9400d"),
    "uncapped_raw_orthogonal_rule": (
        "2ebbdbb6be93543a3e81445637d66b085094841329a78e7e5e62c7cd77cc249d",
        "cfeb794ac6716811c76356c8324df3f12e34dae866b4032a0e80828e2ea20187"),
    "uncapped_raw_sequential": (
        "b58edda46b1354a68920c4d0dc3be0e8f20e42a985dbbe679bb92ca1b568cafc",
        "5630522dd4f21fad37b1d29ac9453133d1e4b45e6c648dbed4f2eabdb7497e88"),
    "uncapped_raw_simultaneous": (
        "77d7686ddaa4bb2021964decf0fe242fd27bd8f3bc21ed9e1e77f61b9962cda4",
        "43f1e947db2ea2bc0104a19c41b043c046a7bb4afc87c4657e4d0e64938a63d4"),
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_psd_bytes(name, tmp_path):
    out = str(tmp_path / "psd.csv")
    run_psd(copy.deepcopy(CONFIGS[name]), out)
    assert (sha256(out), sha256(out + ".meta.json")) == GOLDEN[name]


MC = {"seed": 4, "trials": 6, "d_ratio_sweep": [0.5, 1.0, 2.0, 4.0],
      "scenario": {"Q": 3, "N": 16, "gamma": 2.5, "snr_db": -5.0, "Gamma": 1.0,
                   "channel_order": 4}}
REGION = {"seed": 8, "mode": "symmetric", "resolution": 7, "splits": 3,
          "lambda_sweep": [[1.0, 1.0], [1.0, 3.0]],
          "scenario": {"Q": 2, "N": 2, "gamma": 2.5, "snr_db": 8.0, "Gamma": 1.0,
                       "channel_order": 1, "d_ratio": 3.0}}

# sha256 of (CSV, .meta.json), recorded while both drivers wrote through csv.writer.
DRIVER_GOLDEN = {
    "uniqueness_mc": (run_uniqueness_mc, MC, (
        "8b474734172c2adc4824e65ab552c0316d15d38c722be82fe82f4c302c4b8069",
        "8a5fe981a8d6bac497e22627167d002ee54972f4bf816b7b9a859515d281d97b")),
    "rate_region_symmetric": (run_rate_region, REGION, (
        "8be5dfa11e2ccf9967f4edfbc3b4a6c0e5f3d4a2b0ccf7f87d96f2204a1d0593",
        "d3b18b094f8e2860d8650ebb1b732b9104c29fb5cf8c5d1b7cb3bc29b9c2c3ce")),
}


@pytest.mark.parametrize("name", sorted(DRIVER_GOLDEN))
def test_driver_bytes(name, tmp_path):
    run, cfg, golden = DRIVER_GOLDEN[name]
    out = str(tmp_path / "out.csv")
    run(copy.deepcopy(cfg), out)
    assert (sha256(out), sha256(out + ".meta.json")) == golden
