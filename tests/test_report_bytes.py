"""Byte-identity of CSV reports across refactors that keep the rng draw order.

Each digest is the sha256 of a CSV report for a fixed spec and seed:
``run_experiment`` for every valid scenario x attack x mode policy, each
protocol's attacks again with target B, and the blocking and
malicious-agent detection curves under both policies.
A change that moves no rng draw must leave every digest as recorded.  A
change that reorders draws on purpose re-records them with
``experiment_digest`` and ``curve_digest`` below and says so in its
change notes.
"""

import hashlib

import pytest

from sqpc.harness import (
    ATTACK_TABLE,
    SCENARIOS,
    ExperimentSpec,
    emit_report,
    estimate_detection_curve,
    run_experiment,
)
from sqpc.jiang import MODE_POLICIES

BASE = dict(L=4, trials=30, seed=11, error_threshold=0.1)

CURVES = {
    "blocking": [0, 1, 2, 3],
    "malicious-agent": [0, 2, 4, 8],
}

EXPERIMENT_DIGESTS = {
    ("jiang", "none", "balanced"): "1cf268563cc34aa5497976a26d37135ac74ddd8b1a6ba1d40e8313f2a3de26cd",
    ("jiang", "none", "coin"): "0f79f7c82d1f6c0620569d348ad468e31f8fa1039b2bb61966b47a9f1beee7e8",
    ("jiang", "double-cnot", "balanced"): "e876f1f692b0895f0bb790dcdddb90c231ea971e1d7a9e2224d21a0fbd27cc36",
    ("jiang", "double-cnot", "coin"): "e6bc19b547822eeb34cc194fe3ed7ebb7a1742c7d402a5bb998303f937472af6",
    ("jiang", "double-cnot-midflight", "balanced"): "541fdf32211ecd04b20bd6d831aed54bf56b1e70103ad20f0ebbb45f2713fae7",
    ("jiang", "double-cnot-midflight", "coin"): "c9563815154d983593515484da6cbf8e14f2bd37b1195f4e80e79cc16069cf4a",
    ("jiang", "malicious-agent", "balanced"): "45838905bc491b23c3cc604ca7edeb5950246e7eb6f74afb23cb695bdc89a50a",
    ("jiang", "malicious-agent", "coin"): "2bb95e0859c9c9b9a352e900819df265cb398d3670424314a021c864078c2396",
    ("jiang", "intercept-resend-z", "balanced"): "554964032d5dfd1c5fdbf50f41369cf13ed9c4d995efc377d34b542b26abfb00",
    ("jiang", "intercept-resend-z", "coin"): "dc8e37e533b7ee84da7f372231f4e28841867c3f47a75279e02de8ccf4564b79",
    ("improved", "none", "balanced"): "bc0c5a33b329e2e477cca5f3cb8f1825cd3943b0b00beedc3d690bfb316850c2",
    ("improved", "none", "coin"): "aeac394a2774a010bc87fab3f711fea13cdf2a3cd7d0039637f9b761826a45e5",
    ("improved", "double-cnot", "balanced"): "0bbeb4036f54dfb713f2ebfe89b7b0c9e04c9cf90dc926d6c064a33f18748269",
    ("improved", "double-cnot", "coin"): "6d97ae009eb02326168842f933091a95a3b1075c8cda42be40ec8e8bb3a5b26a",
    ("improved", "double-cnot-midflight", "balanced"): "bf9fc7b75021ccbed6969760cf09f434ddb2b6efdd84095fba626737138d27e5",
    ("improved", "double-cnot-midflight", "coin"): "5133722e141bdda05fb0c168b450ed01fbbb7e5730b701bb177c1150a781aa8d",
    ("improved", "malicious-agent", "balanced"): "5d9c2445ccd763917e21a95aac884dba888c4048c9a8b0a3d7e3fa13b90fae9d",
    ("improved", "malicious-agent", "coin"): "d4021a3026ad02b0efe87ff48ba60f972eb80baf2a7d520cb0fd6fc443757efb",
    ("improved", "blocking", "balanced"): "751b96e3765e8724262c8b89c3b5e16190bdce3b9df2a2d1fcef30785ab8f856",
    ("improved", "blocking", "coin"): "8bb61cc0f5358a66111c8c012b12b982345c83be6a9447e6c972f54ad1bb9bce",
    ("improved", "intercept-resend-z", "balanced"): "18bd79ae4a6fb3fe048c144c439a151fe5ab702014806a2183418808936261e3",
    ("improved", "intercept-resend-z", "coin"): "b8f4fd8d78f2253e986ffa12887993e70b461bab2c0b0becce9f8cfe1353e276",
}

# Improved protocol with the attack on participant B's channel, whose
# positions sit on the second half of the session's photon register.
TARGET_B_DIGESTS = {
    ("double-cnot", "balanced"): "0bbeb4036f54dfb713f2ebfe89b7b0c9e04c9cf90dc926d6c064a33f18748269",
    ("double-cnot", "coin"): "6d97ae009eb02326168842f933091a95a3b1075c8cda42be40ec8e8bb3a5b26a",
    ("double-cnot-midflight", "balanced"): "609e79deb65fe12ada05a407f4f11205f61c9245f34df3431f0a9933ffac037f",
    ("double-cnot-midflight", "coin"): "638bdb5a130f05096dba11470c75e362edc31be69ef90eaa7f359d8f61066b98",
    ("malicious-agent", "balanced"): "4154621f49e93b69550f891513ce03b029d44d8969d8ac889a04d3bf3a828e5d",
    ("malicious-agent", "coin"): "07d3213fc3beb021f2a5c5815a292bf86f7d2d93f509aa4d3b023f5e84c3ce4c",
    ("blocking", "balanced"): "2632aafb45426b855115ec512ff5001ae994e967d209b2bd5b7956e8e79a7e4c",
    ("blocking", "coin"): "409bf839dfcc8083a62b3cf3c6f2cd94f56d19a51669e0216689a6ab63045237",
    ("intercept-resend-z", "balanced"): "c4014cea6e9abb6f2977a3629575e071ab5f35e3e744c7da5f702a231549afc6",
    ("intercept-resend-z", "coin"): "9c165313f82b9d095f365c64a33742fc5b5fc592e91adfcb521dc17ea8b10ab6",
}

# The base protocol with the attack on participant B's channel, whose
# positions are the second wire of every pair.
JIANG_TARGET_B_DIGESTS = {
    ("double-cnot", "balanced"): "535995e6374a92a8000ecf5f8f6a567fae6e549be2f3df3b5b8f427a0ec5729b",
    ("double-cnot", "coin"): "6ea393a58eac9e6e2711a064b00adc6dbd8a594147db052f590c5cc89a28f1f4",
    ("double-cnot-midflight", "balanced"): "d96c5c15952b626f600e1b92efb1b39378454383544c5cff9709153a5df0e038",
    ("double-cnot-midflight", "coin"): "59de18fda41ec32eb28cac1748f95c3ca3664b8718364f800e18ff69f31e7ba6",
    ("malicious-agent", "balanced"): "45838905bc491b23c3cc604ca7edeb5950246e7eb6f74afb23cb695bdc89a50a",
    ("malicious-agent", "coin"): "045e082cd213c814ae54aae3dcbc56e00e336e69531e6486a43a30aec13db405",
    ("intercept-resend-z", "balanced"): "554964032d5dfd1c5fdbf50f41369cf13ed9c4d995efc377d34b542b26abfb00",
    ("intercept-resend-z", "coin"): "dc8e37e533b7ee84da7f372231f4e28841867c3f47a75279e02de8ccf4564b79",
}

CURVE_DIGESTS = {
    ("blocking", "balanced"): "3e4b4b1ff2f85d97ad2eb800c2b9caf9b94bb19f265862e6878d66d773022509",
    ("blocking", "coin"): "f493829b454f4b6212710880ee2536d0b64c4b00e3c831de39af919860833487",
    ("malicious-agent", "balanced"): "386c1732e225d267a5209f883f8cba8f338877d8e2cc6d7a1084d6b162c4516a",
    ("malicious-agent", "coin"): "a81b8585c3d33bdd95c87b2aeaa94af00ebe16c1df6752f9f373bdb0c2829900",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def experiment_cases():
    return [
        (scenario, attack, policy)
        for scenario in SCENARIOS
        for attack, entry in ATTACK_TABLE.items()
        if scenario in entry.scenarios
        for policy in MODE_POLICIES
    ]


def curve_cases():
    return [(attack, policy) for attack in CURVES for policy in MODE_POLICIES]


def experiment_digest(scenario: str, attack: str, policy: str, target: str = "A") -> str:
    spec = ExperimentSpec(scenario=scenario, attack=attack, mode_policy=policy, target=target, **BASE)
    return _sha(emit_report(run_experiment(spec), "csv"))


def curve_digest(attack: str, policy: str) -> str:
    spec = ExperimentSpec(scenario="improved", attack=attack, mode_policy=policy, **BASE)
    return _sha(emit_report(estimate_detection_curve(spec, CURVES[attack]), "csv"))


@pytest.mark.parametrize("scenario,attack,policy", experiment_cases())
def test_experiment_csv_bytes(scenario, attack, policy):
    assert experiment_digest(scenario, attack, policy) == EXPERIMENT_DIGESTS[scenario, attack, policy]


@pytest.mark.parametrize("attack,policy", sorted(TARGET_B_DIGESTS))
def test_experiment_csv_bytes_target_b(attack, policy):
    assert experiment_digest("improved", attack, policy, target="B") == TARGET_B_DIGESTS[attack, policy]


@pytest.mark.parametrize("attack,policy", sorted(JIANG_TARGET_B_DIGESTS))
def test_jiang_csv_bytes_target_b(attack, policy):
    assert experiment_digest("jiang", attack, policy, target="B") == JIANG_TARGET_B_DIGESTS[attack, policy]


@pytest.mark.parametrize("attack,policy", curve_cases())
def test_curve_csv_bytes(attack, policy):
    assert curve_digest(attack, policy) == CURVE_DIGESTS[attack, policy]
