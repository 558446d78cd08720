"""Byte-identity of CSV reports across refactors that keep the rng draw order.

Each digest is the sha256 of a CSV report for a fixed spec and seed:
``run_experiment`` for every valid scenario x attack x mode policy, each
protocol's attacks again with target B, and the blocking and
malicious-agent detection curves under both policies.  The improved
protocol is also pinned at other lengths, with no error threshold, with
partial attacks and at more curve points.
A change that moves no rng draw must leave every digest as recorded.  A
change that reorders draws on purpose re-records them with
``experiment_digest``, ``curve_digest`` and ``improved_digest`` below and
says so in its change notes.
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

# Improved protocol at threshold 0: every attack at L = 1 and L = 3, the
# partial malicious-agent and blocking attacks on 2 positions, and the
# blocking curve at k = 0, 1, 5.  Key: (attack, L, attacked count, or a
# tuple of curve points, policy).
IMPROVED_DIGESTS = {
    ("none", 1, None, "balanced"): "bc0c5a33b329e2e477cca5f3cb8f1825cd3943b0b00beedc3d690bfb316850c2",
    ("none", 1, None, "coin"): "f0bb68688a7ac32d9bbd741907ccb1783e748f6ae49f1283d17027e2d7c0aa71",
    ("none", 3, None, "balanced"): "bc0c5a33b329e2e477cca5f3cb8f1825cd3943b0b00beedc3d690bfb316850c2",
    ("none", 3, None, "coin"): "5516d01a590b73d02848c845c28b16c0376c54aba9c1fbb927a513354f7c103a",
    ("double-cnot", 1, None, "balanced"): "0bbeb4036f54dfb713f2ebfe89b7b0c9e04c9cf90dc926d6c064a33f18748269",
    ("double-cnot", 1, None, "coin"): "c6171820b37acf2b6b18b87d74c78566f02bbf478ab3de9ef89581f39b8a11f3",
    ("double-cnot", 3, None, "balanced"): "0bbeb4036f54dfb713f2ebfe89b7b0c9e04c9cf90dc926d6c064a33f18748269",
    ("double-cnot", 3, None, "coin"): "92b09c46a9d6bcff2d7af0d518bea7dbf1a8879c5c47a786ec415470fce9a731",
    ("double-cnot-midflight", 1, None, "balanced"): "a605d6053cb9e32034e04e14740f06deb4b01cd907202ffeb3d5eeaed2877a30",
    ("double-cnot-midflight", 1, None, "coin"): "f6599be78a8360f3da3a55683f6f350379ba28dc9555198b3f07a03988af178c",
    ("double-cnot-midflight", 3, None, "balanced"): "8e25f0ae62e660ca27652ff7bbe0c5f9f6efffba188372a5cae0bf28e8e47605",
    ("double-cnot-midflight", 3, None, "coin"): "95dabf5ba4f31573e66aca46005a7b94172f99551fa942adb11c6da738e5c8eb",
    ("malicious-agent", 1, None, "balanced"): "ffb560e7a88184675307b614949ddf2812a06231248b11510c0f0eb7001c6b4b",
    ("malicious-agent", 1, None, "coin"): "05db888ffc0855a6b925f8839938945059f44e2eaae5cc0967b2c858fda2f730",
    ("malicious-agent", 3, None, "balanced"): "f906c702b42498af2cb27001e7e2f76623a98432d153400bff5ebf25b753c411",
    ("malicious-agent", 3, None, "coin"): "4180c4d4fbc326e0bb7a8161d1f5eb09e984ae7f7bca1a06a872a0960775b921",
    ("blocking", 1, None, "balanced"): "0d24cd182135f6f15789956fbb35e52f2e8abb777e7518a8c321053b8028d1f5",
    ("blocking", 1, None, "coin"): "98916819b3a06d1b0920d4e465e61d0552b97283ec7bb1032eaf8f01087b21cc",
    ("blocking", 3, None, "balanced"): "42e367295cb4ff917ffd3f62ed3e10b224036dab04dc8c06acc1c88e7c94f02b",
    ("blocking", 3, None, "coin"): "cc4a6bc240b4f50b58892e18c5211e6319ddb0c1908f116ee4ea52e6bf5295d8",
    ("intercept-resend-z", 1, None, "balanced"): "4a55703b21a3461479e10141050461213a9bf626d231c37f3e41dabdf77ae10a",
    ("intercept-resend-z", 1, None, "coin"): "e4eccfd5c575955d1f1150c91e37b58ceff4a35381413bb7c359fe25cda75d35",
    ("intercept-resend-z", 3, None, "balanced"): "68231899c055a98c6dfdc4da3dde71518563ad5559cc3525006532783537da82",
    ("intercept-resend-z", 3, None, "coin"): "81fad107f9027e100dd59983c549501775f3cdc695583315c8dd3bb925ad4ee6",
    ("malicious-agent", 3, 2, "balanced"): "f049837c15293b8d77a944011f1d44984269dbc436cfca419c91d7cd28bbd437",
    ("malicious-agent", 3, 2, "coin"): "58649650880acd1cc1183b0aef9f2d8f42fd7db2bc1c667925ad8ad696f0496f",
    ("blocking", 3, 2, "balanced"): "2087a4d0451a85cdb5bcfbf1976e5f3ae34e245ceed62dcb16cc5c874e527d4c",
    ("blocking", 3, 2, "coin"): "7fbee2c18246ef72cc46eff40839d86110d8832607bfd1a11d95d9ad7fc27785",
    ("blocking", 1, (0, 1, 5), "balanced"): "0dc37fb0208235b79ea6dd7445ac2d032610eb318da635fd37d35ec18e51cce5",
    ("blocking", 1, (0, 1, 5), "coin"): "83f7255e4cd8ca3d45f267c8a2396c92a453ea30e43d8ce269791351106afdd0",
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


def improved_digest(attack: str, L: int, count, policy: str) -> str:
    spec = ExperimentSpec(scenario="improved", attack=attack, L=L, mode_policy=policy, trials=30, seed=11)
    if isinstance(count, tuple):
        return _sha(emit_report(estimate_detection_curve(spec, list(count)), "csv"))
    spec.attacked_count = count
    return _sha(emit_report(run_experiment(spec), "csv"))


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


@pytest.mark.parametrize("attack,L,count,policy", list(IMPROVED_DIGESTS))
def test_improved_csv_bytes(attack, L, count, policy):
    assert improved_digest(attack, L, count, policy) == IMPROVED_DIGESTS[attack, L, count, policy]
