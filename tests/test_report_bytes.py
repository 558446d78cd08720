"""Byte-identity of reports across refactors that keep the rng draw order.

Each digest is the sha256 of a CSV report for a fixed spec and seed:
``run_experiment`` for every valid scenario x attack x mode policy, each
protocol's attacks again with target B, and the blocking and
malicious-agent detection curves under both policies.  The improved
protocol is also pinned at other lengths, with no error threshold, with
partial attacks and at more curve points.  A CSV report carries no
spec, so reports whose metrics are all constant share a digest across
lengths; the JSON reports of a few specs at two lengths are pinned too,
without their two wall-clock fields (``started_at``, ``elapsed_ms``).
A change that moves no rng draw must leave every digest as recorded.  A
change that reorders draws on purpose re-records them with
``experiment_digest``, ``curve_digest``, ``improved_digest`` and
``json_digest`` below and says so in its change notes.
"""

import hashlib
import json

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
    ("jiang", "none", "coin"): "288159b8cf0b06ef5bb6de1c222817d07d71915450f77279de58d7dd2b238bf9",
    ("jiang", "double-cnot", "balanced"): "83e48bce24f56fbd138d2362118f8b54eddd18e3ffc3b165f61f32297b2d8b8c",
    ("jiang", "double-cnot", "coin"): "19118f95de099cd41eed8d72d9b6b5e60f551123d21cb3dd928a4be96abb362f",
    ("jiang", "double-cnot-midflight", "balanced"): "78e1950b0cc00957ac6434344cc8e5b721820fa4598efb08d973c9b01869f882",
    ("jiang", "double-cnot-midflight", "coin"): "5c90a746b79935f6e88819da68fa1aedd6c7a2f43ffea49317e2ce590acd8c9b",
    ("jiang", "malicious-agent", "balanced"): "34b6830c23c40f1586eb48d98d64f796f25a1e9e169a391bc8bfe6b5b82bef4f",
    ("jiang", "malicious-agent", "coin"): "ba4fa0de7e1e37c4446477573f27a07133dbf03f8a5b42b7c276736833e2e68f",
    ("jiang", "intercept-resend-z", "balanced"): "c4175c8e0d5522c4ba5953ac74fa73ba02abaaf6620f1303c919f75ec2cd0367",
    ("jiang", "intercept-resend-z", "coin"): "7c2bc7990ab308b1f0e22ddb6f039ea793e2d411b2bdb2751797e1b39bd22104",
    ("improved", "none", "balanced"): "bc0c5a33b329e2e477cca5f3cb8f1825cd3943b0b00beedc3d690bfb316850c2",
    ("improved", "none", "coin"): "5516d01a590b73d02848c845c28b16c0376c54aba9c1fbb927a513354f7c103a",
    ("improved", "double-cnot", "balanced"): "0bbeb4036f54dfb713f2ebfe89b7b0c9e04c9cf90dc926d6c064a33f18748269",
    ("improved", "double-cnot", "coin"): "92b09c46a9d6bcff2d7af0d518bea7dbf1a8879c5c47a786ec415470fce9a731",
    ("improved", "double-cnot-midflight", "balanced"): "1a52f90823aa65db34f00f0814139526e06864a95343340c203e6ecd8e70d414",
    ("improved", "double-cnot-midflight", "coin"): "89a36acb2c26b093f8ded1a5dddce01cf41b68494be016f705b10e3439ac24e5",
    ("improved", "malicious-agent", "balanced"): "9a1cdbc76b510ea3f3286c2a60ed3d01d0591ccec30d6eada82f2a8d98fbc7f5",
    ("improved", "malicious-agent", "coin"): "c15a3d27dcbf5d0507a61a2b54c34df4121e5a35b3db56ac792f3193be7d16f4",
    ("improved", "blocking", "balanced"): "5832f0285b2d2112cc86388d941a20d561eadfa2f02d0ae214eabb67d6aa3aee",
    ("improved", "blocking", "coin"): "a39daf9775607cc5d59dba7ea665b4da0a4e6f9b4ddf4ab375d2ac588df72038",
    ("improved", "intercept-resend-z", "balanced"): "f50b1a8c96193c9084f80fcce485e28d584f330c146ec1551fdbb30fa9e24225",
    ("improved", "intercept-resend-z", "coin"): "bd6985817b6e69987dfc456e9971828203f082ca310de4afc05d18b85f142744",
}

# Improved protocol with the attack on participant B's channel, whose
# positions sit on the second half of the session's photon register.
TARGET_B_DIGESTS = {
    ("double-cnot", "balanced"): "0bbeb4036f54dfb713f2ebfe89b7b0c9e04c9cf90dc926d6c064a33f18748269",
    ("double-cnot", "coin"): "92b09c46a9d6bcff2d7af0d518bea7dbf1a8879c5c47a786ec415470fce9a731",
    ("double-cnot-midflight", "balanced"): "c45cb7a56e394987024b9e4ffc3ef0ef73aabb780571c744fa7992438b45882f",
    ("double-cnot-midflight", "coin"): "2d6fda76d0706e69bb48d61478245165d4ea5a1d71cd722640b186fde9a00ccd",
    ("malicious-agent", "balanced"): "0f5408454223c2248a7ce0046843300e3cde3e49917078cf9618f5a91695e714",
    ("malicious-agent", "coin"): "2835a1a3ede615dbb627659d711397350f3bf89ea39d49ca65f9a9944eb4b822",
    ("blocking", "balanced"): "8293c9dfdf46231c3e993ed8b401a267260871122aceb7e7c6d2b661d9b24b60",
    ("blocking", "coin"): "51fc73c62ea879b662282d3b4507f95a6a87be424ae26378200e12af19ba80da",
    ("intercept-resend-z", "balanced"): "387d5237e3512654adbf347183407a1bab235b65aef33281f221ed624a86c63c",
    ("intercept-resend-z", "coin"): "41a597cd320bdff31cf1a31731054c88df61891d01dcff5992fbbb3e6876758d",
}

# The base protocol with the attack on participant B's channel, whose
# positions are the second wire of every pair.
JIANG_TARGET_B_DIGESTS = {
    ("double-cnot", "balanced"): "ced389ffb38489907c75dfedd8ec1f2c9981481001118aaa0fb3f068d80a8c1d",
    ("double-cnot", "coin"): "266edf5f19853bdc9ddb149d83c10ce07d59137190cb23809036253875e6192b",
    ("double-cnot-midflight", "balanced"): "6c225643267764934ec406169c94d9521a9096b92a5cd32f181197da5d7dc853",
    ("double-cnot-midflight", "coin"): "9134bd5c08d317357fd4c842455ab06b5531e100ce1291cd8a35a4759404a750",
    ("malicious-agent", "balanced"): "34b6830c23c40f1586eb48d98d64f796f25a1e9e169a391bc8bfe6b5b82bef4f",
    ("malicious-agent", "coin"): "4032271904327c75ef6d35538fe5910568b6fd393b04370368c88c3ce1bb2974",
    ("intercept-resend-z", "balanced"): "c4175c8e0d5522c4ba5953ac74fa73ba02abaaf6620f1303c919f75ec2cd0367",
    ("intercept-resend-z", "coin"): "7c2bc7990ab308b1f0e22ddb6f039ea793e2d411b2bdb2751797e1b39bd22104",
}

CURVE_DIGESTS = {
    ("blocking", "balanced"): "29cfcf3f987a3bdbc41a87243bbd67088b2022c61c3fac2a45e4d9929847503e",
    ("blocking", "coin"): "1a10271e9534dabe5474a29a37b2603f393acaa8b92dba10d057f0e4357bbd86",
    ("malicious-agent", "balanced"): "6dde771448f1ab37ee79ef8edad5d2a1b08f2939486333d48e5a9af8556cd1c3",
    ("malicious-agent", "coin"): "8432f4849e48c79ee6c42065d3f06b127900454323288b5d32dc821b5b0559f7",
}

# Improved protocol at threshold 0: every attack at L = 1 and L = 3, the
# partial malicious-agent and blocking attacks on 2 positions, and the
# blocking curve at k = 0, 1, 5.  Key: (attack, L, attacked count, or a
# tuple of curve points, policy).
IMPROVED_DIGESTS = {
    ("none", 1, None, "balanced"): "bc0c5a33b329e2e477cca5f3cb8f1825cd3943b0b00beedc3d690bfb316850c2",
    ("none", 1, None, "coin"): "5516d01a590b73d02848c845c28b16c0376c54aba9c1fbb927a513354f7c103a",
    ("none", 3, None, "balanced"): "bc0c5a33b329e2e477cca5f3cb8f1825cd3943b0b00beedc3d690bfb316850c2",
    ("none", 3, None, "coin"): "aeac394a2774a010bc87fab3f711fea13cdf2a3cd7d0039637f9b761826a45e5",
    ("double-cnot", 1, None, "balanced"): "0bbeb4036f54dfb713f2ebfe89b7b0c9e04c9cf90dc926d6c064a33f18748269",
    ("double-cnot", 1, None, "coin"): "c6ebc658145dbbedea305f9eddf9b8dab51cf5658d5aac52a314b9ffbb06ef55",
    ("double-cnot", 3, None, "balanced"): "0bbeb4036f54dfb713f2ebfe89b7b0c9e04c9cf90dc926d6c064a33f18748269",
    ("double-cnot", 3, None, "coin"): "6d97ae009eb02326168842f933091a95a3b1075c8cda42be40ec8e8bb3a5b26a",
    ("double-cnot-midflight", 1, None, "balanced"): "9f37bab96d3529d2b9645a82e21b9137fed450f5f8e327115075714a15a6805a",
    ("double-cnot-midflight", 1, None, "coin"): "305d88110e24f8fc8e0e7a9b4f4f3d51a8a58e622649153b42c56186780ca65d",
    ("double-cnot-midflight", 3, None, "balanced"): "ce98100798d511553f09fe903c3cbfdd1b13db06a36268f8a3f6f89ac3c03b3c",
    ("double-cnot-midflight", 3, None, "coin"): "eb51b6965ec7f537beb3da889a69099c6766a18214a45e8a7ca1f5a6c53d319c",
    ("malicious-agent", 1, None, "balanced"): "2025cb5c5c1583d4ee1d49f068a5ffa5a20d4950a1e0b683650ded63d4a7390a",
    ("malicious-agent", 1, None, "coin"): "716bf70f6be939d1826d87ffc3f9d9e7aa6b9babafa6c59709eb6c6feda45f60",
    ("malicious-agent", 3, None, "balanced"): "80a8bab6ac025fb49acd8ce19dbe786c7a776fe8555df5776ec411851b0e2d70",
    ("malicious-agent", 3, None, "coin"): "9f5978f8739000ff6bde01e504ebc423e395d172904f371d4984a2e2238c22e0",
    ("blocking", 1, None, "balanced"): "77357fd556b941faf68282c2e2d50bf9f8d33a98fa29c0da0a0ecc478a1c884c",
    ("blocking", 1, None, "coin"): "14cf6bb5e4ba367742805ab17c4aaf50793838f635bf696cb201cbc8424b03af",
    ("blocking", 3, None, "balanced"): "d6807952c78959cfdd82293a510d100d0f05abf1e102e2401814127ce7dd2838",
    ("blocking", 3, None, "coin"): "4559eb5fc7852d3d82026046c8a0f41865b992cc41e64e5864c30bac33c8a4df",
    ("intercept-resend-z", 1, None, "balanced"): "c8ed9b3d58e2c38a8ebe63afbf7555c2cfbae8d3da86393777e312b849e606e7",
    ("intercept-resend-z", 1, None, "coin"): "357a57056dd7ef826f8a0c0ec4dc8b5978c8f4c4aed9bec551fbaed89b20db76",
    ("intercept-resend-z", 3, None, "balanced"): "7f268adb032398fbc17594e6eb9fde22e0ccee6e9919b83c3295abd97d02eccd",
    ("intercept-resend-z", 3, None, "coin"): "8d622653c0ab3bc1f4febbe39b675f5094316a07bbe8c44e32c9b08127495ee9",
    ("malicious-agent", 3, 2, "balanced"): "1aac99733f0507cfd95e739c38975ab2d93fdc229b5afd4000dbfab4e329487b",
    ("malicious-agent", 3, 2, "coin"): "d53419ee2e49e7d5d53f9e6104f6590f636e135b6239cc64adeceea61c26ff1f",
    ("blocking", 3, 2, "balanced"): "c1640c7341fb4eee8e8913380a0e7d62ab9b199159f9153cfb472340a9206b92",
    ("blocking", 3, 2, "coin"): "7a99fc88098fa8a60513f4ddc05cf1dff4522a973076415f6ec238ed94c12f7f",
    ("blocking", 1, (0, 1, 5), "balanced"): "5d2b5e976ddc79bb1ffdfc2cce8cc35cdceec3e30c7d2f9426f84a84b1ef4df7",
    ("blocking", 1, (0, 1, 5), "coin"): "9bf78dad3d5e88cd5ca5dfa002ffb91f9cf1ee5085a5ed658d268953b6748c3b",
}


# JSON reports at threshold 0, 30 trials, seed 11, at L = 1 and 3.  Key:
# (scenario, attack, policy, L, curve points or None).  Improved none and
# double-cnot under the balanced policy share a CSV digest across these
# lengths (IMPROVED_DIGESTS).
JSON_DIGESTS = {
    ("improved", "none", "balanced", 1, None): "f68172342039a636530665ffa53e43e50a6db405bb9e1b46b94acbbded2218bf",
    ("improved", "none", "balanced", 3, None): "eb6f2d9f7d670fe5673ab82e25606b8a3b7f521dba3767641ebc185120719851",
    ("improved", "double-cnot", "balanced", 1, None): "18e3816126ee313298942e4e45534987d40c342ac767091cbf289bafb6a1414f",
    ("improved", "double-cnot", "balanced", 3, None): "ca73ecd467ab1e8f044602c82f0d9157ff6b737f66567cd2147a7e8e63097b4d",
    ("improved", "blocking", "coin", 1, None): "4f19e4f9453b4553ea7e0012dbe6fd3c7d1bfc44c7c32dcd37b5b791d2b16712",
    ("improved", "blocking", "coin", 3, None): "790f9a0d285aa1206014688cdf7730b7aa1a1a18c27c26dd43b52a6efd65ab33",
    ("jiang", "double-cnot", "balanced", 1, None): "6ba7bdd4dd4ce4504e419d4705ef56488eb7d869d47613afd2ddcdac4efe8ffb",
    ("jiang", "double-cnot", "balanced", 3, None): "cd2572c6fa10aebe295718499aa61b1b26a3e4a7976fb4302432185699575ac7",
    ("jiang", "malicious-agent", "coin", 1, None): "0eab74616ef8f3cadf4c590375c54b4e49162bf22fd758f59d61858178c8f3a4",
    ("jiang", "malicious-agent", "coin", 3, None): "05f8679a25a8388915f123a0f67aeb41951bc5cea63ad2d94fcd463a9ff291d1",
    ("improved", "blocking", "balanced", 1, (0, 1, 2)): "c3fed5994abea0655f7a81b18af5d6c71990a6caa793325b2908443728ba7303",
    ("improved", "blocking", "balanced", 3, (0, 1, 2)): "f5663fb968273131bb33974cc692d7e661eae5cc6098649d8150f353a3ea3c19",
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


def json_digest(scenario: str, attack: str, policy: str, L: int, curve) -> str:
    """The sha256 of a JSON report without its two wall-clock fields."""
    spec = ExperimentSpec(scenario=scenario, attack=attack, L=L, mode_policy=policy, trials=30, seed=11)
    stats = run_experiment(spec) if curve is None else estimate_detection_curve(spec, list(curve))
    report = json.loads(emit_report(stats, "json"))
    del report["started_at"], report["elapsed_ms"]
    return _sha(json.dumps(report, indent=2) + "\n")


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


def _json_case_id(case) -> str:
    scenario, attack, policy, L, curve = case
    return f"{scenario}-{attack}-{policy}-L{L}" + ("-curve" if curve else "")


@pytest.mark.parametrize("case", list(JSON_DIGESTS), ids=_json_case_id)
def test_json_report_bytes(case):
    assert json_digest(*case) == JSON_DIGESTS[case]


def test_json_digests_tell_lengths_apart():
    # The CSV reports of improved none/balanced at L = 1 and 3 are the same
    # bytes; their JSON reports, which carry the spec, are not.
    csv_1, csv_3 = (IMPROVED_DIGESTS["none", L, None, "balanced"] for L in (1, 3))
    json_1, json_3 = (json_digest("improved", "none", "balanced", L, None) for L in (1, 3))
    assert csv_1 == csv_3
    assert json_1 != json_3
