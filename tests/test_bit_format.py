"""One bit format from draw to score: every bit string is an int array.

The session drivers check secrets and keys at their entry, before any
draw.  Every secret, key, R, mask, message and disclosure a session
makes, from the ground truth and the public record to the transcript and
an insider tap's keys, is an int ndarray.
"""

import inspect

import numpy as np
import pytest

from sqpc import improved, jiang
from sqpc.attacks import ChannelTap, Streams
from sqpc.harness import ATTACK_TABLE, SCENARIOS, ExperimentSpec
from sqpc.jiang import INDEPENDENT_COIN, SessionConfig

DRIVERS = {"jiang": jiang.run_session, "improved": improved.run_improved_session}

# At L=3 under the coin policy, seed 1 runs an honest session of either
# protocol to its comparison, so every bit field is filled.
L, SEED = 3, 1


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("bad", [2, -1])
@pytest.mark.parametrize("field", ["secret_a", "secret_b", "key"])
def test_drivers_reject_non_bits_before_any_draw(monkeypatch, scenario, bad, field):
    inputs = {"secret_a": [1, 0, 1], "secret_b": [0, 0, 1], "key": [0, 1, 1]}
    inputs[field][1] = bad
    draws = []  # every draw of a chunk's streams takes a site's values
    monkeypatch.setattr(Streams, "_site", lambda self, *args, **kwargs: draws.append(args))
    with pytest.raises(ValueError, match="0 or 1"):
        DRIVERS[scenario](SessionConfig(L=3), **inputs, seed=1)
    assert draws == []


class _Witness(ChannelTap):
    """A tap that keeps the public record it is shown and does nothing else."""

    def finalize(self, published, trial=0):
        self.published = published


def _session_bits(monkeypatch, scenario: str, attack: str) -> dict[str, object]:
    """Every bit field one L=3 coin-policy session of ``scenario`` x
    ``attack`` filled, by name."""
    module = {"jiang": jiang, "improved": improved}[scenario]
    real_drive = module.drive_session
    truths = []

    def recording_drive(*args, **kwargs):
        truths.extend(inspect.signature(real_drive).bind(*args, **kwargs).arguments["truths"])
        return real_drive(*args, **kwargs)

    monkeypatch.setattr(module, "drive_session", recording_drive)
    rng = np.random.default_rng(SEED)
    secret_a, secret_b, key = (rng.integers(2, size=L) for _ in range(3))
    spec = ExperimentSpec(scenario=scenario, attack=attack, L=L, mode_policy=INDEPENDENT_COIN)
    taps = ATTACK_TABLE[attack].taps(spec, (key,))  # one key per trial, as a chunk hands them
    witness = _Witness()
    config = SessionConfig(L=L, mode_policy=INDEPENDENT_COIN)
    transcript, _, _ = DRIVERS[scenario](config, secret_a, secret_b, key, [*taps, witness], seed=SEED)

    (truth,) = truths
    published = witness.published
    fields = {"truth.key": truth.key}
    for p in ("A", "B"):
        fields[f"truth.secrets.{p}"] = truth.secrets[p]
        fields[f"truth.messages.{p}"] = truth.messages[p]
        for source, record in (("published", published), ("transcript", transcript)):
            for name in ("r", "tp_m", "tp_masks", "published_m", "messages", "disclosures"):
                values = getattr(record, name, None)
                if values is None:
                    continue
                if name == "disclosures":
                    fields[f"{source}.{name}.{p}.positions"] = values[p].positions
                    fields[f"{source}.{name}.{p}.values"] = values[p].values
                else:
                    fields[f"{source}.{name}.{p}"] = values[p]
    if transcript.m_t is not None:
        fields["transcript.m_t"] = transcript.m_t
    for tap in taps:
        if tap.key is not None:
            fields["tap.key"] = tap.key
    return fields


def _pairs():
    return [
        (scenario, attack)
        for scenario in SCENARIOS
        for attack, entry in ATTACK_TABLE.items()
        if scenario in entry.scenarios
    ]


# What an honest session at SEED fills, besides the ground truth: every
# bit field, so the check below is not vacuous.
HONEST_FIELDS = {
    "jiang": ["published.r", "transcript.r", "transcript.tp_m"],
    "improved": [
        "published.messages",
        "transcript.tp_masks",
        "transcript.published_m",
        "published.disclosures",
        "transcript.disclosures",
    ],
}


def _honest_field_names(scenario: str) -> set[str]:
    names = {"truth.key", "transcript.m_t"}
    for p in ("A", "B"):
        names |= {f"truth.secrets.{p}", f"truth.messages.{p}"}
        for name in HONEST_FIELDS[scenario]:
            if name.endswith("disclosures"):
                names |= {f"{name}.{p}.positions", f"{name}.{p}.values"}
            else:
                names.add(f"{name}.{p}")
    return names


@pytest.mark.parametrize("scenario, attack", _pairs())
def test_every_bit_field_is_an_int_array(monkeypatch, scenario, attack):
    fields = _session_bits(monkeypatch, scenario, attack)
    for name, value in fields.items():
        assert isinstance(value, np.ndarray) and value.dtype.kind == "i", (name, value)
        assert value.ndim == (2 if name == "tap.key" else 1), (name, value.shape)
    if attack == "none":
        assert set(fields) == _honest_field_names(scenario)
