"""The one abort rule, ``SessionConfig.exceeds``, at its boundary, end to end.

Each integrity check aborts when its mismatch rate is above the error
threshold: a session rerun at a threshold equal to the rate passes that
check, and one at the next float below the rate aborts with the check's
reason.  At L=4 and seed 1 the three checks count 1 of 2, 6 of 16 and
2 of 8 mismatches.
"""

import numpy as np
import pytest

from sqpc.attacks import BlockingAttacker, InterceptResendZ
from sqpc.improved import run_improved_session
from sqpc.jiang import (
    DISCLOSURE_MISMATCH,
    EAVESDROPPER_DETECTED,
    SessionConfig,
    run_session,
)

L = 4
SEED = 1


def bell_check(transcript):
    return transcript.bell_mismatch_count, len(transcript.ctrl_ctrl_positions)


def x_check(transcript):
    return transcript.x_mismatch_count, transcript.ctrl_position_count


def disclosure_check(transcript):
    if transcript.disclosures is None:
        return None
    checked = sum(len(d.positions) for d in transcript.disclosures.values())
    return transcript.disclosure_mismatch_count, checked


CHECKS = {
    "jiang-bell": (run_session, InterceptResendZ, bell_check, EAVESDROPPER_DETECTED),
    "improved-x": (run_improved_session, InterceptResendZ, x_check, EAVESDROPPER_DETECTED),
    "improved-disclosure": (run_improved_session, BlockingAttacker, disclosure_check, DISCLOSURE_MISMATCH),
}


def session(run, tap, threshold):
    rng = np.random.default_rng(SEED)
    secret_a, secret_b, key = (rng.integers(2, size=L) for _ in range(3))
    config = SessionConfig(L=L, error_threshold=threshold)
    transcript, outcome, _ = run(config, secret_a, secret_b, key, [tap()], seed=SEED)
    return transcript, outcome


@pytest.mark.parametrize("name", CHECKS)
def test_threshold_at_the_rate_passes_and_below_it_aborts(name):
    run, tap, counts_of, reason = CHECKS[name]
    transcript, outcome = session(run, tap, 1.0)
    mismatches, checked = counts_of(transcript)
    assert 0 < mismatches <= checked  # a rate with a float below it
    assert outcome.abort_reason != reason
    rate = mismatches / checked

    transcript, outcome = session(run, tap, rate)
    assert counts_of(transcript) == (mismatches, checked)
    assert outcome.abort_reason != reason

    transcript, outcome = session(run, tap, float(np.nextafter(rate, 0)))
    assert counts_of(transcript) == (mismatches, checked)
    assert outcome.abort_reason == reason


def test_a_check_of_no_positions_passes():
    config = SessionConfig(L=1)
    assert config.exceeds(0, 0) is False
    assert config.exceeds(0, 1) is False
    assert config.exceeds(1, 1) is True
