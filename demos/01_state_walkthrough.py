"""Walk through the double C-NOT attack one state at a time.

The eavesdropper rides a fresh |0> probe on a Bell-pair half: one C-NOT
on the way out, one on the way back.  This script prints the exact
register amplitudes after each step so you can see why a reflected qubit
leaves the probe silent while a replaced qubit makes it fire half the
time.
"""

import numpy as np

from sqpc import BellState, DoubleCnotEve
from sqpc.attacks import PublicRecord
from sqpc.jiang import PairBatch, participant_respond

rng = np.random.default_rng(1)


def show(label, amps):
    n = amps.shape[0].bit_length() - 1
    terms = [
        f"{amp.real:+.4f}|{index:0{n}b}>"
        for index, amp in enumerate(amps)
        if abs(amp) > 1e-12
    ]
    print(f"  {label}: " + " ".join(terms))


def probe_reads(eve):
    """The probe's per-position reads, as the attack report publishes them."""
    return eve.finalize(PublicRecord(L=1))


print("== CTRL position: the attack stays invisible ==")
pairs = PairBatch.prepare([BellState.PHI_PLUS.value])  # a batch of one position
show("pair as prepared (A,B)", pairs.register.amps[:, 0])

eve = DoubleCnotEve(target="A")
pairs.wires["A"] = eve.on_forward(pairs.positions, pairs.register, pairs.wires["A"], rng)
show("after forward C-NOT (A,B,probe)", pairs.register.amps[:, 0])
print("  the probe is now perfectly correlated with both halves")

pairs.returns["A"] = participant_respond(np.array([False]), pairs.register, pairs.wires["A"])  # one CTRL position
pairs.returns["A"] = eve.on_return(pairs.positions, pairs.register, pairs.returns["A"], rng)
show("after return C-NOT + probe read", pairs.register.amps[:, 0])
print(f"  probe read: {probe_reads(eve).indicator_bits[0]}  (always 0 on a reflection)")
print()

print("== SIFT position: the probe flags the replaced qubit ==")
trials = 20_000  # one batch position per trial
message_bits = rng.integers(2, size=trials)
pairs = PairBatch.prepare([BellState.PHI_PLUS.value] * trials)
eve = DoubleCnotEve(target="A")
pairs.wires["A"] = eve.on_forward(pairs.positions, pairs.register, pairs.wires["A"], rng)
pairs.returns["A"] = participant_respond(np.ones(trials, dtype=bool), pairs.register, pairs.wires["A"], message_bits)
pairs.returns["A"] = eve.on_return(pairs.positions, pairs.register, pairs.returns["A"], rng)
report = probe_reads(eve)
fired = [pos for pos, bit in report.indicator_bits.items() if bit]
# a fired probe reads the message bit exactly
assert report.intercepted_bits == {pos: int(message_bits[pos]) for pos in fired}
print(f"  probe fired {len(fired)}/{trials} times ({len(fired) / trials:.3f}, expected 0.500)")
print("  every fired probe read the resent message bit exactly")
