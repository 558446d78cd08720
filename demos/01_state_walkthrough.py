"""Walk through the double C-NOT attack one state at a time.

The eavesdropper rides a fresh |0> probe on a Bell-pair half: one C-NOT
on the way out, one on the way back.  This script prints the exact
register amplitudes after each step so you can see why a reflected qubit
leaves the probe silent while a replaced qubit makes it fire half the
time.
"""

import numpy as np

from sqpc import BellState, DoubleCnotEve
from sqpc.attacks import PublicRecord, Streams
from sqpc.jiang import PairBatch, participant_respond

rng = np.random.default_rng(1)
streams = Streams.seeded(1, range(1))  # the hooks draw from a chunk of one trial


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
eve.on_forward(pairs.positions, pairs.register, 0, streams)
show("after forward C-NOT (A,B,probe)", pairs.register.amps[:, 0])
print("  the probe is now perfectly correlated with both halves")

participant_respond(np.array([False]), pairs.register, 0)  # one CTRL position
eve.on_return(pairs.positions, pairs.register, 0, streams)
show("after return C-NOT + probe read", pairs.register.amps[:, 0])
print(f"  probe read: {probe_reads(eve).indicator_bits[0]}  (always 0 on a reflection)")
print()

print("== SIFT position: the probe flags the replaced qubit ==")
trials = 20_000  # one batch position per trial
message_bits = rng.integers(2, size=trials)
pairs = PairBatch.prepare([BellState.PHI_PLUS.value] * trials)
eve = DoubleCnotEve(target="A")
eve.on_forward(pairs.positions, pairs.register, 0, streams)
participant_respond(np.ones(trials, dtype=bool), pairs.register, 0, message_bits)
eve.on_return(pairs.positions, pairs.register, 0, streams)
report = probe_reads(eve)
fired = report.indicator_events
# a fired probe reads the message bit exactly; an unfired one reads nothing (-1)
assert np.array_equal(report.intercepted_bits, np.where(report.indicator_bits == 1, message_bits, -1))
print(f"  probe fired {fired}/{trials} times ({fired / trials:.3f}, expected 0.500)")
print("  every fired probe read the resent message bit exactly")
