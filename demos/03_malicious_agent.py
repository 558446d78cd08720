"""The inside job: one participant measures the other's returned qubits.

TP only Bell-verifies positions where BOTH participants reflected, so a
participant who intercepts at its own SIFT positions can never be caught
there.  Both SIFT sets are random L-subsets of the 2L positions, so the
overlap, and with it the stolen fraction of the victim's secret, averages
one half.
"""

import numpy as np

from sqpc import ExperimentSpec, MaliciousAgent, SessionConfig, run_experiment
from sqpc.jiang import run_session

spec = ExperimentSpec(scenario="jiang", attack="malicious-agent", L=32, trials=2_000, seed=7)
stats = run_experiment(spec)
print(f"victim=A attacker=B L={spec.L} trials={spec.trials}")
for name in ("leak_fraction", "leak_accuracy", "detected_rate"):
    print(f"  {name:15s} {stats.metrics[name].mean:.4f}")
print()

# One concrete session, spelled out.
rng = np.random.default_rng(99)
key = rng.integers(2, size=8)
secret_a = rng.integers(2, size=8)
secret_b = rng.integers(2, size=8)
agent = MaliciousAgent(victim="A", key=key)
transcript, outcome, reports = run_session(SessionConfig(L=8), secret_a, secret_b, key, [agent], seed=99)
report = reports[0]

print("one L=8 session in detail:")
print(f"  victim secret        {''.join(map(str, secret_a))}")
stolen = "".join("?" if bit < 0 else str(bit) for bit in report.secret_bits.tolist())
print(f"  attacker recovered   {stolen}   ('?' = not intercepted)")
print(f"  outcome: {outcome.kind}, attack detected: {report.detected}")
