"""Channel-tap adversaries for both comparison protocols.

A tap sits on one participant's quantum channel and gets one hook call
for the forward transits (TP to participant) of all its positions and one
for the return transits (participant to TP).  A hook receives the
positions as rows of the session's batched register, with the wire each
one travels on.  It may grow the register with ancillas (one per row),
measure through the register API, and substitute the wires that travel
onward.  A tap keeps what it measured as arrays over the positions, -1
where it read nothing, and decodes them in ``finalize`` by indexing with
the carrier positions it derives from the published SIFT masks.
Taps never read amplitudes; everything an attacker knows comes from its
own measurement outcomes plus the classical values published after the
session (mode declarations, R values, disclosures, messages).

Attackers here:

* ``DoubleCnotEve``, the outside eavesdropper who entangles a fresh |0>
  ancilla into every forward qubit with a C-NOT and applies a second
  C-NOT on the way back.  A fired ancilla flags a replaced (SIFT) qubit,
  whose Z value she can then read without disturbing anything.  The
  mid-flight variant reads the ancilla between the two C-NOTs instead,
  trading silence for information.
* ``MaliciousAgent``, a legitimate participant who measures the other
  participant's returned qubits and resends identical Z eigenstates,
  either at its own SIFT positions (where TP never Bell-checks) or at a
  random position subset.
* ``BlockingAttacker``, who X-measures returned qubits to corrupt the
  integrity of TP's classical reads without learning anything.
* ``InterceptResendZ``, the naive baseline that Z-measures every forward
  qubit in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import kernel
from .jiang import Bits, PairBatch, participant_respond
from .kernel import BellState, Register, prepare_bell, prepare_z, wire_groups


@dataclass
class PublicRecord:
    """Classical values visible to everyone once the session ends.

    Fields stay ``None`` when the protocol never reached the step that
    would have published them (an abort suppresses later publications).
    """

    protocol: str  # "jiang" | "improved"
    L: int
    modes: dict[str, np.ndarray] | None = None  # participant -> SIFT mask
    r: dict[str, Bits] | None = None
    disclosures: dict[str, object] | None = None  # participant -> CheckDisclosure
    messages: dict[str, Bits] | None = None
    announced: str = ""


@dataclass
class GroundTruth:
    """Driver-side truth used to score attack reports; never shown to taps."""

    L: int
    secrets: dict[str, Bits]
    key: Bits
    messages: dict[str, Bits]


@dataclass
class AttackReport:
    """What one attacker walked away with.

    ``intercepted_bits`` are raw per-position channel reads;
    ``indicator_bits`` are the double C-NOT probe reads per position;
    ``message_bits`` / ``masked_secret_bits`` / ``secret_bits`` are the
    decoded claims keyed by message index (a masked bit is Secret XOR K,
    all an outsider can get without the pre-shared key).  ``accuracy``
    and ``detected`` are filled in by the session driver, which holds the
    ground truth and the abort state.
    """

    attack: str
    target: str
    probed_positions: list[int] = field(default_factory=list)
    intercepted_bits: dict[int, int] = field(default_factory=dict)
    indicator_bits: dict[int, int] = field(default_factory=dict)
    message_bits: dict[int, int] = field(default_factory=dict)
    masked_secret_bits: dict[int, int] = field(default_factory=dict)
    secret_bits: dict[int, int] = field(default_factory=dict)
    indicator_events: int = 0
    indicator_opportunities: int = 0
    accuracy: float | None = None
    detected: bool | None = None

    @property
    def sift_indicator_rate(self) -> float | None:
        if self.indicator_opportunities == 0:
            return None
        return self.indicator_events / self.indicator_opportunities

    @property
    def learned_count(self) -> int:
        """Bits of the victim's protected data this report claims to know."""
        return max(len(self.message_bits), len(self.masked_secret_bits), len(self.secret_bits))


def score_report(report: AttackReport, truth: GroundTruth) -> None:
    """Check every decoded claim against the ground truth and set accuracy.

    A report with no decoded bits scores 1.0 (vacuously correct) so that
    aggregate metrics keep one value per trial.
    """
    target = report.target
    total = 0
    matched = 0
    for idx, bit in report.message_bits.items():
        total += 1
        matched += int(bit == truth.messages[target][idx])
    for idx, bit in report.masked_secret_bits.items():
        total += 1
        matched += int(bit == (truth.secrets[target][idx] ^ truth.key[idx]))
    for idx, bit in report.secret_bits.items():
        total += 1
        matched += int(bit == truth.secrets[target][idx])
    report.accuracy = matched / total if total else 1.0


class ChannelTap:
    """Adversary contract: hooks on both transits of one channel.

    ``target`` names the participant whose channel is tapped.  A tap that
    is itself a protocol participant sets ``identity`` and receives its
    own SIFT mask through :meth:`observe_own_modes` (a participant
    legitimately knows its own choices before declaring them); everything
    else arrives only through :meth:`finalize`.
    """

    target: str = "A"
    identity: str | None = None
    attack_name: str = "none"

    def begin_session(self, num_positions: int, rng: np.random.Generator) -> None:
        """Called once before any transit with the per-channel position count."""

    def observe_own_modes(self, sift: np.ndarray) -> None:
        """Only called when ``identity`` names a participant."""

    def on_forward(
        self, positions: np.ndarray, register: Register, wires: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Forward transits of ``positions`` (rows of ``register``), each
        travelling on the aligned entry of ``wires``; returns the wires
        handed on."""
        return wires

    def on_return(
        self, positions: np.ndarray, register: Register, wires: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Return transits; same contract as :meth:`on_forward`."""
        return wires

    def finalize(self, published: PublicRecord) -> AttackReport | None:
        return None


def _carrier_positions(published: PublicRecord, participant: str) -> np.ndarray:
    """Positions whose SIFT payload enters the comparison: the first L SIFT
    positions in the base protocol, the first 2L (the R carriers) in the
    improved one."""
    quota = published.L if published.protocol == "jiang" else 2 * published.L
    return published.modes[participant].nonzero()[0][:quota]


# What a tap holds before its first hook call: no positions, nothing read.
_NO_READS = np.full(0, -1, dtype=np.intp)


def _blank_reads(register: Register) -> np.ndarray:
    """A read array with one entry per row of ``register``, all unread."""
    return np.full(register.amps.shape[1], -1, dtype=np.intp)


def _read_dict(reads: np.ndarray) -> dict[int, int]:
    """The reads actually made, keyed by position in ascending order."""
    return {pos: bit for pos, bit in enumerate(reads.tolist()) if bit >= 0}


def _raw_report(tap: ChannelTap, reads: np.ndarray) -> AttackReport:
    """A report of raw channel reads that decodes nothing."""
    report = AttackReport(attack=tap.attack_name, target=tap.target)
    report.intercepted_bits = _read_dict(reads)
    report.probed_positions = list(report.intercepted_bits)
    return report


def _decode(report: AttackReport, published: PublicRecord, reads: np.ndarray, key: Bits | None = None) -> None:
    """Turn per-position reads of the target's SIFT payload into claims
    keyed by message index.

    Base protocol: the read at the i-th carrier is message bit i, and
    XOR-ing the published R_i gives Secret_i XOR K_i.  Improved protocol:
    the read at the i-th undisclosed R carrier is the mask bit of
    published message bit i.  With ``key`` the masked bits decode to
    secret bits.
    """
    target = report.target
    carriers = _carrier_positions(published, target)
    if published.protocol == "jiang":
        report.message_bits = _read_dict(reads[carriers])
        if published.r is None:
            return
        r = published.r[target]
        masked = {idx: bit ^ r[idx] for idx, bit in report.message_bits.items()}
    elif published.messages is not None and published.disclosures is not None:
        disclosed = set(published.disclosures[target].positions)
        mask_positions = [pos for pos in carriers.tolist() if pos not in disclosed]
        message = published.messages[target]
        masked = {idx: message[idx] ^ bit for idx, bit in _read_dict(reads[mask_positions]).items()}
    else:
        return
    report.masked_secret_bits = masked
    if key is not None:
        report.secret_bits = {idx: bit ^ key[idx] for idx, bit in masked.items()}


def _attack_mask(count: int | None, num_positions: int, rng: np.random.Generator) -> np.ndarray | None:
    """A uniformly random ``count``-subset of the positions as a mask, or
    ``None`` (attack everything the tap's policy allows) without a count."""
    if count is None:
        return None
    mask = np.zeros(num_positions, dtype=bool)
    mask[rng.choice(num_positions, size=min(count, num_positions), replace=False)] = True
    return mask


class DoubleCnotEve(ChannelTap):
    """Outside eavesdropper running the double C-NOT attack on one channel.

    Forward hook: adjoin a |0> ancilla and CNOT(data -> ancilla), passing
    the data qubit on untouched.  Return hook: CNOT(returned -> ancilla),
    then read the ancilla.  A reflected qubit undoes the first C-NOT, so
    the ancilla stays |0| and the Bell pair is restored; a replaced qubit
    leaves the ancilla correlated so it fires with probability 1/2, and a
    fired ancilla certifies the returned qubit is a Z eigenstate that can
    be read without disturbance.  When the ancilla stays 0 Eve leaves the
    data qubit alone rather than risk collapsing a reflected half.

    ``midflight=True`` reads the ancilla immediately after the first
    C-NOT instead, which collapses the pair (detectable) but hands Eve
    the transit qubit's Z value at every position.
    """

    def __init__(self, target: str = "A", midflight: bool = False):
        self.target = target
        self.midflight = midflight
        self.attack_name = "double-cnot-midflight" if midflight else "double-cnot"
        self._ancilla: int | None = None
        self._probed = _NO_READS
        self._indicator = _NO_READS
        self._forward_reads = _NO_READS
        self._data_bits = _NO_READS

    def on_forward(self, positions, register, wires, rng):
        self._ancilla = register.adjoin(prepare_z(0))
        for (wire,), rows in wire_groups(positions, wires):
            register.cnot(wire, self._ancilla, rows)
        self._probed = positions
        if self.midflight:
            self._forward_reads = _blank_reads(register)
            self._forward_reads[positions] = register.measure_z(self._ancilla, rng, positions)
        return wires

    def on_return(self, positions, register, wires, rng):
        if self._ancilla is None:
            return wires
        for (wire,), rows in wire_groups(positions, wires):
            register.cnot(wire, self._ancilla, rows)
        indicator = register.measure_z(self._ancilla, rng, positions)
        self._indicator = _blank_reads(register)
        self._indicator[positions] = indicator
        if not self.midflight:
            fired = indicator == 1
            self._data_bits = _blank_reads(register)
            for (wire,), rows in wire_groups(positions[fired], wires[fired]):
                self._data_bits[rows] = register.measure_z(wire, rng, rows)
        return wires

    def finalize(self, published):
        report = AttackReport(attack=self.attack_name, target=self.target)
        report.probed_positions = sorted(self._probed.tolist())
        report.intercepted_bits = _read_dict(self._forward_reads if self.midflight else self._data_bits)
        report.indicator_bits = _read_dict(self._indicator)
        report.indicator_events = sum(report.indicator_bits.values())
        if published.modes is None:
            return report

        report.indicator_opportunities = int(np.count_nonzero(published.modes[self.target][self._probed]))
        reads = self._data_bits
        if self.midflight:
            reads = self._forward_reads
            if published.protocol == "jiang":
                # Second ancilla read is (mid-flight value) XOR (resent bit);
                # both reads exist at every probed position.
                reads = reads ^ self._indicator
        _decode(report, published, reads)
        return report


class MaliciousAgent(ChannelTap):
    """A participant who measures the victim's returned qubits and resends
    identical Z eigenstates.

    By default it intercepts exactly at its own SIFT positions, the ones
    TP can never verify with a Bell measurement in the base protocol, so
    the theft is invisible there.  ``intercept_count=m`` switches to
    Z-measuring m uniformly chosen return positions instead (the knob
    used to trace the improved protocol's detection curve).  Holding the
    pre-shared key, the agent decodes victim secret bits from whatever
    the session later publishes.
    """

    def __init__(self, victim: str = "A", key: Bits | None = None, intercept_count: int | None = None):
        self.target = victim
        self.identity = "B" if victim == "A" else "A"
        self.attack_name = "malicious-agent"
        self.key = list(key) if key is not None else None
        self.intercept_count = intercept_count
        self._attack_mask: np.ndarray | None = None
        self._own_sift: np.ndarray | None = None
        self._reads = _NO_READS

    def begin_session(self, num_positions, rng):
        self._attack_mask = _attack_mask(self.intercept_count, num_positions, rng)

    def observe_own_modes(self, sift):
        self._own_sift = sift

    def _attacked(self, positions: np.ndarray) -> np.ndarray:
        if self._attack_mask is not None:
            return self._attack_mask[positions]
        if self._own_sift is None:
            return np.zeros(len(positions), dtype=bool)
        return self._own_sift[positions]

    def on_return(self, positions, register, wires, rng):
        attacked = self._attacked(positions)
        self._reads = _blank_reads(register)
        if not attacked.any():
            return wires
        # Rows not intercepted get an idle |0> in the resend slot.
        resend = np.zeros(register.amps.shape[1], dtype=np.intp)
        for (wire,), rows in wire_groups(positions[attacked], wires[attacked]):
            resend[rows] = self._reads[rows] = register.measure_z(wire, rng, rows)
        fresh = register.adjoin(prepare_z(resend))
        return np.where(attacked, fresh, wires)

    def finalize(self, published):
        report = _raw_report(self, self._reads)
        if published.modes is not None:
            _decode(report, published, self._reads, self.key)
        return report


class BlockingAttacker(ChannelTap):
    """X-measures the victim's returned qubits in place.

    Returned Z eigenstates collapse to random X eigenstates, corrupting
    what TP will read without telling the attacker anything (the X
    outcome distribution is uniform whatever the Z bit was).  Attacks
    every return position by default; ``attack_count`` limits it to a
    random subset.
    """

    def __init__(self, target: str = "A", attack_count: int | None = None):
        self.target = target
        self.attack_name = "blocking"
        self.attack_count = attack_count
        self._attack_mask: np.ndarray | None = None
        self._reads = _NO_READS

    def begin_session(self, num_positions, rng):
        self._attack_mask = _attack_mask(self.attack_count, num_positions, rng)

    def on_return(self, positions, register, wires, rng):
        attacked = slice(None) if self._attack_mask is None else self._attack_mask[positions]
        self._reads = _blank_reads(register)
        for (wire,), rows in wire_groups(positions[attacked], wires[attacked]):
            self._reads[rows] = register.measure_x(wire, rng, rows)
        return wires

    def finalize(self, published):
        return _raw_report(self, self._reads)


class InterceptResendZ(ChannelTap):
    """Baseline intercept-resend: Z-measures every forward qubit, sending
    the post-measurement eigenstate onward."""

    def __init__(self, target: str = "A"):
        self.target = target
        self.attack_name = "intercept-resend-z"
        self._reads = _NO_READS

    def on_forward(self, positions, register, wires, rng):
        self._reads = _blank_reads(register)
        for (wire,), rows in wire_groups(positions, wires):
            self._reads[rows] = register.measure_z(wire, rng, rows)
        return wires

    def finalize(self, published):
        return _raw_report(self, self._reads)


# ---------------------------------------------------------------------------
# Exact-state verification suite for the double C-NOT analysis
# ---------------------------------------------------------------------------


@dataclass
class StateCheck:
    name: str
    passed: bool
    detail: str


def _prob(amps: np.ndarray, predicate) -> float:
    """Probability mass of basis labels satisfying ``predicate(bits)``."""
    n = kernel.num_qubits(amps)
    total = 0.0
    for index, amp in enumerate(amps):
        bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
        if predicate(bits):
            total += abs(amp) ** 2
    return total


def _basis_state(n: int, *indices_with_amp: tuple[int, complex]) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    for index, amp in indices_with_amp:
        amps[index] = amp
    return amps


def attack_state_checks(tol: float = 1e-9) -> list[StateCheck]:
    """Amplitude-exact verification of the double C-NOT state evolutions
    on a phi+ pair, as used by ``sqpc verify-equations``.

    Register wire order is (Alice half, Bob half, probe ancilla, fresh
    resend qubit) in adjoin order; expected states are written in that
    convention.  The resend cases are checked by composing kernel ops
    from the coherent-pair premise in wire order (resend, probe, far
    half), and the discard case is checked through the retained-qubit
    model at the observable level.
    """
    s = kernel.SQRT_HALF
    rng = np.random.default_rng(0)
    checks: list[StateCheck] = []

    def run_pipeline(message_bit: int | None):
        """Forward tap on a one-position phi+ batch, then CTRL (None) or SIFT(bit)."""
        pairs = PairBatch.prepare([BellState.PHI_PLUS.value])
        eve = DoubleCnotEve(target="A")
        pairs.wires["A"] = eve.on_forward(pairs.positions, pairs.register, pairs.wires["A"], rng)
        sift = np.array([message_bit is not None])
        pairs.returns["A"] = participant_respond(sift, pairs.register, pairs.wires["A"], [message_bit or 0])
        return pairs, eve

    # 1. Forward tap entangles the probe: (|000> + |111>)/sqrt(2) on (A, B, E).
    pairs, _ = run_pipeline(None)
    expected = _basis_state(3, (0b000, s), (0b111, s))
    ok = kernel.amplitudes_close(pairs.register.amps[:, 0], expected, tol)
    checks.append(StateCheck("forward-probe-entanglement", ok, "probe C-NOT on a phi+ half gives the three-qubit GHZ correlations"))

    # 2. CTRL round trip restores the pair and parks the probe back in |0>.
    pairs, eve = run_pipeline(None)
    pairs.returns["A"] = eve.on_return(pairs.positions, pairs.register, pairs.returns["A"], rng)
    expected = kernel.tensor(prepare_bell(BellState.PHI_PLUS), prepare_z(0))
    indicator = eve.finalize(PublicRecord(protocol="jiang", L=1)).indicator_bits[0]
    ok = kernel.amplitudes_close(pairs.register.amps[:, 0], expected, tol) and indicator == 0
    checks.append(StateCheck("ctrl-roundtrip-restoration", ok, "reflected qubit undoes the probe C-NOT, pair intact and probe silent"))

    # 3. After a SIFT discard the probe and the far half stay perfectly
    #    Z-correlated (the retained-qubit reading of the discarded pair).
    pairs, _ = run_pipeline(0)
    amps = pairs.register.amps[:, 0]  # wires: A=0, B=1, E=2, F=3
    p_disagree = _prob(amps, lambda b: b[2] != b[1])
    p_probe_one = _prob(amps, lambda b: b[2] == 1)
    ok = p_disagree <= tol and abs(p_probe_one - 0.5) <= tol
    checks.append(StateCheck("discarded-half-probe-correlation", ok, "probe and far half agree in Z with probability 1, each side uniform"))

    # 4./5. Resend algebra from the coherent-pair premise, wires (F, E, B):
    #    F=|0>: (|000> + |011>)/sqrt(2);  F=|1>: (|110> + |101>)/sqrt(2).
    for bit, indices, name in (
        (0, (0b000, 0b011), "resend0-probe-superposition"),
        (1, (0b110, 0b101), "resend1-probe-superposition"),
    ):
        sv = kernel.tensor(prepare_z(bit), prepare_bell(BellState.PHI_PLUS))
        sv = kernel.apply_cnot(sv, 0, 1)
        expected = _basis_state(3, *((i, s) for i in indices))
        ok = kernel.amplitudes_close(sv, expected, tol)
        checks.append(StateCheck(name, ok, f"second C-NOT with a fresh |{bit}> control leaves the stated superposition"))

    # 6. Through the full pipeline the probe fires with probability exactly
    #    1/2 on SIFT positions and, when it fires, certifies the resent bit.
    ok = True
    probe = 2
    for bit in (0, 1):
        pairs, _ = run_pipeline(bit)
        resend = int(pairs.returns["A"][0])
        pairs.register.cnot(resend, probe)
        amps = pairs.register.amps[:, 0]
        p_fire = _prob(amps, lambda b: b[probe] == 1)
        p_wrong = _prob(amps, lambda b: b[probe] == 1 and b[resend] != bit)
        ok = ok and abs(p_fire - 0.5) <= tol and p_wrong <= tol
    checks.append(StateCheck("sift-probe-indicator-odds", ok, "probe fires with probability 1/2 and a fired probe reads the resent bit exactly"))

    return checks
