"""The exact limits of the open walk at full scale, T = 250 and N = 1100.

Run as ``PYTHONPATH=src python tests/scale_oracles.py``.  It prints the
largest deviation of P(x) and of the fidelity from each oracle:
- bit flip at eta = 1000 against a sigma_x gate after every step;
- eta = 0 against the closed walk, for all five channel variants;
- walker and both dephasing at eta = 1000 against the Markov chain on 2x2
  site blocks (``dense_oracle.dephased_chain``), P(x) after a plain run and
  the fidelity along a revival.

Then, for each of the five variants at eta = 1e-3, the revival fidelity r
read at 2T alone (``times=(2 * T,)``, as ``decohere`` reads it) against r
from the full trace; the difference must print as 0.0.

The fidelity of the first two is taken along a plain run.  The same
oracles run in the test suite at T = 100, N = 400
(``tests/test_channels.py``); pytest does not collect this file.
"""

import numpy as np

from catwalk.analysis import (REVERSER_EXACT, _reversal_schedule, position_distribution,
                              revival_protocol)
from catwalk.channels import ChannelSpec, evolve_open, fidelity_trace
from catwalk.walk import SIGMA_X, Schedule, evolve
from dense_oracle import dephased_chain, generic_packet

T, N, THETA = 250, 1100, 0.7
VARIANTS = (("dephasing", "coin"), ("dephasing", "walker"), ("dephasing", "both"),
            ("amplitude_damping", "coin"), ("bit_flip", "coin"))


def deviation(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def main() -> None:
    psi = generic_packet(N)
    closed = Schedule(T, THETA)
    gated = Schedule(T, THETA, coin_gate_insertions=tuple((t, SIGMA_X) for t in range(1, T + 1)))
    closed_prob = position_distribution(evolve(psi, closed).final)
    closed_trace, _ = fidelity_trace(psi, closed)
    flip = Schedule(T, THETA, channel=ChannelSpec("bit_flip", 1000.0))
    rows = [("bit_flip eta=1000 vs sigma_x every step",
             deviation(evolve_open(psi, flip).distribution(),
                       position_distribution(evolve(psi, gated).final)),
             deviation(fidelity_trace(psi, flip)[0], fidelity_trace(psi, gated)[0]))]
    for kind, target in VARIANTS:
        open_ = Schedule(T, THETA, channel=ChannelSpec(kind, 0.0, target))
        rows.append((f"{kind}/{target} eta=0 vs closed walk",
                     deviation(evolve_open(psi, open_).distribution(), closed_prob),
                     deviation(fidelity_trace(psi, open_)[0], closed_trace)))
    for target in ("walker", "both"):
        spec = ChannelSpec("dephasing", 1000.0, target)
        plain = Schedule(T, THETA, channel=spec)
        revival = _reversal_schedule(THETA, T, REVERSER_EXACT, channel=spec)
        rows.append((f"dephasing/{target} eta=1000 vs Markov chain",
                     deviation(evolve_open(psi, plain).distribution(),
                               dephased_chain(psi, plain, target)[0]),
                     deviation(fidelity_trace(psi, revival)[0],
                               dephased_chain(psi, revival, target)[1])))
    print(f"T={T} N={N} theta={THETA}")
    print(f"{'oracle':<46} {'max |dP(x)|':>12} {'max |dF|':>12}")
    for name, prob, fid in rows:
        print(f"{name:<46} {prob:12.3e} {fid:12.3e}")
    print(f"{'revival eta=1e-3':<46} {'r at 2T':>22} {'r(2T) - r(full)':>16}")
    for kind, target in VARIANTS:
        spec = ChannelSpec(kind, 1e-3, target)
        alone = revival_protocol(psi, THETA, T, channel=spec, times=(2 * T,)).r
        full = revival_protocol(psi, THETA, T, channel=spec).r
        print(f"{kind + '/' + target:<46} {alone!r:>22} {alone - full!r:>16}")


if __name__ == "__main__":
    main()
