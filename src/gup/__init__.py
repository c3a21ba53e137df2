"""Pendulum timing, oscillator matrix mechanics and exclusion bounds
for a minimal-length deformed commutator.

The modules split along the physics: `dynamics` integrates the
classical deformed equations of motion and pendulum periods, `evfit`
fits period-vs-amplitude^2 data with errors on both axes, `oscillator`
carries the quantum cross-check, and `bounds` turns the fit into a ratio
bound (`pendulum_fit`) and the registry into exclusion curves
(`scenario_curves`).  `cli` only parses and formats for the `gup` command.
"""

__version__ = "0.1.0"
