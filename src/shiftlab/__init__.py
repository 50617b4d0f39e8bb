"""Rate classification and desk-scale simulation for weighted shifts
and dissipative composition operators.

The package exports only ``__version__``; import names from their modules
(``shiftlab.classify``, ``shiftlab.systems``, ``shiftlab.simulate``, ...).
"""

__version__ = "0.1.0"
