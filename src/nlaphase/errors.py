"""Exception types raised by the library; all are ValueError subclasses."""


class DimensionMismatchError(ValueError):
    """Two Fock vectors carry different cutoffs."""


class DegenerateBranchError(ValueError):
    """A heralded branch with zero probability cannot produce a normalized state."""


class DegenerateObservableError(ValueError):
    """The state family carries no phase information (zero Fisher information)."""


class NoCrossingError(ValueError):
    """The success-branch information does not exceed the no-amplifier value."""


class NoDataError(ValueError):
    """An estimator was asked for an estimate without any informative counts."""


class NoBreakevenError(ValueError):
    """Post-selection can never be cheaper, so no break-even cost exists."""
