"""Error taxonomy shared across the framework.

Every domain error derives from SliceSimError.  During a simulation run the
engine converts raised domain errors into trace events named after their
class instead of aborting.  Conditions that are only traced, never raised
(`IllegalEventError`, `UnknownDestinationError`, `NoSubscriberError`,
`UnknownDevice`, `MobilityUnsupported` and the like), are named by string
in the trace and have no class here.
"""


class SliceSimError(Exception):
    """Base class for all domain errors."""


# -- catalog ---------------------------------------------------------------

class SchemaError(SliceSimError):
    """A structured text document does not parse against its grammar."""


class DuplicateSfError(SliceSimError):
    pass


class MissingAttributeError(SliceSimError):
    pass


class UnassignedSfError(SliceSimError):
    pass


# -- messages --------------------------------------------------------------

class NoInterfaceError(SliceSimError):
    """No reference-point interface is defined for a role pair."""


# -- fabric ----------------------------------------------------------------

class ModelMismatchError(SliceSimError):
    pass


# -- building blocks -------------------------------------------------------

class NoDPlaneFunctionError(SliceSimError):
    pass


class NoEligibleSliceError(SliceSimError):
    pass


class NoSessionError(SliceSimError):
    pass


class PolicyForbidsError(SliceSimError):
    pass


class NotIdleError(SliceSimError):
    pass


class NoPathError(SliceSimError):
    pass


class CapacityError(SliceSimError):
    pass


class IllegalTransitionError(SliceSimError):
    """A block state machine was asked to take an edge it does not declare."""


# -- slices ----------------------------------------------------------------

class InfraCapacityError(SliceSimError):
    pass


class LifecycleOrderError(SliceSimError):
    pass


class BlueprintError(SliceSimError):
    pass


# -- netsim / engine -------------------------------------------------------

class ScenarioError(SliceSimError):
    pass


class EquivalenceViolation(SliceSimError):
    """Terminal-state digests diverged across fabric models."""
