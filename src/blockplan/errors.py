"""Exception types shared across the planning pipeline, each with the exit
code a ``blockplan`` command that ends in it returns."""


class BlockplanError(Exception):
    """Base class for all library errors."""
    exit_code = 1


class MalformedFile(BlockplanError):
    """Mesh file bytes could not be parsed."""
    exit_code = 3


class UnsupportedFormat(BlockplanError):
    """Mesh file format could not be identified."""
    exit_code = 4


class EmptyMesh(BlockplanError):
    """Operation requires a mesh with at least one vertex."""
    exit_code = 5


class EmptyAssembly(BlockplanError):
    """Occupancy grid has no occupied cells."""
    exit_code = 13


class CannotFit(BlockplanError):
    """Rescaling cannot bring the component count down to the inventory."""
    exit_code = 8


class EmptyAfterModification(BlockplanError):
    """Failure handling removed every cell of the assembly."""
    exit_code = 9


class Unsequenceable(BlockplanError):
    """No bottom-up, face-connected placement order exists."""
    exit_code = 10


class SequenceGridMismatch(BlockplanError):
    """Sequence does not cover exactly the occupied cells of its grid."""
    exit_code = 11


class ConfigViolation(BlockplanError):
    """Assembly configuration violates a safety constraint."""
    exit_code = 12


class ClientUnavailable(BlockplanError):
    """External client (language model or mesh generator) failed or timed out."""
    exit_code = 7


class SchemaError(BlockplanError):
    """JSON artifact does not match the expected schema."""
    exit_code = 15


class RequestRejected(BlockplanError):
    """The text request names no concrete object to build."""
    exit_code = 6


class ValidationFailed(BlockplanError):
    """The planned sequence failed its replay, or the report its grid."""
    exit_code = 14
