"""Exception hierarchy shared across the pipeline.

Every error raised by the library derives from PipelineError so the CLI can
map data problems to a single exit code.
"""


class PipelineError(Exception):
    """Base class for all pipeline data and configuration errors."""


class MissingFile(PipelineError):
    pass


class ParseError(PipelineError):
    pass


class DimensionMismatch(PipelineError):
    pass


class GroundTruthOutOfRange(PipelineError):
    pass


class NonFiniteValue(PipelineError):
    pass


class ZeroVector(PipelineError):
    pass


class InvalidConfig(PipelineError):
    pass


class NotNormalized(PipelineError):
    pass


class KOutOfRange(PipelineError):
    pass


class BatchTooSmall(PipelineError):
    pass


class PointerOutOfBounds(PipelineError):
    pass


class EmptyList(PipelineError):
    pass


class InvalidRanking(PipelineError):
    pass


class MissingEmbedding(PipelineError):
    pass


class MissingGroundTruth(PipelineError):
    pass


class KExceedsDepth(PipelineError):
    pass


class MismatchedRuns(PipelineError):
    pass
