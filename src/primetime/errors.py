"""Exception hierarchy shared across the package."""


class PrimeTimeError(Exception):
    """Base class for all errors raised by this package."""


class CodecError(PrimeTimeError):
    """Malformed message or pair set: duplicate prime, value out of range,
    unfactorable residue, exponent out of range."""


class ExponentRangeError(CodecError):
    """A message factors within the cap, but an exponent exceeds the bound."""


class PrimeCapError(PrimeTimeError):
    """The prime search ran past the configured cap."""


class GraphError(PrimeTimeError):
    """Invalid topology: unknown node, disconnected graph, bad edge list."""


class ProtocolError(PrimeTimeError):
    """Protocol violation: conflicting value, double leave."""


class ConfigError(PrimeTimeError):
    """Invalid or unreadable simulation configuration."""
