"""Exception types shared across the package."""


class ContractError(ValueError):
    """A caller violated a documented precondition (shapes, ranges, modes)."""


class ConfigError(ContractError):
    """A run configuration is missing, malformed, or internally inconsistent."""


class FormatError(ValueError):
    """An input file does not match its declared on-disk format."""


class NumericalFailure(ArithmeticError):
    """A linear-algebra step produced a non-finite or unsolvable system.

    Carries enough context (batch index, layer) to locate the offending
    point in a stream without replaying it.
    """

    def __init__(self, message, batch_index=None, layer=None):
        super().__init__(message)
        self.batch_index = batch_index
        self.layer = layer

    def __str__(self):
        # Rendered on demand so context stamped on after the raise shows.
        parts = [str(self.args[0])]
        if self.batch_index is not None:
            parts.append(f"batch={self.batch_index}")
        if self.layer is not None:
            parts.append(f"layer={self.layer}")
        return " ".join(parts)
