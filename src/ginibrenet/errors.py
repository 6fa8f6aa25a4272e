"""Exception types shared across the package."""


class CapExceededError(RuntimeError):
    """A capped loop (rejection sampler, root-bracket search) hit its cap.

    Carries a ``diagnostics`` dict (proposal or step counts and the inputs
    that drove the loop) so a stalled run can be reported instead of hanging.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SamplerStallError(CapExceededError):
    """Rejection sampler exceeded its proposal budget."""


class MgfDivergenceError(ValueError):
    """The fading moment generating function diverges at the requested argument."""
