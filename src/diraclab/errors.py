"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside an operation's domain (bad axis, shape mismatch, ...)."""


class ConfigError(ValueError):
    """Invalid run configuration.  Collects every problem, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
