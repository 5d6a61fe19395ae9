"""Error types shared across the kernel.

UsageError marks caller mistakes (bad modulus, unknown op, malformed file);
the CLI maps it to exit code 2.  DomainError marks arithmetic outside the
domain or a violated internal invariant; the CLI catches it first and exits
3, so it is never reported as a usage error.
"""


class UsageError(Exception):
    """Invalid input or request: wrong modulus, unknown op/pmap, parse error."""


class DomainError(UsageError):
    """Arithmetic outside the domain, e.g. inverse of zero."""
