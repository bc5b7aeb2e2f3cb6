"""Exception types shared across the package, the capacity bounds and their check."""

# Read at call time as `errors.MAX_CANDIDATES`, so one attribute sets each.
MAX_CANDIDATES = 10 ** 7  # candidates a brute-force scan may test
MAX_TABLE_ENTRIES = 10 ** 6  # entries a meet-in-the-middle table may hold


class ParameterError(ValueError):
    """Invalid or inconsistent public parameters (CLI exit code 1)."""


class CapacityError(RuntimeError):
    """A brute-force search space exceeds its bound (CLI exit code 2)."""


def check_capacity(total: int, bound: int, what: str) -> None:
    """Refuse a brute-force search of `total` `what` beyond `bound`."""
    if total > bound:
        raise CapacityError(f"{total} {what} exceed the bound {bound}")
