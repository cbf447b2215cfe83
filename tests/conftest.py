"""Import ``ulrlab`` before any test module loads numpy, so the package's
one-thread BLAS pin holds for the whole suite, as it does for the CLI."""

import ulrlab  # noqa: F401
