"""Test-session setup shared by every test module.

To print the patch for a failing example, hypothesis imports libcst,
and that import warns with a DeprecationWarning from a third-party
module.  Under ``-W error::DeprecationWarning`` the warning escapes as
an INTERNALERROR, and the report then shows neither the falsifying
example nor the failed assertion.  Importing the patch module once
here, with DeprecationWarning ignored for that import alone, leaves
every warning raised by f2orbits or the tests an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis or libcst absent: nothing to patch
        pass
