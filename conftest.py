"""Session-wide test setup for both ``tests/`` and ``perfbench/``.

When a hypothesis test fails, hypothesis imports ``libcst.metadata`` to
print a patch, and that import warns about ``mypy_extensions.TypedDict``.
Under ``filterwarnings = ["error"]`` the warning would turn the failure
report into an INTERNALERROR that ends the run, so later tests would go
unreported. Importing the module once here, with that warning ignored,
leaves hypothesis nothing to import at report time.
"""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst.metadata  # noqa: F401
    except ImportError:  # libcst is optional: hypothesis prints no patch
        pass
