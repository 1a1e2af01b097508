"""Test-suite setup shared by every test module."""
import warnings

# A failing @given test makes hypothesis import its patch writer, which
# imports libcst, and libcst's use of mypy_extensions.TypedDict warns.  The
# project's error::DeprecationWarning filter would turn that warning into an
# internal error that stops the run.  Imported once here, with the warning
# ignored, the writer is already loaded when a test fails; the filter stays
# in force for everything else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis then writes no patches
        pass
