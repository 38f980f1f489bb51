"""Session set-up for the test suite.

When libcst is installed, hypothesis writes a failing test's patch through
it, and that imports `libcst.metadata.type_inference_provider`, whose
TypedDict class raises a DeprecationWarning from mypy_extensions.  Under
`-W error` that warning would end the run in INTERNALERROR and lose the
falsifying example, so the module is imported here first, with the warning
ignored.  Without libcst there is nothing to import."""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst.metadata.type_inference_provider  # noqa: F401
    except ImportError:
        pass
