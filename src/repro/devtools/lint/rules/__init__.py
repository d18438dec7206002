"""Rule catalogue: importing this package registers every shipped rule.

One module per invariant family; each module's rules self-register via
:func:`repro.devtools.lint.base.register`.  Authoring a new rule is:
subclass :class:`~repro.devtools.lint.base.Rule` in a module here (or
import your module from here), give it a kebab-case ``name`` and a
``description``, implement ``check``, add a passing and a failing
fixture under ``tests/lint_fixtures/``, and it is automatically part of
``repro lint``, ``--list-rules``, and the self-lint test.
"""

from repro.devtools.lint.rules import (  # noqa: F401  (registration imports)
    hotpath,
    locks,
    pickles,
    suppress_style,
    telemetry,
)
