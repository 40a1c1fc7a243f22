"""Rewrite the asserts of the shared test oracles as pytest does those of
test modules, so that they still run under python -O."""

import pytest

pytest.register_assert_rewrite("oracles")
