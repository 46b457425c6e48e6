"""The ``stats`` module's package surface: re-exported from
``repro.storage``, forwarding no names it does not define.

``repro.storage.stats`` holds the runtime cost counters.
"""

import pytest

import repro.storage as storage
from repro.storage import stats


class TestPackageSurface:
    def test_stats_module_re_exported(self):
        assert storage.stats is stats
        assert "stats" in storage.__all__

    def test_flagship_classes_at_package_level(self):
        assert storage.CostCounter is stats.CostCounter


class TestDeprecationShims:
    """The module forwards no names it does not define."""

    def test_unknown_names_still_raise(self):
        with pytest.raises(AttributeError):
            stats.definitely_not_a_name

    def test_native_names_do_not_warn(self, recwarn):
        assert stats.CostCounter is storage.CostCounter
        deprecations = [w for w in recwarn.list
                        if issubclass(w.category, DeprecationWarning)]
        assert deprecations == []
