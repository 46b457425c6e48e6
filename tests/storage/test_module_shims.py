"""The stats / statistics module split: both re-exported from the
package, each name living in exactly one of them.

``repro.storage.stats`` holds runtime cost counters and
``repro.storage.statistics`` offline column statistics.  Neither
module forwards names that belong to the other.
"""

import pytest

import repro.storage as storage
from repro.storage import statistics, stats


class TestPackageSurface:
    def test_both_modules_re_exported(self):
        assert storage.stats is stats
        assert storage.statistics is statistics
        assert "stats" in storage.__all__
        assert "statistics" in storage.__all__

    def test_flagship_classes_at_package_level(self):
        assert storage.CostCounter is stats.CostCounter
        assert storage.ZoneMap is statistics.ZoneMap


class TestDeprecationShims:
    """Neither module forwards the other's names."""

    def test_unknown_names_still_raise(self):
        with pytest.raises(AttributeError):
            stats.definitely_not_a_name
        with pytest.raises(AttributeError):
            statistics.definitely_not_a_name
        # a name from the other module is as unknown as any other
        with pytest.raises(AttributeError):
            stats.ZoneMap
        with pytest.raises(AttributeError):
            statistics.CostCounter

    def test_native_names_do_not_warn(self, recwarn):
        assert stats.CostCounter is storage.CostCounter
        assert statistics.ZoneMap is storage.ZoneMap
        deprecations = [w for w in recwarn.list
                        if issubclass(w.category, DeprecationWarning)]
        assert deprecations == []
