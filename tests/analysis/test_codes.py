"""The diagnostic-code table: unique, well-formed, documented."""

import re
from pathlib import Path

import pytest

from repro.analysis import CODES, SEVERITIES, all_codes, code_info

API_DOC = Path(__file__).resolve().parents[2] / "docs" / "API.md"


def test_codes_nonempty_and_keyed_consistently():
    assert CODES
    for code, info in CODES.items():
        assert info.code == code


def test_codes_are_unique():
    codes = [info.code for info in CODES.values()]
    assert len(codes) == len(set(codes))
    assert list(all_codes()) == sorted(codes)


def test_code_format_is_stable():
    # three digits for the original families, four for MOA10xx+
    for code in CODES:
        assert re.fullmatch(r"MOA\d{3,4}", code), code


def test_default_severities_are_valid():
    for info in CODES.values():
        assert info.default_severity in SEVERITIES


def test_titles_and_descriptions_present():
    for info in CODES.values():
        assert info.title.strip()
        assert info.description.strip()


def test_expected_codes_registered():
    for code in ("MOA001", "MOA002", "MOA003", "MOA101", "MOA102", "MOA103",
                 "MOA201", "MOA202", "MOA203", "MOA301", "MOA401", "MOA501",
                 "MOA901", "MOA902", "MOA903", "MOA904",
                 "MOA1001", "MOA1002", "MOA1003", "MOA1004"):
        assert code in CODES


def test_code_info_unknown_raises():
    with pytest.raises(KeyError):
        code_info("MOA999")


def test_every_code_is_documented_in_api_md():
    text = API_DOC.read_text(encoding="utf-8")
    for code in CODES:
        assert code in text, f"{code} missing from docs/API.md"
