import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from orbibraid.reflect import RepData


def data_path(name: str) -> Path:
    return Path(__file__).resolve().parents[1] / "src" / "orbibraid" / "data" / name


@pytest.fixture(scope="session")
def sl2_data() -> RepData:
    return RepData.load(data_path("sl2.rep.json"))


@pytest.fixture(scope="session")
def diagram_dir() -> Path:
    return data_path("diagrams")


@pytest.fixture(params=["default-limit", "no-limit"])
def int_digit_limit(request):
    """Runs a test under the interpreter's own limit on the digits int() reads, and with
    that limit lifted, as on an interpreter that has none (3.10 before 3.10.7)."""
    if request.param == "default-limit" or not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    kept = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(kept)
