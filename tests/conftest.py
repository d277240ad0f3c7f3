import pytest

from nearvec import build_nearfield


@pytest.fixture(scope="session")
def dn32():
    return build_nearfield(3, 2)


@pytest.fixture(scope="session")
def dn52():
    return build_nearfield(5, 2)


@pytest.fixture(params=[1.5, True, -1, 9, None, "1"],
                ids=["float", "bool", "minus-1", "order", "none", "str"])
def bad_code(request):
    """A value that is not an element code of DN(3,2), and the end of the one
    message, raised by Nearfield.check_codes, that refuses it."""
    a = request.param
    return a, f"{a!r} is not an integer" if type(a) is not int else f"{a} out of range for order 9"
