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


@pytest.fixture(params=["float", "bool", "below"])
def refuse_int(request):
    """check(call, field, low, prefix=""): call(v) for v = 1.5, True and
    low - 1 each raises nearfield._int_arg's one ValueError, with its exact
    text after prefix, such as replay's "trace step N: "."""
    def check(call, field, low, prefix=""):
        v = {"float": 1.5, "bool": True, "below": low - 1}[request.param]
        with pytest.raises(ValueError) as refused:
            call(v)
        assert str(refused.value) == f"{prefix}{field} must be an integer >= {low}, got {v!r}"
    return check
