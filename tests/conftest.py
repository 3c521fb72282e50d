import pytest

from swsurgery.models import e1, v_n, y_n
from swsurgery.pipelines import FAMILIES

from .trusted import validating_trusted


def pytest_addoption(parser):
    parser.addoption(
        "--validate-trusted", action="store_true", default=False,
        help="build every trusted (unchecked) construction through its public "
             "validating constructor too, and fail if the two differ",
    )


@pytest.fixture(scope="session", autouse=True)
def validate_trusted(request):
    if not request.config.getoption("--validate-trusted"):
        yield
        return
    with validating_trusted():
        yield


@pytest.fixture(scope="session")
def e1_model():
    return e1()


@pytest.fixture(scope="session")
def y3():
    return y_n(3)


@pytest.fixture(scope="session")
def z3():
    return FAMILIES["xn"].ambient(3)


@pytest.fixture(scope="session")
def v3():
    return v_n(3)


@pytest.fixture(scope="session")
def w3():
    return FAMILIES["qn"].ambient(3)
