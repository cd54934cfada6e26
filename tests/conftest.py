import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# Child processes (`python -m cobeq ...`) import the package from this
# checkout too, as the suite does through pyproject.toml's pytest pythonpath.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

SEED = int(os.environ.get("COBEQ_SEED", "271828"))


def pytest_report_header(config):
    return f"cobeq randomized suites: seed={SEED} (override with COBEQ_SEED)"
