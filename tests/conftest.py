import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import oracles
import ramseystats as rs

DATA = Path(__file__).parent / "data"

# Real UCI house-votes-84 file, if the user supplied one. Checked in
# order: environment variable, then the conventional repo location.
HOUSE_VOTES_ENV = "RAMSEYSTATS_HOUSE_VOTES"
_HOUSE_VOTES_CANDIDATES = (
    Path(__file__).parent.parent / "data" / "house-votes-84.data",
    DATA / "house-votes-84.data",
)


def house_votes_file():
    env = os.environ.get(HOUSE_VOTES_ENV)
    if env:
        p = Path(env)
        if p.is_file():
            return p
    for p in _HOUSE_VOTES_CANDIDATES:
        if p.is_file():
            return p
    return None


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    stdout: str
    exception: BaseException | None  # what ended a run that did not exit 0


class _Tee(io.StringIO):
    """A stdout that also writes into the interleaved output."""

    def __init__(self, output):
        super().__init__()
        self.output = output

    def write(self, text):
        self.output.write(text)
        return super().write(text)


class CliRunner:
    """Runs the CLI's main(args) in process and captures what it prints."""

    def invoke(self, main, args, catch_exceptions=True) -> Result:
        output = io.StringIO()
        stdout = _Tee(output)
        exit_code, exception = 0, None
        with redirect_stdout(stdout), redirect_stderr(output):
            try:
                main(args)
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                exception = exc if exit_code else None
            except Exception as exc:  # an uncaught error exits 1, as the interpreter's does
                if not catch_exceptions:
                    raise
                exit_code, exception = 1, exc
        return Result(exit_code, output.getvalue(), stdout.getvalue(), exception)


@pytest.fixture
def sample_votes_path() -> Path:
    return DATA / "house-votes-84-sample.csv"


@pytest.fixture
def sample_records(sample_votes_path):
    return rs.parse_votes(sample_votes_path.read_text().splitlines())


@pytest.fixture
def sample_matrix(sample_records):
    return oracles.hamming_matrix(sample_records)


@pytest.fixture
def trade_small_path() -> Path:
    return DATA / "trade-small.csv"


@pytest.fixture
def trade_ring_path() -> Path:
    return DATA / "trade-ring.csv"


@pytest.fixture
def star_coloring():
    # blue star: center 0 joined to 1..4, vertex 5 isolated in blue
    return rs.from_blue_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4)])


# Distance matrix the six-voter sample must reproduce.
SIX_VOTER_MATRIX = (
    (0, 3, 7, 7, 7, 6),
    (3, 0, 6, 7, 7, 5),
    (7, 6, 0, 5, 5, 5),
    (7, 7, 5, 0, 5, 4),
    (7, 7, 5, 5, 0, 3),
    (6, 5, 5, 4, 3, 0),
)


def assert_no_child_left():
    """No child of this process is left unreaped, nor still running."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    assert pid == 0, f"child {pid} was left unreaped"
    pytest.fail("a child is still running")


@pytest.fixture
def forks(monkeypatch):
    """Make cores.both fork whatever the work and the CPUs, and list the
    forks; at teardown, no child may be left."""
    from ramseystats import cores

    count = []
    real_fork = os.fork

    def fork():
        count.append(1)
        return real_fork()

    monkeypatch.setattr(cores, "_forks", lambda work: True)
    monkeypatch.setattr(os, "fork", fork)
    yield count
    assert_no_child_left()


@pytest.fixture
def inline(monkeypatch):
    """Make cores.both run both halves here, whatever the work and CPUs."""
    from ramseystats import cores

    monkeypatch.setattr(cores, "_forks", lambda work: False)
