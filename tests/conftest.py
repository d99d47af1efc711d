import pathlib
import sys

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def load(name: str):
    from kmc.cli import load_diagram

    return load_diagram(FIXTURES / name)


class CubeWalked(BaseException):
    """Raised by ``no_cube_walk``; a BaseException, so no error handler in
    the package (the CLI's included) can turn it into an ordinary exit."""


def _wrap_cube_walks(monkeypatch, on_walk) -> None:
    """Call on_walk(kind, d) at every start of a cube pass and every
    per-state walker built.  The kinds are "labelled" (``label_states``),
    "counting" (``circle_counts``) and "walker" (``_walker``, which
    ``label_states`` and ``circles_of_state`` build).  Each function is
    wrapped in every loaded ``kmc`` module that binds it, so a
    ``from .statesum import ...`` caller is seen too."""
    import kmc.statesum

    for kind, name in (
        ("labelled", "label_states"),
        ("counting", "circle_counts"),
        ("walker", "_walker"),
    ):
        real = getattr(kmc.statesum, name)

        def wrapper(d, *args, _real=real, _kind=kind, **kwargs):
            on_walk(_kind, d)
            return _real(d, *args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "kmc" and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, wrapper)


@pytest.fixture
def cube_walks(monkeypatch) -> list:
    """The cube passes and walkers started, as (kind, diagram) in call
    order; see ``_wrap_cube_walks``."""
    seen = []
    _wrap_cube_walks(monkeypatch, lambda kind, d: seen.append((kind, d)))
    return seen


@pytest.fixture
def no_cube_walk(monkeypatch) -> None:
    """Any cube pass or walker started raises ``CubeWalked``."""

    def refuse(kind, d):
        raise CubeWalked(f"a {kind} walk of {d.n} crossings started")

    _wrap_cube_walks(monkeypatch, refuse)
