"""Numerical calculus for pseudo-differential operators generated by a
model boundary-value operator with discrete biorthogonal spectrum.

Public names load their submodule on first access (PEP 562), so importing
``nonharmonic.cli`` does not load numpy before the CLI caps BLAS threads."""

from importlib import import_module

__version__ = "0.1.0"

_SOURCES = {
    "model": ("BracketTable", "ModelProblem", "ModelSpec", "bracket", "build_model",
              "check_biorthogonality", "check_wz", "s0_tail"),
    "symbols": ("Symbol", "make_symbol"),
    "transform": ("CoeffVector", "fourier", "inverse"),
}

__all__ = [name for names in _SOURCES.values() for name in names] + ["__version__"]


def __getattr__(name):
    for module, names in _SOURCES.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
