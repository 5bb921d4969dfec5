"""Numerical audit bench for spectral bounds of 1D matrix Schrodinger operators."""

import importlib

__version__ = "0.1.0"

# The submodules, and the names re-exported from them, load on first access
# (PEP 562): `import ltlab` loads neither numpy nor scipy, so the command
# line can set OpenBLAS's thread count before either library loads.
_SUBMODULES = frozenset({
    "birman_schwinger", "bounds", "fractional", "multidim", "potentials", "reports",
    "scattering", "spectral1d",
})
_EXPORTS = {
    "BoundReport": "reports",
    "BoundSpec": "reports",
    "NegativeSpectrum": "spectral1d",
    "SampledPotential": "potentials",
    "build_family": "potentials",
    "negative_spectrum": "spectral1d",
    "refined_negative_spectrum": "spectral1d",
}

__all__ = [
    "__version__",
    "BoundReport",
    "BoundSpec",
    "NegativeSpectrum",
    "SampledPotential",
    "birman_schwinger",
    "bounds",
    "build_family",
    "fractional",
    "multidim",
    "negative_spectrum",
    "potentials",
    "refined_negative_spectrum",
    "reports",
    "scattering",
    "spectral1d",
]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
