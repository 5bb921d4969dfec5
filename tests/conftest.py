import os
from pathlib import Path

import pytest

import ltlab
from ltlab import potentials, scattering, spectral1d


@pytest.fixture(scope="session")
def child_env():
    """child_env(threads=None, *paths): the environment of a child interpreter that
    imports this ltlab, `src` then paths before any PYTHONPATH given; with threads,
    OpenBLAS and OpenMP at that count."""

    def build(threads: int | None = None, *paths) -> dict:
        env = dict(os.environ)
        if threads is not None:
            env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        source = [str(Path(ltlab.__file__).resolve().parents[1]), *map(str, paths)]
        env["PYTHONPATH"] = os.pathsep.join(source + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return env

    return build


@pytest.fixture(scope="session")
def pt1():
    return potentials.build_family("poschl-teller", nu=1.0)


@pytest.fixture(scope="session")
def pt2():
    return potentials.build_family("poschl-teller", nu=2.0)


@pytest.fixture(scope="session")
def random_2x2():
    return potentials.build_family("random-smooth", matrix_dim=2, seed=0)


@pytest.fixture(scope="session")
def pt1_spectrum(pt1):
    box = spectral1d.default_box(pt1)
    return spectral1d.refined_negative_spectrum(pt1, box, 800)


@pytest.fixture(scope="session")
def pt2_spectrum(pt2):
    box = spectral1d.default_box(pt2)
    return spectral1d.refined_negative_spectrum(pt2, box, 800)


@pytest.fixture(scope="session")
def pt1_scattering(pt1):
    return scattering.compute_scattering(pt1)
