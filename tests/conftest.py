from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_matrix_fixture(p: int, variant_name: str) -> np.ndarray:
    text = (FIXTURES / f"weighted_p{p}_{variant_name}.csv").read_text()
    return np.array(
        [[int(v) for v in line.split(",")] for line in text.splitlines()],
        dtype=np.int8,
    )


def load_sigma_fixture(p: int) -> str:
    return (FIXTURES / f"sigma_p{p}.tsv").read_text()


def swap_two_images(table: np.ndarray, k: int) -> np.ndarray:
    """Copy of the map table deleting k with the images of two kept points
    exchanged: still a bijection, so only the identities can break."""
    kept = [s for s in range(table.size) if s != k - 1]
    a, b = kept[1], kept[-2]
    out = table.copy()
    out[[a, b]] = out[[b, a]]
    return out
