"""Fixtures shared by the test modules."""

import math

import numpy as np
import pytest

# The np.linalg functions vqr calls.
COUNTED = ("eigh", "eigvalsh", "svd", "qr")


class LinalgCounts:
    """The shape of the first argument of each call to a COUNTED function,
    by function name, in call order."""

    def __init__(self):
        self.shapes = {name: [] for name in COUNTED}

    def calls(self) -> dict:
        return {name: len(shapes) for name, shapes in self.shapes.items()}

    def matrices(self) -> dict:
        """The matrices each function took: the product of the leading dims
        of each call's first argument, summed."""
        return {name: sum(math.prod(shape[:-2]) for shape in shapes)
                for name, shapes in self.shapes.items()}

    def reset(self) -> None:
        for shapes in self.shapes.values():
            shapes.clear()


@pytest.fixture
def linalg_counts(monkeypatch) -> LinalgCounts:
    """Count the calls and matrices of each COUNTED np.linalg function from
    here to the end of the test; reset() starts the count again."""
    counts = LinalgCounts()

    def counting(name, f):
        def wrapper(*args, **kwargs):
            counts.shapes[name].append(np.shape(args[0]))
            return f(*args, **kwargs)
        return wrapper

    for name in COUNTED:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts
