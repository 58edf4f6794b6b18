"""``nomial``: one inclusion-exclusion sum, each term stepped from the last.

C_N(K, w) = sum_j (-1)^j C(K, j) C(w - jN + K - 1, K - 1) over j <= w // N,
read at w = min(i, T - i).  These tests count its steps, w // N of them
after the first term, and hold it against entry w of one run of the row
recurrence, at w up to 49,000.  ``tests/test_mirrored_rows.py`` holds it
against the window on every triple with N <= 8 and K <= 12.
"""

import math

import pytest

from discrete_boltzmann import nomial
from discrete_boltzmann import nomials
from discrete_boltzmann.nomials import _row


@pytest.mark.parametrize("n, k, i", [
    (1, 0, 0), (1, 7, 0), (5, 1, 3), (9, 6, 8), (4, 30, 60), (30, 2, 40), (2, 4000, 2000),
    (1000, 3, 1500), (100, 400, 19800), (200, 800, 158000), (50, 2000, 49000),
])
def test_one_step_per_whole_n_below_w(monkeypatch, n, k, i):
    """Each later term costs two falling products, the first term none, and
    the sum equals entry w of one run of the row recurrence."""
    products = []

    def counted(m, r):
        products.append(r)
        return math.perm(m, r)

    monkeypatch.setattr(nomials, "perm", counted)
    value = nomial(n, k, i)
    w = min(i, (n - 1) * k - i)
    assert len(products) == 2 * (w // n)
    assert set(products) <= {min(n, k - 1)}
    assert value == _row(n, k, w)[w]
