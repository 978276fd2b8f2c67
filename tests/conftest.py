import numpy as np
import pytest

from adaptbus.plant import PlantModel


def random_roots(rng, deg, rmax):
    """deg roots inside the disk of radius rmax, complex pairs kept conjugate."""
    roots = []
    while len(roots) < deg:
        if deg - len(roots) >= 2 and rng.random() < 0.5:
            r = rmax * np.sqrt(rng.random())
            th = rng.uniform(0, np.pi)
            z = r * np.exp(1j * th)
            roots += [z, np.conj(z)]
        else:
            roots.append(rng.uniform(-rmax, rmax))
    return roots[:deg]


def poly_from_roots(rng, deg, rmax):
    """Monic coefficient vector (1, c1, ..., c_deg) with all roots inside rmax."""
    if deg == 0:
        return np.array([1.0])
    return np.real(np.poly(random_roots(rng, deg, rmax)))


def make_random_plant(rng, m1, m2, pole_radius=0.9, zero_radius=0.8):
    """Random plant with stable poles and minimum-phase zeros."""
    a = poly_from_roots(rng, m1, pole_radius)[1:]
    b0 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    b = b0 * poly_from_roots(rng, m2, zero_radius)
    return PlantModel(a=a, b=b)


def predictor_identity_error(model, d, u, dist):
    """Max per-sample gap between the difference-form trajectory and the
    d-step prediction form evaluated along it (zero initial conditions)."""
    from tests.plant_reference import simulate_difference

    T = len(u)
    _, y = simulate_difference(model.a, model.b, d, u, dist, np.zeros(0), np.zeros(0))
    alpha, beta, F = model.predictor(d)
    al, be, f = alpha.asarray(), beta.asarray(), F.asarray()
    pad = max(len(al), len(be), len(f)) + d

    def at(arr, idx):
        return arr[idx] if 0 <= idx < len(arr) else 0.0

    worst = 0.0
    for k in range(0, T - d + 1):
        pred = sum(al[i] * at(y, k - i) for i in range(len(al)))
        pred += sum(be[j] * at(u, k - j) for j in range(len(be)))
        pred += sum(f[m] * at(dist, k - m) for m in range(len(f)))
        worst = max(worst, abs(y[k + d] - pred))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
