import pytest
from hypothesis import settings

from andlab.discretize import Ensemble, GridSpec, assemble_hamiltonian, empty_configuration
from andlab.model import Bernoulli, BoxSpec, SiteProfile, sample_configuration

# CI runs the suite with --hypothesis-profile=ci: the same examples on every
# run (each test's own max_examples kept), so a failing run reproduces locally
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def profile():
    return SiteProfile()


def make_box(d, L, center=None):
    return BoxSpec(d, tuple([0.0] * d) if center is None else center, float(L))


def assemble(box, n=4, boundary="dirichlet", config=None, profile=None,
             v_per=None):
    if profile is None:
        profile = SiteProfile()
    if config is None:
        config = empty_configuration(box)
    return assemble_hamiltonian(box, GridSpec(n, boundary), profile, config, v_per)


def ensemble(n=4, profile=None, seed=0):
    """Bernoulli(1/2) couplings on a Dirichlet mesh of ``n`` nodes per unit."""
    return Ensemble(Bernoulli(0.5), GridSpec(n), SiteProfile() if profile is None else profile,
                    root_seed=seed)


def random_hamiltonian(d, L, n, dist, seed, trial=0, profile=None):
    box = make_box(d, L)
    cfg = sample_configuration(dist, box, None, seed, trial)
    return assemble(box, n=n, config=cfg, profile=profile), cfg
