"""Seeded synthetic Gaussian instances and channel embeddings.

All randomness flows through the counter-based Philox generator keyed by an
explicit 64-bit seed, so every artifact is reproducible from its recorded
seed alone.  The channel construction plants a low-dimensional signal pair
(s1, s2) in R^t into R^d via x = H s + noise, giving high-dimensional classes
whose discriminative structure is known by construction:

    x_k ~ N(H mu_k, H S_k H^T + noise_var * I).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ChannelRankFailure, DimensionMismatch, NonPositiveInput
from .gaussian import GaussianParams


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox generator for an explicit 64-bit seed."""
    return np.random.Generator(np.random.Philox(int(seed)))


def sub_seeds(seed: int, n: int) -> list[int]:
    """n independent 64-bit seeds spawned from one master seed."""
    state = np.random.SeedSequence(int(seed)).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]


@dataclass(frozen=True)
class SpdSpec:
    """Recipe for one random SPD matrix: dimension, eigenvalue range, seed."""

    dim: int
    eig_min: float
    eig_max: float
    seed: int

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {self.dim}")
        if self.eig_min <= 0.0:
            raise NonPositiveInput(f"eig_min must be > 0, got {self.eig_min}")
        if self.eig_max < self.eig_min:
            raise NonPositiveInput(
                f"eig_max must be >= eig_min, got [{self.eig_min}, {self.eig_max}]"
            )


@dataclass(frozen=True)
class ChannelSpec:
    """Recipe for a random t -> d channel with isotropic noise."""

    t: int
    d: int
    noise_var: float
    seed: int

    def __post_init__(self):
        if self.t < 1:
            raise DimensionMismatch(f"t must be >= 1, got {self.t}")
        if self.d < self.t:
            raise DimensionMismatch(f"need d >= t, got d={self.d} < t={self.t}")
        if self.noise_var <= 0.0:
            raise NonPositiveInput(f"noise_var must be > 0, got {self.noise_var}")


def _random_spd(rng: np.random.Generator, dim: int, eig_min: float, eig_max: float) -> np.ndarray:
    if eig_min == eig_max:
        return eig_min * np.eye(dim)
    q, rmat = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(rmat))
    signs[signs == 0.0] = 1.0
    q = q * signs
    lam = np.exp(rng.uniform(np.log(eig_min), np.log(eig_max), size=dim))
    m = (q * lam) @ q.T
    return (m + m.T) / 2.0


def random_spd(spec: SpdSpec) -> np.ndarray:
    """Random SPD matrix with log-uniform eigenvalues in [eig_min, eig_max].

    The eigenbasis is the Q factor of a seeded standard normal matrix
    (sign-fixed for determinism).  A degenerate range eig_min == eig_max == c
    returns exactly c * I.
    """
    rng = rng_from_seed(spec.seed)
    return _random_spd(rng, spec.dim, spec.eig_min, spec.eig_max)


def random_class_params(
    dim: int,
    eig_min: float,
    eig_max: float,
    mean_scale: float,
    seed: int,
) -> GaussianParams:
    """Random Gaussian class: mean ~ mean_scale * N(0, I), covariance random SPD.

    mean_scale directly steers the mean/covariance divergence split of a
    random pair: scaling both means by c scales d_mu by c^2 and leaves
    d_sigma untouched.
    """
    if dim < 1:
        raise DimensionMismatch(f"dim must be >= 1, got {dim}")
    rng = rng_from_seed(seed)
    mean = mean_scale * rng.standard_normal(dim)
    cov = _random_spd(rng, dim, eig_min, eig_max)
    return GaussianParams(mean, cov)


def embed_channel(
    s1: GaussianParams,
    s2: GaussianParams,
    chan: ChannelSpec,
) -> tuple[GaussianParams, GaussianParams, np.ndarray]:
    """Embed a signal pair through a random full-column-rank channel.

    Draws H (d x t, standard normal entries) from the channel seed,
    redrawing up to 5 times if H is numerically rank deficient, and returns
    the two observed-space classes N(H mu_k, H S_k H^T + noise_var I)
    together with H.  By data processing, every divergence downstream of the
    embedding is bounded by the signal-space divergence.
    """
    if s1.dim != s2.dim:
        raise DimensionMismatch(f"signal dimensions differ: {s1.dim} vs {s2.dim}")
    if s1.dim != chan.t:
        raise DimensionMismatch(f"signal dimension {s1.dim} does not match channel t={chan.t}")
    rng = rng_from_seed(chan.seed)
    h = None
    for _ in range(5):
        candidate = rng.standard_normal((chan.d, chan.t))
        if linalg.numerical_rank(candidate) == chan.t:
            h = candidate
            break
    if h is None:
        raise ChannelRankFailure(
            f"no full-rank {chan.d} x {chan.t} channel in 5 attempts (seed {chan.seed})"
        )
    noise = chan.noise_var * np.eye(chan.d)

    def push(s: GaussianParams) -> GaussianParams:
        cov = h @ s.covariance @ h.T + noise
        return GaussianParams(h @ s.mean, (cov + cov.T) / 2.0)

    return push(s1), push(s2), h


def sample(params: GaussianParams, n: int, seed: int) -> np.ndarray:
    """n independent draws from N(mean, covariance), as rows; seeded."""
    if n < 1:
        raise NonPositiveInput(f"n must be >= 1, got {n}")
    rng = rng_from_seed(seed)
    z = rng.standard_normal((int(n), params.dim))
    return params.mean + z @ params.factor.T
