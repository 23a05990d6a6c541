"""Network topology, contact visibility over time, and channel sampling.

All capacities are handled internally as data volume per slot (Mbit/slot).
Configured link rates in Mbit/s are multiplied by the slot length once, when
channel states are sampled; every module downstream works in volume units.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ParameterError, PlanFormatError

# Cells of the largest float array numpy can describe; a larger dense
# tensor over slots, targets, satellites and destinations cannot be made.
_MAX_CELLS = np.iinfo(np.intp).max // np.dtype(float).itemsize


def _finite(value, name: str, error=ConfigError) -> float:
    """``value`` as a finite float, else ``error``. This and ``_integer``
    are the package's only checks on numbers from outside: JSON's NaN and
    Infinity are rejected, and so are strings and bools, which ``float``
    would otherwise read as numbers."""
    number = math.nan
    if not isinstance(value, (str, bytes, bool, np.bool_)):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if not math.isfinite(number):
        raise error(f"{name} must be finite and numeric, got {value!r}")
    return number


def _integer(
    value, name: str, low: int = 1, high: float = math.inf, error=ConfigError
) -> int:
    """``value`` as an integer in [low, high], else ``error``; integral
    floats such as 2.0 pass, 2.7 is rejected instead of truncated, and so
    is a bool."""
    exact = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    number = value if exact else _finite(value, name, error)
    if number != int(number) or not low <= number <= high:
        bounds = f">= {low}" if high == math.inf else f"between {low} and {high}"
        raise error(f"{name} must be an integer {bounds}, got {value!r}")
    return int(number)


def _as_tuple(value, n: int, name: str) -> tuple[float, ...]:
    """Broadcast a scalar to length n, or validate an explicit sequence."""
    if np.isscalar(value):
        return (_finite(value, name),) * n
    out = tuple(_finite(v, name) for v in value)
    if len(out) != n:
        raise ConfigError(f"{name} must have length {n}, got {len(out)}")
    return out


@dataclass(frozen=True)
class NetworkConfig:
    """Dimensions and control parameters of one scheduling scenario.

    Attributes
    ----------
    num_targets : number of ground targets (one data flow per target).
    num_eos : number of observation satellites.
    num_destinations : number of sink nodes (relay satellites / stations).
    transceivers : concurrent-transmission capacity of each destination.
    rate_floors : minimum long-term average arrival volume per flow,
        Mbit/slot. Zero disables the floor for that flow.
    compression_set : allowed compression ratios, strictly decreasing,
        all in (0, 1].
    control_factor : weight of utility against queue backlog in the
        online scheduler. Larger values favour utility.
    slot_length : slot duration in seconds (rate-to-volume conversion).
    horizon : number of slots simulated.
    rng_seed : default seed for runs that do not specify one.
    """

    num_targets: int
    num_eos: int
    num_destinations: int
    transceivers: int | tuple[int, ...] = 1
    rate_floors: float | tuple[float, ...] = 0.0
    compression_set: tuple[float, ...] = (2 / 3, 1 / 2, 1 / 3, 1 / 4)
    control_factor: float = 8000.0
    slot_length: float = 1.0
    horizon: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("num_targets", "num_eos", "num_destinations", "horizon"):
            count = _integer(getattr(self, name), name, high=_MAX_CELLS)
            object.__setattr__(self, name, count)
        # Every dense tensor, the ledger's flows over slots, satellites,
        # destinations and targets the largest, has at most this many cells.
        cells = (self.horizon + 1) * self.num_eos * self.num_destinations
        cells *= self.num_targets
        if cells > _MAX_CELLS:
            raise ConfigError(
                f"horizon, num_targets, num_eos and num_destinations give dense "
                f"tensors of {cells} cells, more than numpy can index ({_MAX_CELLS})"
            )

        if np.isscalar(self.transceivers):
            trx = (_integer(self.transceivers, "transceivers"),) * self.num_destinations
        else:
            trx = tuple(_integer(m, "transceivers") for m in self.transceivers)
        if len(trx) != self.num_destinations:
            raise ConfigError(
                f"transceivers must have one entry per destination "
                f"({self.num_destinations}), got {len(trx)}"
            )
        object.__setattr__(self, "transceivers", trx)

        floors = _as_tuple(self.rate_floors, self.num_targets, "rate_floors")
        if any(a < 0 for a in floors):
            raise ConfigError("rate_floors must be nonnegative")
        object.__setattr__(self, "rate_floors", floors)

        ratios = tuple(_finite(r, "compression_set") for r in self.compression_set)
        if not ratios:
            raise ConfigError("compression_set must be nonempty")
        if ratios[0] > 1.0 or ratios[-1] <= 0.0:
            raise ConfigError(
                "compression_set must lie in (0, 1], largest ratio first"
            )
        if any(hi <= lo for hi, lo in zip(ratios, ratios[1:])):
            raise ConfigError("compression_set must be strictly decreasing")
        object.__setattr__(self, "compression_set", ratios)

        for name in ("control_factor", "slot_length"):
            value = _finite(getattr(self, name), name)
            if value <= 0:
                raise ConfigError(f"{name} must be positive")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "rng_seed", _integer(self.rng_seed, "rng_seed", 0))


def _check_distribution(support, probs, name: str):
    support = tuple(_finite(v, f"{name}_support") for v in support)
    probs = tuple(_finite(p, f"{name}_probs") for p in probs)
    if len(support) != len(probs) or not support:
        raise ConfigError(f"{name}: support and probabilities must align")
    if any(v < 0 for v in support):
        raise ConfigError(f"{name}: support values must be nonnegative")
    if any(p < 0 for p in probs):
        raise ConfigError(f"{name}: probabilities must be nonnegative")
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ConfigError(f"{name}: probabilities must sum to 1")
    return support, probs


@dataclass(frozen=True)
class ChannelModel:
    """Finite-support distributions of the per-contact link rates (Mbit/s)."""

    obs_support: tuple[float, ...] = (600.0, 800.0, 1000.0)
    obs_probs: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)
    trans_support: tuple[float, ...] = (0.0, 200.0, 400.0)
    trans_probs: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        s, p = _check_distribution(self.obs_support, self.obs_probs, "obs")
        object.__setattr__(self, "obs_support", s)
        object.__setattr__(self, "obs_probs", p)
        s, p = _check_distribution(self.trans_support, self.trans_probs, "trans")
        object.__setattr__(self, "trans_support", s)
        object.__setattr__(self, "trans_probs", p)

    @cached_property
    def _lookup(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The observation and transmission distributions as (support,
        CDF) arrays, the CDF built as ``Generator.choice`` builds it from
        ``p``: the cumulative sum divided by its last entry."""

        def table(support, probs):
            cdf = np.cumsum(probs)
            cdf /= cdf[-1]
            return np.asarray(support), cdf

        return (
            table(self.obs_support, self.obs_probs),
            table(self.trans_support, self.trans_probs),
        )


@dataclass(frozen=True)
class ContactPlan:
    """Boolean visibility tensors: (T, I, K) for observation contacts
    between targets and satellites, (T, K, N) for transmission contacts
    between satellites and destinations."""

    obs_visible: np.ndarray
    trans_visible: np.ndarray

    @property
    def horizon(self) -> int:
        return self.obs_visible.shape[0]


@dataclass(frozen=True)
class ChannelState:
    """Realized per-slot capacities in Mbit/slot.

    B[i, k] is the observation capacity of the target-i / satellite-k
    contact; C[k, n] the transmission capacity of the satellite-k /
    destination-n contact. Entries are zero wherever no contact exists.
    """

    B: np.ndarray
    C: np.ndarray


def load_contact_plan(path, config: NetworkConfig) -> ContactPlan:
    """Read a contact plan from a text file.

    One record per line, comma-separated, inclusive 0-based slot range:

        obs,<target>,<eos>,<t_start>,<t_end>
        trans,<eos>,<dest>,<t_start>,<t_end>

    Blank lines and lines starting with '#' are skipped. Windows reaching
    outside [0, horizon) are clipped with a warning.
    """
    T, I, K, N = (
        config.horizon,
        config.num_targets,
        config.num_eos,
        config.num_destinations,
    )
    obs = np.zeros((T, I, K), dtype=bool)
    trans = np.zeros((T, K, N), dtype=bool)

    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in _numbered_lines(fh):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 5:
                raise PlanFormatError(
                    f"line {line_no}: expected 5 fields, got {len(parts)}"
                )
            kind = parts[0]
            try:
                a, b, t0, t1 = (int(p) for p in parts[1:])
            except ValueError as exc:
                raise PlanFormatError(f"line {line_no}: {exc}") from None
            if t0 > t1:
                raise PlanFormatError(
                    f"line {line_no}: window start {t0} after end {t1}"
                )
            if kind == "obs":
                tensor, da, db = obs, I, K
            elif kind == "trans":
                tensor, da, db = trans, K, N
            else:
                raise PlanFormatError(
                    f"line {line_no}: unknown record type {kind!r}"
                )
            if not (0 <= a < da and 0 <= b < db):
                raise ConfigError(
                    f"line {line_no}: indices ({a},{b}) outside the "
                    f"configured {da}x{db} {kind} grid"
                )
            c0, c1 = max(t0, 0), min(t1, T - 1)
            if (c0, c1) != (t0, t1):
                warnings.warn(
                    f"line {line_no}: window [{t0},{t1}] clipped to "
                    f"[{c0},{c1}] for horizon {T}",
                    stacklevel=2,
                )
            if c0 <= c1:
                tensor[c0 : c1 + 1, a, b] = True

    return ContactPlan(obs_visible=obs, trans_visible=trans)


def _numbered_lines(fh):
    """The lines of the UTF-8 text file `fh`, numbered from 1. Bytes that
    are not UTF-8 are a PlanFormatError that names their line."""
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        # The text reader decodes in chunks, so the error's offset is not
        # the file's; decoding the whole file finds the line.
        fh.buffer.seek(0)
        data = fh.buffer.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise PlanFormatError(
                f"line {line_no}: not UTF-8 text ({exc.reason})"
            ) from None
        raise


# Periods stay far enough inside int64 that phases plus slot indices do
# not overflow.
_MAX_PERIOD = 2**62


def generate_synthetic_plan(
    config: NetworkConfig, period: int, duty: float, offset_seed: int
) -> ContactPlan:
    """Build a periodic visibility plan with a seeded phase per pair.

    Each target-satellite and satellite-destination pair is visible for
    ``round(duty * period)`` consecutive slots out of every ``period``,
    shifted by a per-pair offset drawn from ``offset_seed``. This mimics
    the recurring passes of a low-orbit constellation without doing any
    orbit propagation; the scheduler only ever consumes the booleans.

    ``period`` must be an integer in 1..2**62 and ``offset_seed`` an
    integer >= 0 (integral floats such as 4.0 count); anything else,
    including a non-integral value, raises ``ParameterError`` with a
    message that begins with the argument's name.
    """
    period = _integer(period, "period", 1, _MAX_PERIOD, ParameterError)
    duty = _finite(duty, "duty", ParameterError)
    if not (0.0 < duty <= 1.0):
        raise ParameterError(f"duty must be in (0, 1], got {duty}")
    offset_seed = _integer(offset_seed, "offset_seed", 0, error=ParameterError)

    T, I, K, N = (
        config.horizon,
        config.num_targets,
        config.num_eos,
        config.num_destinations,
    )
    window = int(round(duty * period))
    rng = np.random.default_rng(offset_seed)
    obs_phase = rng.integers(0, period, size=(I, K))
    trans_phase = rng.integers(0, period, size=(K, N))

    ts = np.arange(T)
    obs = ((ts[:, None, None] + obs_phase[None, :, :]) % period) < window
    trans = ((ts[:, None, None] + trans_phase[None, :, :]) % period) < window
    return ContactPlan(obs_visible=obs, trans_visible=trans)


def sample_channels(
    plan: ContactPlan,
    model: ChannelModel,
    t: int,
    rng: np.random.Generator,
    tau: float = 1.0,
) -> ChannelState:
    """Draw one slot's capacity matrices.

    Every visible pair gets an independent draw from the configured rate
    distribution, scaled by ``tau`` into Mbit/slot; invisible pairs are
    zero. Draws consume the generator in a fixed order, so a fixed seed
    replays bitwise-identical sequences. One ``rng.random`` call draws
    I*K + K*N doubles, and each is looked up on the right side of its
    distribution's CDF: the same doubles, in the same order, and the same
    lookup as ``Generator.choice(..., p=...)`` called for the (I, K) and
    then the (K, N) draws.
    """
    T = plan.horizon
    if not (0 <= t < T):
        raise ParameterError(f"slot {t} outside horizon {T}")
    I, K = plan.obs_visible.shape[1:]
    N = plan.trans_visible.shape[2]

    (obs_values, obs_cdf), (trans_values, trans_cdf) = model._lookup
    u = rng.random(I * K + K * N)
    obs_draw = obs_values[obs_cdf.searchsorted(u[: I * K], side="right")]
    trans_draw = trans_values[trans_cdf.searchsorted(u[I * K:], side="right")]
    B = np.where(plan.obs_visible[t], obs_draw.reshape(I, K) * tau, 0.0)
    C = np.where(plan.trans_visible[t], trans_draw.reshape(K, N) * tau, 0.0)
    return ChannelState(B=B, C=C)
