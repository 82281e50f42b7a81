"""Links, instances, power assignments, and the instance file format.

Geometry is planar by default.  An instance may instead carry an explicit
symmetric distance matrix over all sender/receiver points (validated for
the triangle inequality on load), in which case link coordinates are kept
only as labels.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

TRIANGLE_TOL = 1e-9


def link_id(value) -> int:
    """``value`` read as a link id: an int, a numpy integer or an integral
    float, as a JSON file gives.  A bool, a fractional or non-finite number
    and a non-number are ValueErrors naming the value."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) or math.isfinite(value) and value == int(value)):
        return int(value)
    raise ValueError(f"link id {value!r} is not an integer")


def link_ids(values) -> np.ndarray:
    """``link_id`` of each of ``values``, as an int64 array; an integer
    array passes as it is, without the per-id test."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    return np.array([link_id(v) for v in values], dtype=np.int64)


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Link:
    """A sender/receiver pair with a weight and optional per-link SINR
    threshold and noise overrides."""

    id: int
    sender: Point
    receiver: Point
    weight: float = 1.0
    beta_override: Optional[float] = None
    noise_override: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "id", link_id(self.id))
        if self.id < 0:
            raise ValueError(f"link id must be nonnegative, got {self.id}")
        if self.weight < 0 or not math.isfinite(self.weight):
            raise ValueError(f"link {self.id}: weight must be a finite nonnegative real")
        if self.beta_override is not None and not 0 < self.beta_override < math.inf:
            raise ValueError(f"link {self.id}: beta override must be finite and positive")
        if self.noise_override is not None and not 0 <= self.noise_override < math.inf:
            raise ValueError(f"link {self.id}: noise override must be finite and nonnegative")


@dataclass(frozen=True)
class PrimarySet:
    """Already-admitted links with explicit, fixed transmit powers."""

    links: tuple
    powers: tuple

    def __post_init__(self):
        if len(self.links) != len(self.powers):
            raise ValueError("primaries and powers must have equal length")
        for link, p in zip(self.links, self.powers):
            if not math.isfinite(p):  # inf and nan are not valid JSON
                raise ValueError(f"primary {link.id}: power must be finite, got {p!r}")
            if not p > 0:
                raise ValueError(f"primary {link.id}: power must be positive, got {p!r}")
            if link.beta_override is not None or link.noise_override is not None:
                raise ValueError(f"primary {link.id}: takes no beta or noise override")

    def __len__(self):
        return len(self.links)


class DistanceMatrix:
    """Symmetric distances over instance points in file order:
    sender, receiver of each link, then of each primary."""

    def __init__(self, values):
        d = np.asarray(values, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.all(np.isfinite(d)):
            raise ValueError("distance matrix entries must be finite")
        if np.any(d < 0):
            raise ValueError("distance matrix entries must be nonnegative")
        if np.any(np.abs(np.diag(d)) > 0):
            raise ValueError("distance matrix diagonal must be zero")
        if np.max(np.abs(d - d.T)) > TRIANGLE_TOL:
            raise ValueError("distance matrix must be symmetric")
        # d[i,j] <= d[i,k] + d[k,j] for all triples, within tolerance
        p = d.shape[0]
        for k in range(p):
            via_k = d[:, k:k + 1] + d[k:k + 1, :]
            excess = d - via_k
            if np.max(excess) > TRIANGLE_TOL:
                i, j = np.unravel_index(np.argmax(excess), d.shape)
                raise ValueError(
                    f"triangle inequality violated: d[{i},{j}]={d[i, j]} > "
                    f"d[{i},{k}]+d[{k},{j}]={via_k[i, j]}"
                )
        self.values = d

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class Instance:
    """A set of links plus global propagation parameters.

    ``metric`` is either the string "euclidean" or a :class:`DistanceMatrix`
    over the points of all links (and primaries, if present).
    """

    links: tuple
    alpha: float
    beta: float = 1.0
    noise: float = 0.0
    metric: Union[str, DistanceMatrix] = "euclidean"
    primaries: Optional[PrimarySet] = None

    def __post_init__(self):
        for name in ("alpha", "beta", "noise"):  # inf and nan are not valid JSON
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta!r}")
        if not self.noise >= 0:
            raise ValueError(f"noise must be nonnegative, got {self.noise!r}")
        every = [*self.links, *(self.primaries.links if self.primaries is not None else ())]
        if len({lk.id for lk in every}) != len(every):
            raise ValueError("link ids (including primaries) must be distinct")
        if isinstance(self.metric, DistanceMatrix):
            expected = 2 * len(every)
            if self.metric.size != expected:
                raise ValueError(
                    f"distance matrix has {self.metric.size} points, expected {expected}"
                )
        elif self.metric != "euclidean":
            raise ValueError(f"unknown metric {self.metric!r}")
        # id -> (position in links-then-primaries order, link); the same
        # positions index the sender and receiver coordinates
        object.__setattr__(self, "_by_id", {lk.id: (p, lk) for p, lk in enumerate(every)})
        object.__setattr__(self, "_senders", np.array(
            [(lk.sender.x, lk.sender.y) for lk in every], dtype=float).reshape(-1, 2))
        object.__setattr__(self, "_receivers", np.array(
            [(lk.receiver.x, lk.receiver.y) for lk in every], dtype=float).reshape(-1, 2))
        for lk in every:
            if not self.length_of(lk.id) > 0:
                raise ValueError(f"link {lk.id}: length must be positive")

    @property
    def n(self) -> int:
        return len(self.links)

    def link(self, link_id: int) -> Link:
        try:
            return self._by_id[link_id][1]
        except KeyError:
            raise KeyError(f"unknown link id {link_id}") from None

    def _positions(self, link_ids) -> np.ndarray:
        try:
            return np.array([self._by_id[i][0] for i in link_ids], dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"unknown link id {exc.args[0]}") from None

    def distance(self, from_id: int, to_id: int) -> float:
        """Distance from ``from_id``'s sender to ``to_id``'s receiver."""
        a = self.link(from_id)
        b = self.link(to_id)
        if isinstance(self.metric, DistanceMatrix):
            i, j = self._by_id[from_id][0], self._by_id[to_id][0]
            return float(self.metric.values[2 * i, 2 * j + 1])
        return a.sender.distance_to(b.receiver)

    def length_of(self, link_id: int) -> float:
        return self.distance(link_id, link_id)

    def sr_matrix(self, from_ids: Sequence[int], to_ids: Sequence[int]) -> np.ndarray:
        """Matrix of sender(from) -> receiver(to) distances."""
        rows, cols = self._positions(from_ids), self._positions(to_ids)
        if isinstance(self.metric, DistanceMatrix):
            return self.metric.values[np.ix_(2 * rows, 2 * cols + 1)].copy()
        s, r = self._senders[rows], self._receivers[cols]
        return np.hypot(s[:, 0, None] - r[None, :, 0], s[:, 1, None] - r[None, :, 1])


@dataclass(frozen=True)
class PowerAssignment:
    """Length-based transmit power P = p0 * l**(tau * alpha), tau in [0, 1].

    Every such rule is non-decreasing in length (tau >= 0) and sub-linear,
    P / l**alpha = p0 * l**((tau - 1) * alpha) non-increasing (tau <= 1):
    the class the capacity guarantee assumes.  ``uniform`` (tau = 0),
    ``linear`` (tau = 1), ``mean`` (tau = 1/2) and ``exponent`` name its
    members.
    """

    p0: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        if not 0 < self.p0 < math.inf:
            raise ValueError("power requires a finite p0 > 0")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("power requires tau in [0, 1]")

    @classmethod
    def uniform(cls, p0: float = 1.0) -> "PowerAssignment":
        return cls(p0=p0)

    @classmethod
    def linear(cls) -> "PowerAssignment":
        return cls(tau=1.0)

    @classmethod
    def mean(cls) -> "PowerAssignment":
        return cls(tau=0.5)

    @classmethod
    def exponent(cls, tau: float) -> "PowerAssignment":
        return cls(tau=tau)

    def power(self, length, alpha: float):
        """Transmit power for a link of the given length (scalar or array)."""
        length = np.asarray(length, dtype=float)
        with np.errstate(over="ignore"):  # an infinite power is refused by its reader
            out = self.p0 * length ** (self.tau * alpha)
        return float(out) if out.ndim == 0 else out


def parse_power(text: str) -> PowerAssignment:
    """Parse a power assignment spec: uniform[:P0] | linear | mean | exp:tau."""
    if text.startswith("exp:"):
        return PowerAssignment.exponent(float(text[4:]))
    if text.startswith("uniform:"):
        return PowerAssignment.uniform(float(text[8:]))
    if text == "uniform":
        return PowerAssignment.uniform()
    if text == "linear":
        return PowerAssignment.linear()
    if text == "mean":
        return PowerAssignment.mean()
    raise ValueError(f"cannot parse power assignment {text!r}")


# ---------------------------------------------------------------------------
# Instance file format (JSON)

def instance_to_dict(instance: Instance) -> dict:
    d = {
        "alpha": instance.alpha,
        "beta": instance.beta,
        "noise": instance.noise,
    }
    if isinstance(instance.metric, DistanceMatrix):
        d["metric"] = {"matrix": instance.metric.values.tolist()}
    else:
        d["metric"] = "euclidean"
    links = []
    for lk in instance.links:
        entry = _link_entry(lk, weight=lk.weight)
        if lk.beta_override is not None:
            entry["beta"] = lk.beta_override
        if lk.noise_override is not None:
            entry["noise"] = lk.noise_override
        links.append(entry)
    d["links"] = links
    if instance.primaries is not None:
        d["primaries"] = [_link_entry(lk, power=p)
                          for lk, p in zip(instance.primaries.links, instance.primaries.powers)]
    return d


def _link_entry(lk: Link, **extra) -> dict:
    """A written link's id and endpoints, then ``extra``'s keys."""
    return {"id": lk.id, "sx": lk.sender.x, "sy": lk.sender.y,
            "rx": lk.receiver.x, "ry": lk.receiver.y, **extra}


_REQUIRED = object()


def _number(d: dict, field: str, where: str, default=_REQUIRED, cast=float):
    """``cast(d[field])``, or ``default`` when the field is absent.  A missing
    required field, a value that is not a JSON number (a string or a boolean
    included) and, for ``cast=int``, a fractional number are ValueErrors
    that name the field."""
    if field not in d:
        if default is _REQUIRED:
            raise ValueError(f"{where}: missing field {field!r}")
        return default
    value = d[field]
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        number = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}: field {field!r} must be a finite number, "
                         f"got {type(value).__name__}") from None
    if cast is int and number != value:
        raise ValueError(f"{where}: field {field!r} must be an integer, got {value!r}")
    return number


def _parse_link(entry: dict, where: str) -> Link:
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object, got {type(entry).__name__}")
    link_id = _number(entry, "id", where, cast=int)
    sx, sy, rx, ry = (_number(entry, f, where) for f in ("sx", "sy", "rx", "ry"))
    return Link(
        id=link_id,
        sender=Point(sx, sy),
        receiver=Point(rx, ry),
        weight=_number(entry, "weight", where, 1.0),
        beta_override=_number(entry, "beta", where, None),
        noise_override=_number(entry, "noise", where, None),
    )


def _list_field(d: dict, field: str) -> list:
    if not isinstance(d[field], list):
        raise ValueError(f"instance: field {field!r} must be a list, "
                         f"got {type(d[field]).__name__}")
    return d[field]


def instance_from_dict(d: dict) -> Instance:
    if not isinstance(d, dict):
        raise ValueError(f"instance: expected an object, got {type(d).__name__}")
    for field in ("alpha", "links"):
        if field not in d:
            raise ValueError(f"instance: missing field {field!r}")
    links = tuple(_parse_link(e, f"link #{i}")
                  for i, e in enumerate(_list_field(d, "links")))
    primaries = None
    if "primaries" in d and d["primaries"] is not None:
        plinks, powers = [], []
        for i, e in enumerate(_list_field(d, "primaries")):
            plinks.append(_parse_link(e, f"primary #{i}"))
            powers.append(_number(e, "power", f"primary #{i}"))
        primaries = PrimarySet(links=tuple(plinks), powers=tuple(powers))
    metric = d.get("metric", "euclidean")
    if isinstance(metric, dict):
        if "matrix" not in metric:
            raise ValueError("metric object must contain a 'matrix' field")
        try:
            metric = DistanceMatrix(metric["matrix"])
        except TypeError:
            raise ValueError("metric: 'matrix' must be a list of lists of numbers") from None
    return Instance(
        links=links,
        alpha=_number(d, "alpha", "instance"),
        beta=_number(d, "beta", "instance", 1.0),
        noise=_number(d, "noise", "instance", 0.0),
        metric=metric,
        primaries=primaries,
    )


def write_instance(instance: Instance, path) -> None:
    text = json.dumps(instance_to_dict(instance), indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_instance(path) -> Instance:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    return instance_from_dict(d)
