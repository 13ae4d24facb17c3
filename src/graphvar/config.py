"""Run configuration: defaults, a flat key=value file format, and overrides.

Config files are plain text, one `key = value` per line, `#` comments.
Values are parsed as JSON where possible (numbers, booleans, lists, strings
in quotes) and fall back to the bare string, so `model = edge-flip` and
`p_grid = [0.2, 0.1]` both work; a `#` inside a JSON value starts no
comment.  RunConfig alone validates, so a flag, a config line and a library
call obey the same rules: each field has its type (an int passes as a float,
a bool or a numpy integer is no int, a list is stored as a tuple), floats are
finite, and values lie in range.  A config line is checked on its own and a
refused one is a DataError naming its line; no rule spans two fields, so
lines accepted one at a time are accepted together."""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass

from .density import LEVEL_HARD_CAP, weight_family
from .graphs import DataError
from .process import MODELS, check_vertex_count


@dataclass(frozen=True)
class RunConfig:
    model: str = "edge-flip"
    vertices: int = 64
    rate: float = 2.0
    init_density: float = 0.5
    horizon: float = 1.0
    seed: int = 0
    boost_factor: float = 10.0
    p_grid: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    m_grid: tuple[int, ...] | None = None
    alphas: tuple[float, ...] = (2.5, 3.0)
    n_max: int = 3
    weight_family: str = "two_pow_neg_nsq"
    k_perm: int = 200
    k_inj: int = 100_000
    exact_budget: int = 10**7

    def __post_init__(self) -> None:
        for name, hint in _FIELD_TYPES.items():
            value = getattr(self, name)
            if name in _TUPLE_KEYS and isinstance(value, list):
                value = tuple(value)
                object.__setattr__(self, name, value)
            if not _conforms(value, hint):
                raise ValueError(f"{name} must be of type {RunConfig.__annotations__[name]}, "
                                 f"got {value!r}")
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.vertices < 2:
            raise ValueError("vertices must be at least 2")
        check_vertex_count(self.vertices)
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        if not (0.0 <= self.init_density <= 1.0):
            raise ValueError("init_density must lie in [0, 1]")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.p_grid or any(not (0.0 < p < 1.0) for p in self.p_grid):
            raise ValueError("p_grid values must lie strictly between 0 and 1")
        if self.m_grid is not None and (not self.m_grid or any(m < 2 for m in self.m_grid)):
            raise ValueError("m_grid must be nonempty, with windows of at least 2")
        if any(a <= 0 for a in self.alphas):
            raise ValueError("alphas must be positive")
        if not 1 <= self.n_max <= LEVEL_HARD_CAP:
            raise ValueError(f"n_max must lie in [1, {LEVEL_HARD_CAP}]")
        if self.k_perm < 2:
            raise ValueError("k_perm must be at least 2")
        if self.k_inj < 1:
            raise ValueError("k_inj must be at least 1")
        if self.exact_budget < 1:
            raise ValueError("exact_budget must be positive")
        weight_family(self.weight_family)  # raises on an unknown name

    def generator(self) -> tuple[str, dict]:
        """The model name and the `simulate` params this configuration describes."""
        if self.model == "graphon-jump":
            return self.model, {"grids": [[[self.init_density]]], "global_rate": self.rate}
        return self.model, {"rate": self.rate, "init_density": self.init_density,
                            "boost_factor": self.boost_factor}

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}


_FIELD_TYPES = typing.get_type_hints(RunConfig)
_TUPLE_KEYS = {"p_grid", "m_grid", "alphas"}
_JSON = json.JSONDecoder()


def _conforms(value, hint) -> bool:
    """Whether a config value has the field type `hint`; an int is a float."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_conforms(value, arm) for arm in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, tuple) and all(_conforms(v, item) for v in value)
    if hint is type(None):
        return value is None
    if isinstance(value, bool):  # an int to isinstance, but only a bool field takes it
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines into a dict of RunConfig fields."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{source}: line {lineno}: expected 'key = value'")
        key = line.partition("=")[0].strip()
        value = raw.partition("=")[2].strip()
        if key not in _FIELD_TYPES:
            raise DataError(
                f"{source}: line {lineno}: unknown key {key!r}; "
                f"known keys: {', '.join(sorted(_FIELD_TYPES))}"
            )
        try:  # a '#' inside a JSON value, as in ["#"], starts no comment
            parsed, end = _JSON.raw_decode(value)
            if value[end:].strip()[:1] not in ("", "#"):
                raise json.JSONDecodeError("extra data", value, end)
        except json.JSONDecodeError:
            parsed = value.split("#", 1)[0].strip()  # bare string, e.g. model = edge-flip
        except (ValueError, RecursionError):  # over 4300 digits, or nested too deeply
            raise DataError(f"{source}: line {lineno}: value is too long or too deep") from None
        try:  # the value on its own, other fields at their defaults
            out[key] = getattr(RunConfig(**{key: parsed}), key)
        except ValueError as exc:
            raise DataError(f"{source}: line {lineno}: {exc}") from None
        except RecursionError:  # the message's repr of a value nested almost too deeply
            raise DataError(f"{source}: line {lineno}: value is too long or too deep") from None
    return out


def load_config(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {lineno}: byte is not UTF-8") from None
    return parse_config_text(text, source=str(path))


def resolve_config(
    file: str | None = None, overrides: dict | None = None
) -> RunConfig:
    """Defaults, then config-file values, then non-None overrides."""
    merged: dict = {}
    if file is not None:
        merged.update(load_config(file))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        merged[key] = value
    return RunConfig(**merged)


def parse_float_list(text: str) -> tuple[float, ...]:
    """Comma-separated floats from a CLI flag."""
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
