"""Run configuration, sample-period boundaries, and config hashing.

A run is driven by one JSON file; every key has a default so a config may
specify only what it overrides. Every output table records the hash of the
fully resolved configuration that produced it, less the keys that cannot
change a result (the output directory and the worker count).
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
from dataclasses import dataclass, field

from .errors import ConfigError, InputError

# The interpreter's builtin SHA-256, as the stdlib's random takes its
# SHA-512: hashlib would load OpenSSL's libcrypto, about 3.6 MB of every
# process, for a 12-character digest. The digest is the same either way.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # an interpreter built without them


def read_config(path) -> dict:
    """The JSON object in the config file ``path``.

    Raises InputError for an unreadable file and ConfigError for one that
    is not UTF-8, not JSON, or whose root is not an object.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object: {path}")
    return raw


def check_type(name: str, value, kind: type, *, nullable: bool = False) -> None:
    """Raise ConfigError unless the JSON ``value`` is a ``kind`` (or null,
    when ``nullable``). An int is also a float; a bool is neither."""
    if value is None and nullable:
        return
    kinds = {float: (int, float), list: (list, tuple)}.get(kind, kind)
    if not isinstance(value, kinds) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{name} must be {kind.__name__}{' or null' * nullable}, got {value!r}")


@dataclass(frozen=True)
class Periods:
    """Splits the sample into pre-crash / crash / post-crash date ranges."""

    pre_crash_end: dt.date
    crash_end: dt.date

    def __post_init__(self):
        if self.pre_crash_end >= self.crash_end:
            raise ConfigError(
                f"pre_crash_end {self.pre_crash_end} must precede crash_end {self.crash_end}"
            )

    @staticmethod
    def names() -> tuple[str, ...]:
        return ("pre-crash", "crash", "post-crash")

    def label(self, d: dt.date) -> str:
        if d <= self.pre_crash_end:
            return "pre-crash"
        if d <= self.crash_end:
            return "crash"
        return "post-crash"


@dataclass
class RunConfig:
    # inputs
    transactions: str | None = None
    cache: str | None = None
    eod_prices: str | None = None
    intraday_prices: str | None = None
    emotion: str | None = None
    capitalization: str | None = None
    index_id: str = "SZSC"
    # transactions schema
    columns: tuple[str, ...] = (
        "trade_date", "stock_id", "time", "price", "volume", "buy_serial", "sell_serial",
    )
    delimiter: str = ","
    has_header: bool = True
    # period boundaries
    pre_crash_end: dt.date = dt.date(2015, 6, 12)
    crash_end: dt.date = dt.date(2015, 7, 7)
    # statistical knobs
    bins: int = 40
    pseudo_count: float = 0.5
    min_corr_bars: int = 30
    min_fit_samples: int = 50
    max_lag: int = 5
    min_granger_minutes: int = 60
    malformed_threshold: float = 0.001
    serial_scope: str = "bar"
    tail_only_burstiness: bool = False
    return_mode: str = "vs-prev-close"
    # execution
    out_dir: str = "out"
    # accepted and validated but unused: panels are built in one process
    threads: int = 1
    seed: int = 7
    # synthetic scenario parameters (documented in the README)
    synth: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.serial_scope not in ("bar", "day"):
            raise ConfigError(f"serial_scope must be 'bar' or 'day': {self.serial_scope!r}")
        if self.return_mode not in ("vs-prev-close", "vs-prev-minute"):
            raise ConfigError(f"unknown return_mode: {self.return_mode!r}")
        for name, lo in (
            ("bins", 1),
            ("min_corr_bars", 2),
            ("min_fit_samples", 2),
            ("max_lag", 1),
            ("min_granger_minutes", 10),
            ("threads", 1),
            ("seed", 0),
        ):
            if getattr(self, name) < lo:
                raise ConfigError(f"{name} must be >= {lo}, got {getattr(self, name)}")
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be one character, got {self.delimiter!r}")
        if not 0 <= self.malformed_threshold <= 1:
            raise ConfigError(f"malformed_threshold must be in [0, 1]: {self.malformed_threshold}")
        if not 0 < self.pseudo_count < float("inf"):
            raise ConfigError(f"pseudo_count must be positive and finite: {self.pseudo_count}")

    @property
    def periods(self) -> Periods:
        return Periods(self.pre_crash_end, self.crash_end)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        return cls.from_dict(read_config(path))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        defaults = cls()
        kwargs = {}
        for key, value in raw.items():
            default = getattr(defaults, key)
            if isinstance(default, dt.date):
                try:
                    value = dt.date.fromisoformat(value)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{key} must be an ISO date: {value!r}") from exc
            else:
                # a key takes its default's JSON type; the path keys default to null
                kind = {type(None): str, tuple: list}.get(type(default), type(default))
                check_type(key, value, kind, nullable=default is None)
            if key == "columns":
                for name in value:
                    check_type("a columns entry", name, str)
                value = tuple(value)
            kwargs[key] = value
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def validate_paths(self, keys) -> None:
        """The input paths of ``keys`` must exist where configured.

        Commands pass the inputs they actually read: a config may also name
        outputs of an earlier subcommand (synth, ingest) that do not exist
        yet, and the cache is never checked because ingest creates it.
        """
        import os

        for key in keys:
            path = getattr(self, key)
            if path and not os.path.exists(path):
                raise InputError(f"configured {key} does not exist: {path}")

    #: keys that cannot change any result: where tables go, and the unused
    #: worker count
    _UNHASHED = ("out_dir", "threads")

    def to_canonical_json(self) -> str:
        """The keys that can change a result, as sorted compact JSON."""

        def encode(v):
            if isinstance(v, dt.date):
                return v.isoformat()
            if isinstance(v, tuple):
                return list(v)
            return v

        payload = {
            k: encode(v) for k, v in dataclasses.asdict(self).items() if k not in self._UNHASHED
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return sha256(self.to_canonical_json().encode()).hexdigest()[:12]
