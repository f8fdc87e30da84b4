"""Experiment configuration: flat ``section.key = value`` text files.

The format is line-oriented: one ``key = value`` assignment per line,
``#`` starts a comment, blank lines are ignored.  Keys are dotted
(``design.omega``), values are typed per the schema below, and unknown
keys are rejected outright so typos cannot silently fall back to
defaults.  Integer-list values are comma separated (``250,500,1000``).

Derived values: the sample count is always ``ceil(n_factor * s_star *
ln(d))``, the operator sparsity defaults to ``2 * s_star``, and the grid
defaults to ``s_star`` scaled by {1, 4/3, 5/3, 2, 7/3} mirroring the
benchmark grid pattern.  The fixed rule's step 1/L_hat and the stop
tolerance 1e-12 (1 + |f_hat|) are worked out by the optimizer, and `check`
tests its constants at the operator sparsity, so none of them is a key.

Each `SCHEMA` entry states what its key accepts: a lower bound (held by
every entry of a list) or a tuple of choices.  `resolve_config` rejects a
key that is not in `SCHEMA`, then enforces those in one loop, after the
type its tag names (`_TAGS`: a bool is no number) and finiteness of
every float, with the entries of every list distinct; then
the rules that tie keys together: ``s_star``, ``operator.s`` and each grid
sparsity at most ``design.d``, ``omega`` in [0, 1), ``sigma > 0`` for the
linear family, and a nonempty seed list.  Every error names its key.

`schema_text` renders the shipped ``config-schema.txt``, accepted column
included, from the same table.
"""

import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .objectives import LINEAR, LOGISTIC
from .optimizer import CLASSIC_POLYAK, FIXED, SPARSE_POLYAK, WIDTH_2S, WIDTH_S, default_ht_width
from .synthdata import DesignSpec, NoiseSpec
from .thresholding import HT, RT


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


_GRID_PATTERN = (1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0, 7.0 / 3.0)
_COMPARE = {">=": operator.ge, ">": operator.gt}


def _intlist(raw: str) -> list[int]:
    """Comma-separated ints; an empty value is the empty list."""
    if not raw:
        return []
    return [int(part) for part in raw.split(",")]


# tag -> (parser of a file value, type of a value or of each intlist entry); a float also takes an int
_TAGS = {"int": (int, int), "float": (float, (int, float)), "str": (str, str), "intlist": (_intlist, int)}

# key -> (type tag, default, accepted, help).  accepted is a lower bound ("> 0", ">= 1"),
# on every entry of an intlist, whose entries are also distinct; a tuple of choices;
# or None where a spec or a cross-field rule in resolve_config checks the key.
SCHEMA = {
    "design.d": ("int", 1000, ">= 1", "ambient dimension"),
    "design.omega": ("float", 0.5, None, "AR(1) feature correlation in [0, 1)"),
    "design.n_factor": ("float", 5.0, "> 0", "sample count n = ceil(n_factor * s_star * ln d)"),
    "truth.s_star": ("int", 20, ">= 0", "ground-truth support size, at most design.d"),
    "noise.family": ("str", LINEAR, (LINEAR, LOGISTIC), "response family"),
    "noise.sigma": ("float", 0.5, None, "additive noise scale, > 0 (linear family only)"),
    "operator.kind": ("str", HT, (HT, RT), "sparsifying operator"),
    "operator.s": ("int", 0, ">= 0", "iterate sparsity level, at most design.d; 0 derives 2 * s_star"),
    "step.kind": ("str", SPARSE_POLYAK, (SPARSE_POLYAK, CLASSIC_POLYAK, FIXED), "step-size rule"),
    "step.ht_width": ("str", "auto", ("auto", WIDTH_S, WIDTH_2S), "restriction width; auto: s, 2s if logistic"),
    "step.f_hat": ("str", "target", None, "'target' for f(theta*), or a finite float literal"),
    "run.max_iters": ("int", 1500, ">= 1", "iteration budget for single runs"),
    "run.seed": ("int", 0, ">= 0", "seed for single runs"),
    "grid.s_values": ("intlist", [], ">= 1", "sparsity grid, at most design.d; empty derives the scaled pattern"),
    "grid.seeds": ("intlist", list(range(11)), ">= 0", "seeds for grid / sweep medians; nonempty"),
    "grid.max_iters": ("int", 0, ">= 0", "iteration budget for grid cells; 0 uses run.max_iters"),
    "sweep.d_values": ("intlist", [250, 500, 1000], ">= 2", "sweep dimensions: nonempty, each >= s_star"),
    "sweep.max_iters": ("int", 0, ">= 0", "iteration budget for sweep cells; 0 uses run.max_iters"),
    "concavity.dims": ("intlist", [8], ">= 1", "vector dimensions for the concavity oracle"),
    "concavity.s_values": ("intlist", [1, 2, 3, 4], ">= 1", "operator sparsity levels for the oracle"),
    "concavity.trials": ("int", 100000, ">= 1", "random trials per oracle cell"),
    "check.pairs": ("int", 10000, ">= 1", "sampled pairs per assumption check"),
}


def schema_text() -> str:
    lines = [
        "# Configuration schema: flat `key = value` lines, `#` comments.",
        "# Unknown keys are rejected.  Integer lists are comma separated, their entries distinct.",
        "#",
        "# accepted: a lower bound (on every entry of a list), the choices, or - (see meaning).",
        "#",
        "# key                      type     default              accepted         meaning",
    ]
    for key, (tag, default, accepted, help_) in SCHEMA.items():
        if isinstance(default, list):
            shown = ",".join(str(v) for v in default) if default else "(derived)"
        else:
            shown = str(default)
        rule = "|".join(accepted) if isinstance(accepted, tuple) else accepted or "-"
        lines.append(f"{key:<26} {tag:<8} {shown:<20} {rule:<16} {help_}")
    return "\n".join(lines) + "\n"


def _parse_value(key: str, raw: str):
    tag = SCHEMA[key][0]
    raw = raw.strip()
    try:
        return _TAGS[tag][0](raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {tag}") from exc


def parse_config_text(text: str) -> dict:
    """Parse assignments into a raw key -> value dict; unknown keys rejected."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r} (line {lineno})")
        if key in values:
            raise ConfigError(f"duplicate key {key!r} (line {lineno})")
        values[key] = _parse_value(key, raw)
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully derived experiment description."""

    design: DesignSpec
    s_star: int
    noise: NoiseSpec
    operator_kind: str
    operator_s: int
    step_kind: str
    ht_width: str  # s or 2s; "auto" resolved against the family (the echo keeps "auto")
    f_hat: float | None  # None means "use the target value f(theta*)"
    max_iters: int
    seed: int
    s_grid: list[int]
    seeds: list[int]
    grid_max_iters: int
    sweep_d_values: list[int]
    sweep_max_iters: int
    n_factor: float
    concavity_dims: list[int]
    concavity_s_values: list[int]
    concavity_trials: int
    check_pairs: int
    echo: dict = field(default_factory=dict)


def derived_n(n_factor: float, s_star: int, d: int) -> int:
    return int(np.ceil(n_factor * max(s_star, 1) * np.log(d))) if d > 1 else max(s_star, 1)


def default_s_grid(s_star: int, d: int) -> list[int]:
    grid = sorted({min(d, max(1, round(s_star * g))) for g in _GRID_PATTERN})
    return grid


def resolve_config(values: dict) -> ExperimentConfig:
    """Reject unknown keys, apply defaults, enforce each key's accepted values,
    derive dependent values and validate cross-field constraints."""
    for key in values:
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
    merged = {key: spec[1] for key, spec in SCHEMA.items()}
    merged.update(values)
    for key, (tag, _, accepted, _) in SCHEMA.items():
        value = merged[key]
        entries = value if tag == "intlist" else [value]
        if (tag == "intlist") != isinstance(value, list) or not all(
                isinstance(v, _TAGS[tag][1]) and not isinstance(v, bool) for v in entries):
            raise ConfigError(f"{key}: expected {tag}, got {value!r}")
        if tag == "float" and not np.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value!r}")
        if isinstance(accepted, tuple) and value not in accepted:
            raise ConfigError(f"{key}: must be one of {' | '.join(accepted)}, got {value!r}")
        if isinstance(accepted, str):
            op, bound = accepted.split()
            if not all(_COMPARE[op](v, float(bound)) for v in entries):
                raise ConfigError(f"{key}: {'every entry ' if tag == 'intlist' else ''}must be {accepted}, "
                                  f"got {value!r}")
        if tag == "intlist" and len(set(value)) < len(value):
            raise ConfigError(f"{key}: entries must be distinct, got {value!r}")

    d = merged["design.d"]
    s_star = merged["truth.s_star"]
    family = merged["noise.family"]
    n = derived_n(merged["design.n_factor"], s_star, d)
    # n, d and the family are checked above, so what the specs reject is omega and sigma
    try:
        design = DesignSpec(n=n, d=d, omega=merged["design.omega"])
    except ValueError as exc:
        raise ConfigError(f"design.omega: {exc}") from exc
    if s_star > d:
        raise ConfigError(f"truth.s_star: must be at most design.d = {d}, got {s_star}")
    try:
        noise = NoiseSpec(family=family, sigma=merged["noise.sigma"] if family == LINEAR else None)
    except ValueError as exc:
        raise ConfigError(f"noise.sigma: {exc}") from exc

    operator_s = merged["operator.s"] or min(d, 2 * max(s_star, 1))
    if operator_s > d:
        raise ConfigError(f"operator.s: must be at most design.d = {d}, got {operator_s}")

    f_hat_raw = merged["step.f_hat"]
    if f_hat_raw == "target":
        f_hat = None
    else:
        try:
            f_hat = float(f_hat_raw)
        except ValueError as exc:
            raise ConfigError(f"step.f_hat: expected 'target' or a float, got {f_hat_raw!r}") from exc
        if not np.isfinite(f_hat):
            raise ConfigError(f"step.f_hat: must be finite, got {f_hat_raw!r}")

    s_grid = merged["grid.s_values"] or default_s_grid(s_star, d)
    if any(s > d for s in s_grid):
        raise ConfigError(f"grid.s_values: every entry must be at most design.d = {d}, got {s_grid}")
    seeds = merged["grid.seeds"]
    if not seeds:
        raise ConfigError("grid.seeds: seed list must be nonempty")

    echo = dict(merged)
    echo["operator.s"] = operator_s
    echo["grid.s_values"] = list(s_grid)

    return ExperimentConfig(
        design=design,
        s_star=s_star,
        noise=noise,
        operator_kind=merged["operator.kind"],
        operator_s=operator_s,
        step_kind=merged["step.kind"],
        ht_width=default_ht_width(family) if merged["step.ht_width"] == "auto" else merged["step.ht_width"],
        f_hat=f_hat,
        max_iters=merged["run.max_iters"],
        seed=merged["run.seed"],
        s_grid=list(s_grid),
        seeds=list(seeds),
        grid_max_iters=merged["grid.max_iters"] or merged["run.max_iters"],
        sweep_d_values=list(merged["sweep.d_values"]),
        sweep_max_iters=merged["sweep.max_iters"] or merged["run.max_iters"],
        n_factor=merged["design.n_factor"],
        concavity_dims=list(merged["concavity.dims"]),
        concavity_s_values=list(merged["concavity.s_values"]),
        concavity_trials=merged["concavity.trials"],
        check_pairs=merged["check.pairs"],
        echo=echo,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return resolve_config(parse_config_text(path.read_text()))
