"""Core data model: datasets, configuration, partitions, draws.

All types are immutable after construction (arrays are copied and frozen),
so they can be shared freely across threads and worker processes.

Validation is split in two layers: constructors enforce structural sanity
(shapes, dtypes, hard numerical requirements such as design-matrix rank),
while :func:`validate_config` produces a report of semantic violations and
advisories for a full model configuration, so that a CLI can present every
problem at once instead of failing on the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

ModelKind = Literal["poisson", "normal_linear"]

RANK_RTOL = 1e-8  # relative singular-value threshold for design matrices


class ValidationError(ValueError):
    """Invalid data or configuration (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """Numerical failure such as a lost factorization (CLI exit code 3)."""


class EnumerationCapError(ValidationError):
    """Partition enumeration would exceed the configured cap."""


def _frozen_array(x, dtype=float, ndim=1, name="array") -> np.ndarray:
    arr = np.array(x, dtype=dtype)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def design_rank_ok(X: np.ndarray, rtol: float = RANK_RTOL) -> bool:
    """Check full column rank via relative singular values."""
    if X.shape[0] < X.shape[1]:
        return False
    sv = np.linalg.svd(X, compute_uv=False)
    return bool(sv[-1] > rtol * sv[0])


@dataclass(frozen=True)
class Dataset:
    """Current-study data: outcome, optional treatment indicator, optional design.

    ``X`` holds the covariate design (which may include an intercept column);
    ``z`` is kept separate and appended as the last column of the effective
    design when present.
    """

    y: np.ndarray
    z: Optional[np.ndarray] = None
    X: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen_array(self.y, name="y"))
        if self.y.size < 1:
            raise ValidationError("n >= 1 required: outcome vector is empty")
        if not np.all(np.isfinite(self.y)):
            raise ValidationError("y contains non-finite values")
        if self.z is not None:
            z = _frozen_array(self.z, name="z")
            if z.size != self.y.size:
                raise ValidationError("z length must match y")
            if not np.all(np.isin(z, (0.0, 1.0))):
                raise ValidationError("z entries must be 0 or 1")
            object.__setattr__(self, "z", z)
        if self.X is not None:
            X = _frozen_array(self.X, ndim=2, name="X")
            if X.shape[0] != self.y.size:
                raise ValidationError("X row count must match y")
            if not np.all(np.isfinite(X)):
                raise ValidationError("X contains non-finite values")
            if not design_rank_ok(X):
                raise ValidationError(
                    "X is rank deficient (smallest/largest singular value "
                    f"below {RANK_RTOL:g})"
                )
            object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return int(self.y.size)

    def effective_design(self) -> Optional[np.ndarray]:
        """Design used for model fitting: ``[X, z]`` when a treatment column exists."""
        if self.X is None:
            return None
        if self.z is None:
            return self.X
        return np.hstack([self.X, self.z[:, None]])

    def is_count_data(self) -> bool:
        return bool(np.all(self.y >= 0) and np.all(self.y == np.round(self.y)))


@dataclass(frozen=True)
class HistoricalDataset:
    """Historical (external control) data paired with a current :class:`Dataset`."""

    y0: np.ndarray
    X0: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "y0", _frozen_array(self.y0, name="y0"))
        if self.y0.size < 1:
            raise ValidationError("n0 >= 1 required: historical outcome vector is empty")
        if not np.all(np.isfinite(self.y0)):
            raise ValidationError("y0 contains non-finite values")
        if self.X0 is not None:
            X0 = _frozen_array(self.X0, ndim=2, name="X0")
            if X0.shape[0] != self.y0.size:
                raise ValidationError("X0 row count must match y0")
            if not np.all(np.isfinite(X0)):
                raise ValidationError("X0 contains non-finite values")
            object.__setattr__(self, "X0", X0)

    @property
    def n0(self) -> int:
        return int(self.y0.size)

    def is_count_data(self) -> bool:
        return bool(np.all(self.y0 >= 0) and np.all(self.y0 == np.round(self.y0)))


@dataclass(frozen=True)
class PartitionAssignment:
    """Latent class labels for the historical subjects, entries in ``{1..K}``."""

    c0: np.ndarray

    def __post_init__(self):
        c0 = np.array(self.c0, dtype=np.int64)
        if c0.ndim != 1 or c0.size < 1:
            raise ValidationError("c0 must be a nonempty 1-dimensional label vector")
        if np.any(c0 < 1):
            raise ValidationError("c0 labels must be >= 1")
        c0.setflags(write=False)
        object.__setattr__(self, "c0", c0)

    @property
    def n0(self) -> int:
        return int(self.c0.size)


def class_counts(assign: PartitionAssignment, K: int) -> np.ndarray:
    """Per-class occupancy counts ``(n01, ..., n0K)`` for a partition."""
    if K < 1:
        raise ValidationError("K must be >= 1")
    c0 = assign.c0
    if np.any(c0 > K):
        bad = int(c0[c0 > K][0])
        raise ValidationError(f"c0 label {bad} out of range for K={K}")
    return np.bincount(c0 - 1, minlength=K).astype(np.int64)


@dataclass(frozen=True)
class LeapConfig:
    """Mixture-prior configuration.

    ``component_priors`` holds one conjugate prior per component (gamma
    hyperparameters for the Poisson model, normal-gamma for the linear
    model).  ``trunc_a``/``trunc_b`` truncate the first mixture weight;
    ``(0, 1)`` disables truncation.  Constructors only check structure;
    semantic requirements (propriety of the component priors, nonempty
    truncation interval, positive concentrations) are reported by
    :func:`validate_config` so callers can surface all violations together.
    """

    K: int
    alpha0: np.ndarray
    component_priors: tuple
    model_kind: ModelKind
    trunc_a: float = 0.0
    trunc_b: float = 1.0

    def __post_init__(self):
        if int(self.K) < 1:
            raise ValidationError("K must be >= 1")
        object.__setattr__(self, "K", int(self.K))
        alpha0 = _frozen_array(self.alpha0, name="alpha0")
        if alpha0.size != self.K:
            raise ValidationError(f"alpha0 must have length K={self.K}")
        object.__setattr__(self, "alpha0", alpha0)
        priors = tuple(self.component_priors)
        if len(priors) != self.K:
            raise ValidationError(f"component_priors must have length K={self.K}")
        object.__setattr__(self, "component_priors", priors)
        if self.model_kind not in ("poisson", "normal_linear"):
            raise ValidationError(f"unknown model_kind {self.model_kind!r}")
        object.__setattr__(self, "trunc_a", float(self.trunc_a))
        object.__setattr__(self, "trunc_b", float(self.trunc_b))

    @property
    def truncated(self) -> bool:
        return not (self.trunc_a == 0.0 and self.trunc_b == 1.0)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_config`: violations block a fit, warnings do not."""

    violations: tuple = ()
    warnings: tuple = ()

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0

    def raise_if_invalid(self):
        if not self.ok:
            raise ValidationError("; ".join(self.violations))


def validate_config(
    cfg: LeapConfig,
    data: Optional[Dataset] = None,
    hist: Optional[HistoricalDataset] = None,
) -> ValidationReport:
    """Check a configuration against the posterior-propriety requirements.

    Returns every violation found rather than stopping at the first.  The
    integral condition for the current-data component is not machine
    checkable in general, so it is enforced through a sufficient proxy: the
    first component must either carry a proper prior or, for the linear
    model, the effective current design must have full column rank.
    """
    violations = []
    warnings = []

    if np.any(cfg.alpha0 <= 0):
        violations.append("alpha0 nonpositive: all concentration entries must be > 0")
    if np.any(cfg.alpha0 >= 1):
        warnings.append(
            "advisory: concentration entries >= 1; small concentrations "
            "(< 1 per component) favor emptying unused components in large samples"
        )

    if not (0.0 <= cfg.trunc_a < cfg.trunc_b <= 1.0):
        violations.append(
            f"empty truncation interval: need 0 <= a < b <= 1, got "
            f"(a, b) = ({cfg.trunc_a}, {cfg.trunc_b})"
        )

    expected = {"poisson": "PoissonGammaPrior", "normal_linear": "NormalGammaPrior"}
    for k, prior in enumerate(cfg.component_priors, start=1):
        if type(prior).__name__ != expected[cfg.model_kind]:
            violations.append(
                f"component {k} prior type {type(prior).__name__} does not match "
                f"model_kind {cfg.model_kind}"
            )
            continue
        if k >= 2 and not prior.is_proper():
            violations.append(f"component {k} prior improper")

    first = cfg.component_priors[0]
    if type(first).__name__ == expected[cfg.model_kind] and not first.is_proper():
        if cfg.model_kind == "poisson":
            violations.append("component 1 prior improper")
        else:
            X = data.effective_design() if data is not None else None
            if X is None or not design_rank_ok(X):
                violations.append(
                    "rank-deficient or missing current design with improper "
                    "first-component prior"
                )

    if cfg.model_kind == "poisson":
        if data is not None and not data.is_count_data():
            violations.append("current y must be nonnegative integers for the poisson model")
        if hist is not None and not hist.is_count_data():
            violations.append("historical y0 must be nonnegative integers for the poisson model")

    if (
        cfg.model_kind == "normal_linear"
        and data is not None
        and hist is not None
        and data.X is not None
    ):
        if hist.X0 is None:
            violations.append("historical design X0 missing for the linear model")
        elif hist.X0.shape[1] != data.X.shape[1]:
            violations.append(
                f"historical design has {hist.X0.shape[1]} columns, current has "
                f"{data.X.shape[1]}"
            )

    return ValidationReport(tuple(violations), tuple(warnings))


@dataclass(frozen=True)
class DrawsMatrix:
    """Ordered posterior draws with named columns plus sampler metadata.

    ``columns`` names each column of ``values`` (one row per retained draw).
    For mixture fits the per-draw class counts are stored as ``n0_k``
    columns.  The sampler does not fill the per-draw label matrix ``c0``;
    the field stays because the benchmark's tracer reads it to report the
    label-store size.
    """

    columns: tuple
    values: np.ndarray
    meta: dict = field(default_factory=dict)
    c0: Optional[np.ndarray] = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise ValidationError("values must be 2-dimensional (draws x parameters)")
        cols = tuple(str(c) for c in self.columns)
        if len(cols) != values.shape[1]:
            raise ValidationError("column names must match value columns")
        if len(set(cols)) != len(cols):
            raise ValidationError("column names must be unique")
        values.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "values", values)
        if self.c0 is not None:
            c0 = np.array(self.c0, dtype=np.int64)
            if c0.ndim != 2 or c0.shape[0] != values.shape[0]:
                raise ValidationError("c0 draw matrix must align with values rows")
            c0.setflags(write=False)
            object.__setattr__(self, "c0", c0)
        self._check_gamma_rows()

    def _check_gamma_rows(self):
        gcols = [c for c in self.columns if c.startswith("gamma_")]
        if not gcols or self.values.shape[0] == 0:
            return
        G = np.column_stack([self.column(c) for c in gcols])
        if np.max(np.abs(G.sum(axis=1) - 1.0)) > 1e-12:
            raise ValidationError("gamma draws do not lie on the simplex")
        a = float(self.meta.get("trunc_a", 0.0))
        b = float(self.meta.get("trunc_b", 1.0))
        if (a, b) != (0.0, 1.0):
            g1 = G[:, 0]
            if np.any(g1 <= a) or np.any(g1 >= b):
                raise ValidationError("gamma_1 draws violate the truncation interval")

    @property
    def n_draws(self) -> int:
        return int(self.values.shape[0])

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no draws column named {name!r}") from None
        return self.values[:, j]

    def has_column(self, name: str) -> bool:
        return name in self.columns
