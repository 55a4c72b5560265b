"""File formats: CSV ingestion, JSON config parsing, summary and table writers.

Input CSV files carry a header row; the ``y`` column is required, ``z`` is
an optional 0/1 treatment column for current data, and every remaining
column becomes a design column in header order.  Content problems raise
:class:`~leapborrow.core.ValidationError` with the offending row and column;
unreadable files surface as ``OSError`` so the CLI can map them to distinct
exit codes.

All writers format floats with ``repr`` (shortest round-trip), which makes
outputs byte-stable across runs and exact under read-back.
"""

from __future__ import annotations

import csv
import json
from typing import Optional, Union

import numpy as np

from .comparators import A0Prior, NppConfig, ReferencePriorConfig
from .conjugate import NormalGammaPrior, PoissonGammaPrior
from .core import (
    Dataset,
    DrawsMatrix,
    HistoricalDataset,
    LeapConfig,
    ValidationError,
)

FORMAT_VERSION = "1"
_CSV_BLOCK_ROWS = 4096  # partition-table rows formatted per write, at most


# ---------------------------------------------------------------------------
# CSV ingestion


def _parse_cell(text: str, row: int, col: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"non-numeric cell {text!r} at row {row}, column {col!r}"
        ) from None


def ingest_csv(
    path: str, role: str, model_kind: str = "normal_linear"
) -> Union[Dataset, HistoricalDataset]:
    """Load a dataset from CSV.

    ``role`` is ``current`` or ``historical``.  For the Poisson model only
    the ``y`` column is consumed and integrality is enforced cell by cell.
    """
    if role not in ("current", "historical"):
        raise ValidationError(f"role must be current or historical, got {role!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        if "y" not in header:
            raise ValidationError(f"{path}: missing required column 'y'")
        if header.count("y") > 1 or ("z" in header and header.count("z") > 1):
            raise ValidationError(f"{path}: duplicate y/z columns")
        if "z" in header and role == "historical":
            raise ValidationError(f"{path}: treatment column z not allowed in historical data")
        y_idx = header.index("y")
        z_idx = header.index("z") if "z" in header else None
        x_cols = [
            (i, name)
            for i, name in enumerate(header)
            if i != y_idx and i != z_idx
        ]

        y, z, X = [], [], []
        for r, rowvals in enumerate(reader, start=2):
            if not rowvals or all(not c.strip() for c in rowvals):
                continue
            if len(rowvals) != len(header):
                raise ValidationError(
                    f"{path}: row {r} has {len(rowvals)} cells, expected {len(header)}"
                )
            yv = _parse_cell(rowvals[y_idx], r, "y")
            if model_kind == "poisson" and (yv < 0 or yv != round(yv)):
                raise ValidationError(
                    f"{path}: row {r}, column 'y': poisson outcomes must be "
                    f"nonnegative integers, got {rowvals[y_idx]!r}"
                )
            y.append(yv)
            if z_idx is not None:
                zv = _parse_cell(rowvals[z_idx], r, "z")
                if zv not in (0.0, 1.0):
                    raise ValidationError(
                        f"{path}: row {r}, column 'z': treatment indicator must "
                        f"be 0 or 1, got {rowvals[z_idx]!r}"
                    )
                z.append(zv)
            if model_kind != "poisson" and x_cols:
                X.append([_parse_cell(rowvals[i], r, name) for i, name in x_cols])

    if not y:
        raise ValidationError(f"{path}: n >= 1 required, data section is empty")
    X_arr = np.array(X) if X else None
    if role == "current":
        return Dataset(
            y=np.array(y),
            z=np.array(z) if z_idx is not None else None,
            X=X_arr,
        )
    return HistoricalDataset(y0=np.array(y), X0=X_arr)


# ---------------------------------------------------------------------------
# configuration files


def _require_keys(section: dict, allowed: set, name: str):
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(
            f"unknown keys in config section {name!r}: {', '.join(sorted(unknown))}"
        )


def _parse_component_prior(entry: dict, model_kind: str, idx: int):
    if model_kind == "poisson":
        _require_keys(entry, {"eta0", "beta0"}, f"leap.component_priors[{idx}]")
        return PoissonGammaPrior(eta0=entry["eta0"], beta0=entry["beta0"])
    _require_keys(
        entry, {"mu0", "omega0", "delta0", "xi0", "p"}, f"leap.component_priors[{idx}]"
    )
    p = entry.get("p")
    mu0 = entry["mu0"]
    if np.isscalar(mu0):
        if p is None:
            raise ValidationError(
                f"leap.component_priors[{idx}]: scalar mu0 requires explicit p"
            )
        mu0 = np.full(int(p), float(mu0))
    else:
        mu0 = np.asarray(mu0, dtype=float)
    omega0 = entry["omega0"]
    if np.isscalar(omega0):
        omega0 = float(omega0) * np.eye(mu0.size)
    else:
        omega0 = np.asarray(omega0, dtype=float)
    return NormalGammaPrior(mu0=mu0, omega0=omega0, delta0=entry["delta0"], xi0=entry["xi0"])


def parse_leap_section(section: dict, model_kind: str) -> LeapConfig:
    _require_keys(
        section,
        {"K", "alpha0", "trunc_a", "trunc_b", "component_priors"},
        "leap",
    )
    K = int(section["K"])
    priors = tuple(
        _parse_component_prior(e, model_kind, i)
        for i, e in enumerate(section["component_priors"])
    )
    return LeapConfig(
        K=K,
        alpha0=np.asarray(section["alpha0"], dtype=float),
        component_priors=priors,
        model_kind=model_kind,
        trunc_a=float(section.get("trunc_a", 0.0)),
        trunc_b=float(section.get("trunc_b", 1.0)),
    )


def parse_npp_section(section: dict, model_kind: str) -> NppConfig:
    _require_keys(section, {"prior", "a0_prior", "a0_grid_size"}, "npp")
    prior = _parse_component_prior(section["prior"], model_kind, 0)
    a0_entry = dict(section.get("a0_prior", {"kind": "uniform"}))
    _require_keys(a0_entry, {"kind", "bound", "shape1", "shape2", "value"}, "npp.a0_prior")
    a0_prior = A0Prior(
        kind=a0_entry.get("kind", "uniform"),
        bound=float(a0_entry.get("bound", 1.0)),
        shape1=float(a0_entry.get("shape1", 1.0)),
        shape2=float(a0_entry.get("shape2", 1.0)),
        value=float(a0_entry.get("value", 1.0)),
    )
    return NppConfig(
        prior=prior,
        a0_prior=a0_prior,
        a0_grid_size=int(section.get("a0_grid_size", 1001)),
    )


def parse_reference_section(section: dict) -> ReferencePriorConfig:
    _require_keys(section, {"coef_sd", "sigma_sd"}, "reference")
    return ReferencePriorConfig(
        coef_sd=float(section.get("coef_sd", 10.0)),
        sigma_sd=float(section.get("sigma_sd", 10.0)),
    )


DEFAULT_SAMPLER = {"draws": 22_000, "burn_in": 2_000, "thin": 1, "chains": 1, "seed": 0}


def parse_sampler_section(section: dict) -> dict:
    _require_keys(section, set(DEFAULT_SAMPLER), "sampler")
    out = dict(DEFAULT_SAMPLER)
    out.update({k: int(v) for k, v in section.items()})
    return out


def load_config(path: str) -> dict:
    """Parse and validate a JSON configuration file into typed sections."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: top level must be an object")
    _require_keys(raw, {"model", "leap", "npp", "reference", "sampler"}, "<top>")
    model = dict(raw.get("model", {}))
    _require_keys(model, {"kind"}, "model")
    kind = model.get("kind", "normal_linear")
    if kind not in ("poisson", "normal_linear"):
        raise ValidationError(f"model.kind must be poisson or normal_linear, got {kind!r}")
    out = {"model_kind": kind, "raw": raw}
    out["leap"] = parse_leap_section(raw["leap"], kind) if "leap" in raw else None
    out["npp"] = parse_npp_section(raw["npp"], kind) if "npp" in raw else None
    out["reference"] = (
        parse_reference_section(raw["reference"]) if "reference" in raw else None
    )
    out["sampler"] = parse_sampler_section(raw.get("sampler", {}))
    return out


# ---------------------------------------------------------------------------
# writers and draws round-trip


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_draws_csv(path: str, draws: DrawsMatrix):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(draws.columns)
        for row in draws.values:
            writer.writerow([_fmt(v) for v in row])


def read_draws_csv(path: str) -> DrawsMatrix:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty draws file, header required") from None
        header = [h.strip() for h in header]
        if not header or any(not h for h in header):
            raise ValidationError(f"{path}: malformed header row")
        if all(_is_number(h) for h in header):
            raise ValidationError(f"{path}: first row looks numeric; header row missing")
        rows = []
        for r, rowvals in enumerate(reader, start=2):
            if not rowvals or all(not c.strip() for c in rowvals):
                continue
            if len(rowvals) != len(header):
                raise ValidationError(
                    f"{path}: row {r} has {len(rowvals)} cells, expected {len(header)}"
                )
            rows.append([_parse_cell(c, r, header[i]) for i, c in enumerate(rowvals)])
    if not rows:
        raise ValidationError(f"{path}: draws file has no rows")
    return DrawsMatrix(columns=tuple(header), values=np.array(rows), meta={"source": path})


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def summary_to_dict(summary, extra: Optional[dict] = None) -> dict:
    doc = {
        "parameters": [
            {
                "name": p.name,
                "mean": p.mean,
                "sd": p.sd,
                "ci_low": p.ci_low,
                "ci_high": p.ci_high,
                "ess": p.ess,
                "mcse": p.mcse,
            }
            for p in summary.parameters
        ],
        "ci_mass": summary.ci_mass,
        "dic": summary.dic,
        "ssc_mean": summary.ssc_mean,
    }
    if extra:
        doc.update(extra)
    return doc


def write_json(path: Optional[str], doc: dict) -> str:
    text = json.dumps(doc, indent=2, allow_nan=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _label_cells(K: int, n0: int) -> tuple:
    """Label cells as ``(prefixes, suffixes)``: row ``i`` is ``prefixes[i // S] + suffixes[i % S]``.

    ``S = len(suffixes)`` is at most ``_CSV_BLOCK_ROWS`` where ``n0 > 1``; the
    strings carry the quotes that :mod:`csv` puts around a cell with a comma.
    """
    digits = [str(v) for v in range(1, K + 1)]

    def joined(n):  # comma-joined labels of n subjects, in lexicographic order
        out = digits
        for _ in range(n - 1):
            out = [f"{a},{d}" for a in out for d in digits]
        return out

    if n0 == 1:
        return [""], digits
    s = 1
    while s < n0 - 1 and K ** (s + 1) <= _CSV_BLOCK_ROWS:
        s += 1
    return [f'"{a},' for a in joined(n0 - s)], [f'{b}"' for b in joined(s)]


def _repr_cells(col: np.ndarray) -> list:
    """``repr`` of each float in ``col``, formatting every distinct bit pattern once.

    Partitions with equal class statistics share their weight and means, so
    Poisson columns hold far fewer distinct values than rows.
    """
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


def write_partition_csv(path: str, table, mean_labels: Optional[list] = None):
    """Partition table as CSV; vector-valued means expand into indexed columns.

    Written a block of rows at a time from the table's columns: ``repr`` floats
    and the quoting and CRLF line ends of :mod:`csv`, with the label cell
    of each row built from a shared prefix and suffix string.
    """
    if not table.materialized:
        raise ValidationError("partition table was not materialized; lower n0 or request rows")
    dim = table.cond_prior_mean.shape[1]
    if mean_labels is None:
        mean_labels = [""] if dim == 1 else [f"_{j + 1}" for j in range(dim)]
    head = ["c0", "prior_prob"] + (["post_prob"] if table.has_posterior else [])
    head += [f"prior_mean{s}" for s in mean_labels]
    columns = [table.prior_prob] + ([table.posterior_prob] if table.has_posterior else [])
    columns += list(table.cond_prior_mean.T)
    if table.has_posterior:
        head += [f"post_mean{s}" for s in mean_labels]
        columns += list(table.cond_post_mean.T)
    prefixes, suffixes = _label_cells(table.K, table.n0)
    step = len(suffixes)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(head)
        for j, prefix in enumerate(prefixes):
            cells = [[prefix + s for s in suffixes]]
            cells += [_repr_cells(col[j * step:(j + 1) * step]) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
