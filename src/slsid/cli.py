"""Command-line front end.

Each run is driven by one JSON config file (nested sections, matrices as
nested arrays); the one flag that overrides a config key is simulate's
--seed.  Every command is a pure function of its config and input files, so
reruns produce byte-identical outputs: reports embed the fully resolved
config and never wall-clock data (timings go to stderr).

Commands and their config sections are documented in the README.  Exit
codes: 0 success, 2 invalid model, 3 I/O or config trouble, 4 dimension or
data-sufficiency errors, 5 numerical failures (singular Hankel, gain-equation
non-convergence, rank deficiency, no selection found, not isomorphic).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .algebra import Selection, Word, enumerate_words
from .covariance import CovarianceTable, empirical_covariances
from .errors import (
    ConfigError,
    DimensionError,
    InsufficientDataError,
    InvalidModeError,
    InvalidProbabilityError,
    MissingMarkovParameterError,
    ModelInvalidError,
    NotIsomorphicError,
    NumericalError,
    UndefinedBfrError,
)
from .identify import IdentConfig, identify, resolve_p, validate_model
from .model import SwitchedModel, find_isomorphism, model_from_dict, transform_model
from .realize import covariance_realization
from .simulate import Dataset, SimConfig, as_count, simulate, write_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_MODEL = 2
EXIT_IO = 3
EXIT_DIMENSION = 4
EXIT_NUMERICAL = 5


def _load_json(path: Union[str, Path]) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}")


def _dump_json(obj, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _canonical_sha256(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"config section '{where}' is missing required key '{key}'")
    return cfg[key]


def _check_keys(section, known, where: str) -> None:
    """Every config and config section passes here: it must be a JSON object
    whose keys are all in `known`."""
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{where}' must be a JSON object")
    for key in section:
        if key not in known:
            raise ConfigError(f"config section '{where}' has unknown key {key!r}")


def _count(section: dict, key: str, where: str, default: Optional[int] = None,
           least: float = -np.inf) -> int:
    """section[key] (required when default is None) as an int >= least.

    The rule of the "sim" section (simulate.as_count): an integral float
    such as 2e3 counts as an integer; a fraction, a bool, a non-number or a
    count below least is a config error.
    """
    value = _require(section, key, where) if default is None else section.get(key, default)
    try:  # without least, the range is checked where the count is used
        return as_count(value, repr(key), least)
    except DimensionError as exc:
        raise ConfigError(f"config section '{where}' key {exc}") from None


def _load_model(spec, base: Path = Path()) -> SwitchedModel:
    """Validated stochastic model from an inline dict or a path relative to base.

    A deterministic model, or one that fails SwitchedModel.validate, raises
    ModelInvalidError.
    """
    d = spec if isinstance(spec, dict) else _load_json(base / str(spec))
    model = model_from_dict(d)
    if not isinstance(model, SwitchedModel):
        raise ModelInvalidError(f"the model's type is {d['type']!r}; a stochastic "
                                "(switched or innovation) model is needed")
    return model.validate()


def _load_dataset(spec, base: Path, clean_spec=None, clean: bool = True) -> Dataset:
    """The dataset at a path relative to the config file, with its clean channel.

    The clean channel is read from clean_spec when given, else (when clean
    is true) from the sibling "<stem>_clean" file when it exists.  A
    command that scores no prediction on this dataset passes clean=False,
    so the sibling is neither parsed nor checked.
    """
    path = base / str(spec)
    if not path.exists():
        raise ConfigError(f"dataset not found: {path}")
    if clean_spec is not None:
        clean_path = base / str(clean_spec)
    else:
        clean_path = path.with_name(path.stem + "_clean" + path.suffix)
        clean_path = clean_path if clean and clean_path.exists() else None
    return Dataset.from_csv(path, clean_path=clean_path)


def _selection_spec(section: dict, key: str, base: Path, n_modes: int, n_y: int,
                    n_cols: int):
    """Decode section[key] (default "search"): "search", "file:PATH", or inline dict."""
    spec = section.get(key, "search")
    if spec == "search":
        return "search"
    if isinstance(spec, str) and spec.startswith("file:"):
        obj = _load_json(base / spec[len("file:"):])
        return Selection.from_jsonable(obj, n_modes, n_y, n_cols, key)
    if isinstance(spec, dict):
        return Selection.from_jsonable(spec, n_modes, n_y, n_cols, key)
    raise ConfigError(f"{key} must be 'search', 'file:PATH', or an object, got {spec!r}")


def _stderr(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(cfg, ("model", "sim"), "simulate")
    base = Path(args.config).parent
    model = _load_model(_require(cfg, "model", "simulate"), base)
    sim_section = _require(cfg, "sim", "simulate")
    _check_keys(sim_section, SimConfig.__dataclass_fields__, "sim")
    if args.seed is not None:
        sim_section = {**sim_section, "seed": args.seed}
    for key in ("seed", "length"):
        _require(sim_section, key, "sim")
    sim_cfg = SimConfig.from_jsonable(sim_section)
    out = Path(args.out)
    t0 = time.perf_counter()
    data = simulate(model, sim_cfg)
    out.mkdir(parents=True, exist_ok=True)
    data.to_csv(out / "data.csv")
    data.clean_to_csv(out / "data_clean.csv")
    manifest = {
        "command": "simulate",
        "effective_config": {"model": model.to_dict(), "sim": sim_cfg.to_jsonable()},
        "model_sha256": _canonical_sha256(model.to_dict()),
        "rows": len(data),
        "files": ["data.csv", "data_clean.csv"],
    }
    _dump_json(manifest, out / "manifest.json")
    _stderr(f"simulate: {len(data)} rows in {time.perf_counter() - t0:.2f}s -> {out}")
    return EXIT_OK


def _word_list(spec, n_modes: int):
    if isinstance(spec, dict) and "max_len" in spec:
        _check_keys(spec, ("max_len",), "words")
        return list(enumerate_words(n_modes, _count(spec, "max_len", "words")))
    if isinstance(spec, list):
        return [Word.parse(str(s)) for s in spec]
    raise ConfigError("'words' must be a list of word strings or {\"max_len\": L}")


def cmd_estimate(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(cfg, ("data", "p", "words"), "estimate")
    base = Path(args.config).parent
    data = _load_dataset(_require(cfg, "data", "estimate"), base, clean=False)
    p = resolve_p(cfg.get("p", "empirical"), data)
    words = _word_list(_require(cfg, "words", "estimate"), p.shape[0])
    t0 = time.perf_counter()
    table = empirical_covariances(data, p, words)
    out = Path(args.out)
    effective = {"data": str(cfg["data"]), "p": p.tolist(),
                 "words": sorted(str(w) for w in words)}
    obj = table.to_jsonable()
    obj["effective_config"] = effective
    _dump_json(obj, out / "covariances.json")
    _stderr(f"estimate: {len(words)} words in {time.perf_counter() - t0:.2f}s -> {out}")
    return EXIT_OK


def cmd_realize(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(cfg, ("covariances", "n_x", "n_bar", "selection", "selection_bar"), "realize")
    base = Path(args.config).parent
    cov = CovarianceTable.from_jsonable(
        _load_json(base / str(_require(cfg, "covariances", "realize"))))
    n_x = _count(cfg, "n_x", "realize")
    n_bar = _count(cfg, "n_bar", "realize", n_x)
    D, n_y, n_u = cov.p.shape[0], cov.n_y, cov.n_u
    sel = _selection_spec(cfg, "selection", base, D, n_y, n_u + n_y)
    sel_bar = _selection_spec(cfg, "selection_bar", base, D, n_y, n_u)
    t0 = time.perf_counter()
    model, diag = covariance_realization(cov, n_x, n_bar, sel, sel_bar)
    out = Path(args.out)
    _dump_json(model.to_dict(), out / "model.json")
    report = {
        "command": "realize",
        "effective_config": {
            "covariances": str(cfg["covariances"]),
            "n_x": n_x, "n_bar": n_bar,
            "selection": diag["selection"], "selection_bar": diag["selection_bar"],
        },
        "diagnostics": diag,
        "model_sha256": _canonical_sha256(model.to_dict()),
    }
    _dump_json(report, out / "report.json")
    _stderr(f"realize: n_x={model.n_x} in {time.perf_counter() - t0:.2f}s -> {out}")
    return EXIT_OK


def cmd_identify(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(cfg, ("data", "ident", "validation"), "identify")
    base = Path(args.config).parent
    section = _require(cfg, "ident", "identify")
    _check_keys(section, IdentConfig.__dataclass_fields__, "ident")
    n_x = _count(section, "n_x", "ident")
    n_bar = _count(section, "n_bar", "ident", n_x)
    # the validation settings are checked before the identification runs
    val_section = cfg.get("validation")
    if "validation" in cfg:
        _check_keys(val_section, ("data", "split", "exclude"), "validation")
        if "data" not in val_section and "split" not in val_section:
            raise ConfigError("'validation' needs 'data' or 'split'")
        exclude = _count(val_section, "exclude", "validation", 0)
        if "split" in val_section:
            n_val = _count(val_section, "split", "validation", least=1)
    # only a split scores on the estimation data, so only a split reads its clean channel
    split = "validation" in cfg and "data" not in val_section
    data = _load_dataset(_require(cfg, "data", "identify"), base, clean=split)
    if split and n_val >= len(data):
        raise InsufficientDataError(f"validation split {n_val} >= dataset length {len(data)}")
    if "validation" in cfg:  # read here, so a bad validation file fails before identify runs
        val_data = (data.slice(len(data) - n_val, len(data)) if split
                    else _load_dataset(val_section["data"], base))
    # selections are read over p's alphabet, as identify resolves p
    p = section.get("p", "empirical")
    D = int(data.q.max()) if p == "empirical" else resolve_p(p, data).shape[0]
    ident_cfg = IdentConfig(
        n_x=n_x,
        n_bar=n_bar,
        selection=_selection_spec(section, "selection", base, D, data.n_y,
                                  data.n_u + data.n_y),
        selection_bar=_selection_spec(section, "selection_bar", base, D, data.n_y, data.n_u),
        p=p,
    )
    t0 = time.perf_counter()
    model, diag = identify(data, ident_cfg)
    report: dict = {
        "command": "identify",
        "diagnostics": diag,
        "model_sha256": _canonical_sha256(model.to_dict()),
    }

    if "validation" in cfg:
        rep = validate_model(model, val_data, exclude=exclude)
        report["validation"] = rep.to_jsonable()
        _stderr(f"validation: BFR = {rep.bfr:.2f}% ({rep.runtime_seconds:.3f}s)")

    effective = {"data": str(cfg["data"]), "ident": {
        "n_x": n_x, "n_bar": n_bar,
        "selection": (ident_cfg.selection if isinstance(ident_cfg.selection, str)
                      else ident_cfg.selection.to_jsonable()),
        "selection_bar": (ident_cfg.selection_bar
                          if isinstance(ident_cfg.selection_bar, str)
                          else ident_cfg.selection_bar.to_jsonable()),
        "p": ident_cfg.p if isinstance(ident_cfg.p, str) else list(ident_cfg.p),
    }}
    if "validation" in cfg:
        effective["validation"] = {k: (str(v) if k == "data" else int(v))
                                   for k, v in val_section.items()}
    report["effective_config"] = effective
    out = Path(args.out)
    _dump_json(model.to_dict(), out / "model.json")
    _dump_json(report, out / "report.json")
    _stderr(f"identify: n_x={model.n_x} in {time.perf_counter() - t0:.2f}s -> {out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(cfg, ("model", "data", "reference", "exclude"), "validate")
    base = Path(args.config).parent
    model = _load_model(_require(cfg, "model", "validate"), base)
    # a reference is the data's clean channel, so it must match the data's t and shape
    data = _load_dataset(_require(cfg, "data", "validate"), base, cfg.get("reference"))
    exclude = _count(cfg, "exclude", "validate", 0)
    rep = validate_model(model, data, exclude=exclude, keep_predictions=True)
    out = Path(args.out)
    report = {
        "command": "validate",
        "effective_config": {
            "model": str(cfg["model"]) if not isinstance(cfg["model"], dict) else "(inline)",
            "data": str(cfg["data"]),
            "exclude": exclude,
        },
        **rep.to_jsonable(),
    }
    if "reference" in cfg:
        report["effective_config"]["reference"] = str(cfg["reference"])
    _dump_json(report, out / "report.json")
    yhat = rep.predictions
    write_csv(out / "predictions.csv",
              ["t"] + [f"yhat_{i + 1}" for i in range(yhat.shape[1])],
              yhat.T, t0=data.t0)
    _stderr(f"validate: BFR = {rep.bfr:.2f}% ({rep.runtime_seconds:.3f}s) -> {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    m_a, m_b = _load_model(args.model_a), _load_model(args.model_b)
    T = find_isomorphism(m_a, m_b, tol=args.tol)
    moved = transform_model(m_a, T)
    worst = max(float(np.max(np.abs(getattr(moved, f) - getattr(m_b, f))))
                for f in ("A", "B", "K", "C", "Dmat"))
    print("isomorphic: yes")
    print(f"worst residual: {worst:.3e}")
    print("T =")
    for row in T:
        print("  " + "  ".join(f"{v: .10e}" for v in row))
    return EXIT_OK


def cmd_transform(args) -> int:
    model = _load_model(args.model)
    T = _load_json(args.matrix)
    try:
        T = np.asarray(T, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{args.matrix}: T must be a matrix of numbers") from None
    if not np.isfinite(T).all():
        raise ConfigError(f"{args.matrix}: T holds a non-finite entry")
    out_model = transform_model(model, T)
    out = Path(args.out)
    _dump_json(out_model.to_dict(), out / "model.json")
    _stderr(f"transform: wrote {out / 'model.json'}")
    return EXIT_OK


# ---------------------------------------------------------------- plumbing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    It names each command but holds no command function: `main` looks
    `cmd_<command>` up at each call, so a patched module attribute is used.
    """
    parser = argparse.ArgumentParser(
        prog="slsid",
        description="Simulation, covariance estimation, realization, and "
                    "identification of stationary linear switched systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_common(p, seed=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")

    with_common(sub.add_parser("simulate", help="simulate a model to CSV"), seed=True)
    with_common(sub.add_parser("estimate", help="estimate a covariance table"))
    with_common(sub.add_parser("realize", help="realize a model from covariances"))
    with_common(sub.add_parser("identify", help="identify a model from data"))
    with_common(sub.add_parser("validate", help="score a model on a dataset"))

    p = sub.add_parser("compare", help="test two model files for isomorphism")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("transform", help="apply a state-space change of basis")
    p.add_argument("model")
    p.add_argument("matrix", help="JSON file holding the square matrix T")
    p.add_argument("--out", required=True)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, OSError) as exc:
        _stderr(f"error: {exc}")
        return EXIT_IO
    except ModelInvalidError as exc:
        _stderr(f"invalid model: {exc}")
        return EXIT_MODEL
    except InvalidProbabilityError as exc:
        _stderr(f"invalid probabilities: {exc}")
        return EXIT_MODEL
    except NotIsomorphicError as exc:
        _stderr(f"not isomorphic: {exc}")
        if exc.residuals:
            for k, v in sorted(exc.residuals.items()):
                _stderr(f"  residual[{k}] = {v:.3e}")
        return EXIT_NUMERICAL
    except NumericalError as exc:
        _stderr(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except (DimensionError, InsufficientDataError, InvalidModeError,
            MissingMarkovParameterError, UndefinedBfrError) as exc:
        _stderr(f"error: {exc}")
        return EXIT_DIMENSION
    except ValueError as exc:
        _stderr(f"error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
