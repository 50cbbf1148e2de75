"""Model files: JSON documents that rebuild bit-identically.

A classical model stores the spot grid, the high-frequency transition matrix
(row-major) with its time step, the substep count k, the grouping mode, the
initial distribution, and the scheme edges; the emission matrix is stored
redundantly for audit and cross-checked against the rebuild on load. A quantum
model stores the ansatz shape and angle vectors, with the Kraus operators
(row-major [re, im] pairs) as the audit copy.

JSON floats use Python's shortest round-trip representation, so reload ->
re-evaluate reproduces stored likelihoods exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .chmm import ClassicalHmm, build_classical_hmm
from .errors import ValidationError
from .qhmm import AnsatzSpec, QhmmModel, build_qhmm
from .volgrid import ObservationScheme, SpotGrid, TransitionMatrix

_AUDIT_TOL = 1e-12


def classical_to_dict(model: ClassicalHmm) -> dict:
    return {
        "model_type": "classical",
        "grid": model.grid.values.tolist(),
        "a_hf": model.a_hf.probs.tolist(),
        "dt_hf": model.a_hf.dt,
        "k": model.table.k,
        "mode": model.table.mode,
        "x0": model.x0.tolist(),
        "scheme_edges": model.scheme.edges.tolist(),
        "emission": model.emission.probs.tolist(),
    }


def _fields(doc, where: str, **readers) -> list:
    """The values of the keys of the JSON object ``doc``, each passed through its reader;
    a missing key, or a value its reader rejects, is named."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected an object, got {type(doc).__name__}")
    for key in readers:
        if key not in doc:
            raise ValidationError(f"{where}: missing required key {key!r}")
    values = []
    for key, read in readers.items():
        try:
            values.append(read(doc[key]))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: bad value for {key!r}: {exc}") from None
    return values


def _as_is(value):
    return value


def _floats(value) -> np.ndarray:
    return np.array(value, dtype=float)


def _integer(value) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _complex_pairs(value) -> np.ndarray:
    """Nested lists of [re, im] pairs, three levels deep, as a complex array."""
    return np.array([[[complex(re, im) for re, im in row] for row in op] for op in value])


def classical_from_dict(doc: dict) -> ClassicalHmm:
    grid, a_hf, dt_hf, k, mode, x0, edges, emission = _fields(
        doc, "classical model", grid=_floats, a_hf=_floats, dt_hf=float, k=_integer,
        mode=_text, x0=_floats, scheme_edges=_floats, emission=_floats,
    )
    grid = SpotGrid(values=grid)
    a_hf = TransitionMatrix(probs=a_hf, dt=dt_hf)
    scheme = ObservationScheme(edges=edges)
    model = build_classical_hmm(grid, a_hf, k, scheme, mode=mode, x0=x0)
    if emission.shape != model.emission.probs.shape or not np.max(
        np.abs(emission - model.emission.probs)
    ) <= _AUDIT_TOL:  # a nan entry fails
        raise ValidationError("stored emission matrix does not match the rebuilt model")
    return model


def qhmm_to_dict(model: QhmmModel) -> dict:
    kraus = [
        [[[z.real, z.imag] for z in row] for row in op]
        for op in model.kraus
    ]
    return {
        "model_type": "qhmm",
        "spec": {
            "latent_qubits": model.spec.latent_qubits,
            "observed_qubits": model.spec.observed_qubits,
            "reps": model.spec.reps,
            "entanglement": model.spec.entanglement,
        },
        "theta": model.theta.tolist(),
        "theta_init": model.theta_init.tolist(),
        "kraus": kraus,
    }


def qhmm_from_dict(doc: dict) -> QhmmModel:
    spec_doc, theta, theta_init, kraus = _fields(
        doc, "qhmm model", spec=_as_is, theta=_floats, theta_init=_floats, kraus=_complex_pairs
    )
    latent, observed, reps, entanglement = _fields(
        spec_doc, "qhmm model: spec", latent_qubits=_integer, observed_qubits=_integer,
        reps=_integer, entanglement=_text,
    )
    model = build_qhmm(AnsatzSpec(latent, observed, reps, entanglement), theta, theta_init)
    if kraus.shape != model.kraus.shape or not np.max(np.abs(kraus - model.kraus)) <= _AUDIT_TOL:
        raise ValidationError("stored Kraus operators do not match the rebuilt model")
    return model


def model_to_dict(model) -> dict:
    if isinstance(model, ClassicalHmm):
        return classical_to_dict(model)
    if isinstance(model, QhmmModel):
        return qhmm_to_dict(model)
    raise ValidationError(f"unsupported model type {type(model).__name__}")


def model_from_dict(doc: dict):
    (kind,) = _fields(doc, "model file", model_type=_as_is)
    if kind == "classical":
        return classical_from_dict(doc)
    if kind == "qhmm":
        return qhmm_from_dict(doc)
    raise ValidationError(f"unknown model_type {kind!r}")


def dump_json(obj, path):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def save_model(model, path):
    dump_json(model_to_dict(model), path)


def load_model(path):
    return model_from_dict(load_json(path))
