"""JSON encoding of complex matrices, datasets, samples and reports.

Complex scalars are 2-element arrays [re, im]; matrices are row-major nested
arrays of complex scalars.  These fixtures are language-neutral and
bit-stable under json round-trips.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

import numpy as np

from .errors import ArgumentError

if TYPE_CHECKING:  # imported where used, so a disk request never loads them
    from .oracle import SchurSample
    from .quiver import Grading, Quiver, QuiverPoint


def complex_to_json(z) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    raise ArgumentError(f"expected a complex scalar encoding, got {obj!r}")


def matrix_to_json(M) -> list:
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise ArgumentError("matrix encoding requires a 2-d array")
    return [[complex_to_json(z) for z in row] for row in A]


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], list):
        raise ArgumentError("matrix must be a nested array of complex scalars")
    rows = [[complex_from_json(z) for z in row] for row in obj]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ArgumentError("matrix rows must have equal length")
    return np.array(rows, dtype=np.complex128)


def matrices_from_json(obj) -> List[np.ndarray]:
    return [matrix_from_json(m) for m in obj]


def quiver_from_json(obj) -> Quiver:
    from .quiver import Quiver

    arrows = obj["arrows"]
    return Quiver(
        vertices=tuple(obj["vertices"]),
        arrows=tuple(a["name"] for a in arrows),
        src={a["name"]: a["src"] for a in arrows},
        rng={a["name"]: a["rng"] for a in arrows},
    )


def quiver_to_json(G: Quiver, dims: Dict[str, int] | None = None) -> dict:
    out = {
        "vertices": list(G.vertices),
        "arrows": [{"name": a, "src": G.src[a], "rng": G.rng[a]} for a in G.arrows],
    }
    if dims is not None:
        out["dims"] = {v: int(n) for v, n in dims.items()}
    return out


def grading_from_json(G: Quiver, obj) -> Grading:
    from .quiver import Grading

    return Grading(G, {v: int(n) for v, n in obj.items()})


def quiver_point_from_json(kind: str, obj) -> QuiverPoint:
    from .quiver import QuiverPoint

    return QuiverPoint(kind, {a: matrix_from_json(M) for a, M in obj.items()})


def sample_to_json(sample: SchurSample) -> dict:
    doc = {
        "schema_version": "1",
        "setting": sample.setting,
        "norm_bound": sample.norm_bound,
        "contractivity_margin": sample.contractivity_margin,
        "tail_bound": sample.tail_bound,
        "scale": sample.scale,
    }
    coeffs = []
    if sample.setting == "disk":
        for n in sorted(sample.coefficients):
            coeffs.append({"index": int(n),
                           "matrix": matrix_to_json(sample.coefficients[n])})
        doc["shape"] = list(sample.shape)
    elif sample.setting == "ball":
        for w in sorted(sample.coefficients, key=lambda w: (len(w), w)):
            coeffs.append({"index": list(w),
                           "matrix": matrix_to_json(sample.coefficients[w])})
        doc["d"] = sample.d
        doc["shape"] = list(sample.shape)
    else:
        for p in sorted(sample.coefficients,
                        key=lambda p: (p.length, p.arrows, p.source)):
            coeffs.append({"index": {"arrows": list(p.arrows), "vertex": p.source},
                           "matrix": matrix_to_json(sample.coefficients[p])})
        doc["quiver"] = quiver_to_json(sample.quiver)
        doc["in_dims"] = dict(sample.in_dims.dims)
        doc["out_dims"] = dict(sample.out_dims.dims)
    doc["coefficients"] = coeffs
    return doc


def sample_from_json(doc) -> SchurSample:
    from .oracle import SchurSample

    setting = doc["setting"]
    common = dict(norm_bound=float(doc["norm_bound"]),
                  tail_bound=float(doc.get("tail_bound", 0.0)),
                  scale=float(doc.get("scale", 1.0)))
    if setting == "disk":
        coeffs = {int(c["index"]): matrix_from_json(c["matrix"])
                  for c in doc["coefficients"]}
        return SchurSample("disk", coeffs, shape=tuple(doc["shape"]), **common)
    if setting == "ball":
        coeffs = {tuple(c["index"]): matrix_from_json(c["matrix"])
                  for c in doc["coefficients"]}
        return SchurSample("ball", coeffs, d=int(doc["d"]),
                           shape=tuple(doc["shape"]), **common)
    if setting == "quiver":
        G = quiver_from_json(doc["quiver"])
        in_dims = grading_from_json(G, doc["in_dims"])
        out_dims = grading_from_json(G, doc["out_dims"])
        coeffs = {}
        for c in doc["coefficients"]:
            arrows = tuple(c["index"]["arrows"])
            if arrows:
                p = G.path(arrows)
            else:
                p = G.vertex_path(c["index"]["vertex"])
            coeffs[p] = matrix_from_json(c["matrix"])
        return SchurSample("quiver", coeffs, quiver=G, in_dims=in_dims,
                           out_dims=out_dims, **common)
    raise ArgumentError(f"unknown sample setting {setting!r}")
