"""Numerical verification of multiplication-form spectral theorems for
quaternionic normal operators on finite-dimensional right Hilbert modules."""

from .quaternion import (
    DEFAULT_TOL,
    I,
    J,
    K,
    ONE,
    ZERO,
    Quaternion,
    SimilarityOrbit,
    SliceFrame,
    STANDARD_FRAME,
    cm_to_complex,
    complex_to_cm,
    in_slice,
    orbit_of,
    slice_join,
    slice_split,
)
from .operators import QMatrix, delta
from .vectors import expand, gram_schmidt, inner, norm, reconstruct, scale_right
from .bridge import CMatrix, SpectralDecomposition, chi, spectral_decompose
from .slices import SliceStructure, build_J, extend, quaternionify
from .measure import AtomicMeasureSpace, L2Element, Symbol, ess_ran, ess_sup, m_phi
from .spectral import (
    MultiplicationForm,
    SphereSpectrum,
    delta_oracle,
    multiplication_form,
    sphere_spectrum,
)
from .transform import BoundedTransform, bounded_transform, inverse_transform

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasureSpace",
    "BoundedTransform",
    "CMatrix",
    "DEFAULT_TOL",
    "I",
    "J",
    "K",
    "L2Element",
    "MultiplicationForm",
    "ONE",
    "QMatrix",
    "Quaternion",
    "SimilarityOrbit",
    "SliceFrame",
    "SliceStructure",
    "SpectralDecomposition",
    "SphereSpectrum",
    "STANDARD_FRAME",
    "Symbol",
    "ZERO",
    "bounded_transform",
    "build_J",
    "chi",
    "cm_to_complex",
    "complex_to_cm",
    "delta",
    "delta_oracle",
    "ess_ran",
    "ess_sup",
    "expand",
    "extend",
    "gram_schmidt",
    "in_slice",
    "inner",
    "inverse_transform",
    "m_phi",
    "multiplication_form",
    "norm",
    "orbit_of",
    "quaternionify",
    "reconstruct",
    "scale_right",
    "slice_join",
    "slice_split",
    "spectral_decompose",
    "sphere_spectrum",
    "__version__",
]
