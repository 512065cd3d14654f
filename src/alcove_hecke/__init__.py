"""Exact combinatorics of extended affine Weyl groups, alcove geometry,
Kazhdan-Lusztig data of the spherical module, and a Grothendieck-group
multiplicity calculator for the associated graded module categories."""

from .alcove import AlcoveModel
from .engine import Engine, build_engine
from .ext_weyl import AffineGenerator, ExtWeyl, ExtWeylElement
from .groth_calc import ClassVector, FiltrationMultiset, GrothCalc, SimpleLabel
from .hecke import HeckeAlgebra, HeckeElement
from .laurent import LaurentPolynomial
from .orders import PeriodicOrder
from .parabolic import FinitarySubset, make_parabolic
from .root_datum import RootDatum, load_root_datum
from .satake_char import SatakeChar, WeightMultiset
from .suite import SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "AffineGenerator",
    "AlcoveModel",
    "ClassVector",
    "Engine",
    "ExtWeyl",
    "ExtWeylElement",
    "FiltrationMultiset",
    "FinitarySubset",
    "GrothCalc",
    "HeckeAlgebra",
    "HeckeElement",
    "LaurentPolynomial",
    "PeriodicOrder",
    "RootDatum",
    "SatakeChar",
    "SimpleLabel",
    "SuiteReport",
    "WeightMultiset",
    "build_engine",
    "load_root_datum",
    "make_parabolic",
    "run_suite",
    "__version__",
]
