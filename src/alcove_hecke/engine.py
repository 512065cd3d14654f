"""Convenience composition of the per-datum computation contexts."""

from __future__ import annotations

from dataclasses import dataclass, field

from .alcove import AlcoveModel
from .ext_weyl import ExtWeyl
from .groth_calc import GrothCalc
from .hecke import HeckeAlgebra
from .memo import Memo
from .orders import PeriodicOrder
from .parabolic import FinitarySubset, make_parabolic
from .root_datum import RootDatum, load_root_datum
from .satake_char import SatakeChar


@dataclass
class Engine:
    datum: RootDatum
    ext: ExtWeyl
    alc: AlcoveModel
    order: PeriodicOrder
    hecke: HeckeAlgebra
    groth: GrothCalc
    satake: SatakeChar
    _parabolics: Memo = field(init=False, repr=False)

    def __post_init__(self):
        self._parabolics = Memo(
            lambda names: make_parabolic(self.ext, [self.ext.gen_by_name(n) for n in names])
        )

    def parabolic(self, gen_names) -> FinitarySubset:
        """FinitarySubset from generator names like ["s1", "s0a"] (memoized)."""
        if isinstance(gen_names, str):
            gen_names = [tok for tok in gen_names.replace(",", " ").split() if tok]
        return self._parabolics[tuple(sorted(gen_names))]


def build_engine(spec) -> Engine:
    datum = spec if isinstance(spec, RootDatum) else load_root_datum(spec)
    ext = ExtWeyl(datum)
    alc = AlcoveModel(ext)
    order = PeriodicOrder(alc)
    groth = GrothCalc(alc, order)
    return Engine(
        datum=datum,
        ext=ext,
        alc=alc,
        order=order,
        hecke=HeckeAlgebra(alc),
        groth=groth,
        satake=groth.satake,
    )
