"""Helpers the tests share that no command needs: `replace` for the
library's records, `assert_refused` for the memos' index rule, the JSON
writer for instances, and the distinguished wrapped generator e_r of the
continuation maps."""

import inspect

import pytest

from affinefloer.affine import AffinePolygon, FractionalPoint, rat_str
from affinefloer.wrapped import Complement


def replace(obj, **changes):
    """A copy of the record `obj` with `changes`, rebuilt through its public
    constructor, as `dataclasses.replace` does: every other constructor
    parameter is read from `obj` by name, so validation runs again and a
    polygon's memos start empty."""
    params = inspect.signature(type(obj)).parameters
    unknown = changes.keys() - params.keys()
    if unknown:
        raise TypeError(f"{type(obj).__name__} has no parameters {sorted(unknown)}")
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in params})


def assert_refused(memo: dict, message: str, call, *args) -> None:
    """`call(*args)` raises ValueError with exactly `message` and leaves
    `memo` as it was: a key that is not all ints, refused on a miss."""
    before = dict(memo)
    with pytest.raises(ValueError) as raised:
        call(*args)
    assert str(raised.value) == message
    assert memo == before


def polygon_to_json(polygon: AffinePolygon) -> dict:
    """The instance in the schema `affine.polygon_from_json` reads."""
    return {
        "eta_min": rat_str(polygon.eta_min),
        "eta_max": rat_str(polygon.eta_max),
        "singularities": [
            {"eta": rat_str(s.eta_pos), "xi": rat_str(s.xi_pos), "mult": s.multiplicity}
            for s in polygon.singularities
        ],
        "top": [[rat_str(v.eta), rat_str(v.xi)] for v in polygon.top.vertices],
        "bottom": [[rat_str(v.eta), rat_str(v.xi)] for v in polygon.bottom.vertices],
        "corners": {"left": polygon.left_corner, "right": polygon.right_corner},
    }


def wrap_step(case: Complement) -> int:
    """[y] + 2[p]: 1, 2, 3 for L, C, D, writing [y] and [p] for the case's
    flags as 0 or 1."""
    return case.inverts_y + 2 * case.inverts_p


def e_element(case: Complement, r: int) -> FractionalPoint:
    """The distinguished wrapped generator e_r = (y^[y] p^[p])^{r/step} at
    wrapping level r, a positive multiple of the case's wrap step: the point
    (0, [p]*r/step, r).  The continuation map of level r is the product with
    it, `wrapped.wrapped_product(case, e_element(case, r), q)`."""
    step = wrap_step(case)
    if r <= 0 or r % step != 0:
        raise ValueError(f"r must be a positive multiple of {step}")
    return FractionalPoint(0, case.inverts_p * r // step, r)
