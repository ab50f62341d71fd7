import inspect

from pellip import bellman, ellipticity, field, heatnorm, realform

# Every settable library parameter, i.e. every defaulted parameter of a
# public function.  Fixed values (tolerances, steps, guards, time grids,
# sample counts, seeds) are module constants instead; a new knob has to
# be added here.
KNOBS = [
    "ellipticity.rotation_matrix.n",
]


def test_library_declares_only_these_knobs():
    found = []
    for mod in (realform, ellipticity, bellman, field, heatnorm):
        name = mod.__name__.split(".")[-1]
        for fname in mod.__all__:
            fn = getattr(mod, fname)
            if not inspect.isfunction(fn):
                continue
            found += [f"{name}.{fname}.{p.name}"
                      for p in inspect.signature(fn).parameters.values()
                      if p.default is not inspect.Parameter.empty]
    assert sorted(found) == sorted(KNOBS)
    assert len(found) == 1
