import inspect

from pellip import bellman, ellipticity, field, heatnorm, realform

# Every settable library parameter, i.e. every defaulted parameter of a
# public function.  Fixed values (tolerances, steps, guards, time grids)
# are module constants instead; a new knob has to be added here.
KNOBS = [
    "ellipticity.rotation_matrix.n",
    "ellipticity.delta_p_oracle.samples",
    "ellipticity.delta_p_oracle.refine",
    "ellipticity.delta_p_oracle.rng",
    "ellipticity.mu_oracle.samples",
    "ellipticity.mu_oracle.refine",
    "ellipticity.mu_oracle.rng",
    "field.refinement_study.cells",
    "field.contractivity_probe.trials",
    "field.contractivity_probe.rng",
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
    assert len(found) == 10
