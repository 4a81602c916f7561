import fairrepair
from fairrepair import dataset, errors, lex, metrics, ot, repair, solver, synth

PUBLIC_MODULES = (dataset, errors, lex, metrics, ot, repair, solver, synth)


def test_package_exports_every_public_module_name_once():
    names = fairrepair.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in PUBLIC_MODULES for name in module.__all__}
    for module in PUBLIC_MODULES:
        for name in module.__all__:
            assert getattr(fairrepair, name) is getattr(module, name)
