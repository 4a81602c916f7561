import re
from pathlib import Path

import fairrepair
from fairrepair import dataset, errors, lex, metrics, ot, repair, solver, synth

PUBLIC_MODULES = (dataset, errors, lex, metrics, ot, repair, solver, synth)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_every_public_module_name_once():
    names = fairrepair.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in PUBLIC_MODULES for name in module.__all__}
    for module in PUBLIC_MODULES:
        for name in module.__all__:
            assert getattr(fairrepair, name) is getattr(module, name)


def readme_api_bullets() -> dict[str, str]:
    """The README's public-API list: module name -> the text of its bullet."""
    text = README.read_text(encoding="utf-8")
    api = text[text.index("The public API, by module."):text.index("## Command line")]
    return dict(re.findall(r"^- `(\w+)`: (.*?)(?=^- |\Z)", api, flags=re.M | re.S))


def test_readme_api_list_names_every_public_name():
    """Each ``__all__`` name starts a backticked token in its module's README
    bullet, alone or as in `build_problem(plan, ds, kind)`."""
    bullets = readme_api_bullets()
    assert set(bullets) == {module.__name__.rpartition(".")[2] for module in PUBLIC_MODULES}
    for module in PUBLIC_MODULES:
        tokens = re.findall(r"`([^`]+)`", bullets[module.__name__.rpartition(".")[2]])
        missing = [name for name in module.__all__
                   if not any(re.match(rf"{re.escape(name)}\b", t) for t in tokens)]
        assert not missing, f"README API bullet for {module.__name__} omits {missing}"
