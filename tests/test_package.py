"""The package's start-up contract and namespace.

``softbudget`` registers ``mechanism``, ``discretion``, ``statics``,
``simulation`` and ``reporting`` lazily, so a fresh ``softbudget <command>``
process executes only the modules that command calls.  These checks run in
fresh interpreters, since this test process has loaded everything already.
A lazily registered module that has not run yet is an instance of a
``types.ModuleType`` subclass; testing ``type(module)`` reads no attribute,
so it loads nothing.
"""

import json
import re
import subprocess
import sys

import pytest

import softbudget
from conftest import ROOT

SRC = str(ROOT / "src")
LAZY = {"mechanism", "discretion", "statics", "simulation", "reporting"}
# what `import softbudget.cli` and `load_config` execute; `import softbudget` executes all but `cli`
EAGER = {"cli", "config", "costs", "distributions", "errors", "primitives"}
CONFIGS = sorted((ROOT / "configs").glob("*.json"))

# prints the softbudget modules that have run
_EXECUTED = ("import json, types; print(json.dumps(sorted(n.removeprefix('softbudget.') "
             "for n, m in sys.modules.items() if n.startswith('softbudget.') and type(m) is types.ModuleType)))")


def _fresh(code: str) -> list:
    """Run ``code`` in a fresh interpreter with ``src`` first on the path; return ``_EXECUTED``'s report."""
    program = f"import sys; sys.path.insert(0, {SRC!r})\n{code}\n{_EXECUTED}"
    done = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def readme_module_sets() -> dict:
    """The README's start-up table: each command's modules with discretion off and on."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \| (.*) \|$", text, flags=re.MULTILINE)
    return {command: tuple(set(re.findall(r"`(\w+)`", cell)) for cell in (off, on)) for command, off, on in rows}


def test_import_and_load_config_leave_the_lazy_modules_unexecuted():
    code = "import softbudget.cli as cli\n" + "".join(f"cli.load_config({str(p)!r})\n" for p in CONFIGS)
    executed = _fresh(code)
    assert set(executed) == EAGER


def test_every_module_is_one_that_a_command_or_the_package_import_executes():
    modules = {p.stem for p in (ROOT / "src" / "softbudget").glob("*.py")} - {"__init__", "__main__"}
    assert modules == EAGER | LAZY


def test_readme_lists_every_command():
    from softbudget.cli import _COMMANDS

    assert list(readme_module_sets()) == list(_COMMANDS)


@pytest.mark.parametrize("config, column", [("commitment_benchmark.json", 0), ("discretion_benchmark.json", 1)],
                         ids=["discretion-off", "discretion-on"])
@pytest.mark.parametrize("command", ["solve", "knife-edge", "discretion", "statics", "simulate", "oracle"])
def test_each_command_executes_the_modules_the_readme_lists(tmp_path, command, config, column):
    # a small grid keeps the run short; the modules a command calls do not depend on it
    argv = [command, "--config", str(ROOT / "configs" / config), "--out", str(tmp_path), "--grid", "257", "--quiet"]
    executed = _fresh(f"import softbudget.cli as cli\ncli.main({argv!r})")
    assert set(executed) == EAGER | readme_module_sets()[command][column]


def test_every_exported_name_is_its_defining_modules_object():
    assert softbudget.fixed_point is softbudget.discretion.fixed_point
    for name in softbudget.__all__:
        if name == "__version__":
            continue
        obj = getattr(softbudget, name)
        module = obj.__module__
        assert module.removeprefix("softbudget.") in LAZY | EAGER, name
        assert getattr(sys.modules[module], name) is obj, name


def test_star_import_and_dir_list_every_exported_name():
    namespace = {}
    exec("from softbudget import *", namespace)
    assert set(softbudget.__all__) <= set(namespace)
    assert set(softbudget.__all__) <= set(dir(softbudget))
    assert LAZY <= set(dir(softbudget))


def test_star_import_in_a_fresh_interpreter_binds_every_exported_name():
    # each lazily exported name is read through PEP 562 on a module that has not run yet
    executed = _fresh(
        "import softbudget\n"
        "namespace = {}\n"
        "exec('from softbudget import *', namespace)\n"
        "assert set(softbudget.__all__) <= set(namespace), set(softbudget.__all__) - set(namespace)"
    )
    assert set(executed) == EAGER - {"cli"} | LAZY - {"reporting"}  # `reporting` exports no name


def test_each_lazy_name_in_a_fresh_interpreter_is_its_home_modules_object():
    executed = _fresh(
        "import softbudget\n"
        "for name, home in softbudget._HOME.items():\n"
        "    obj = getattr(softbudget, name)\n"
        "    assert obj.__module__ == f'softbudget.{home}', name\n"
        "    assert getattr(sys.modules[obj.__module__], name) is obj, name"
    )
    assert set(executed) == EAGER - {"cli"} | LAZY - {"reporting"}


def test_readme_library_example_in_a_fresh_interpreter():
    # the example's prints are collected, so `_fresh`'s last line stays its module report
    example = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)[0]
    executed = _fresh(
        "printed = []\n"
        f"exec(compile({example!r}, 'README.md', 'exec'), {{'print': lambda *a: printed.append(a)}})\n"
        "(theta_min, theta_dagger), (no_rescue,), (lambda_T, p_int) = printed\n"
        "assert abs(theta_min - 0.125) < 1e-6 and abs(theta_dagger - 0.625) < 1e-6, printed\n"
        "assert no_rescue is False and abs(lambda_T - 0.897) < 1e-3 and abs(p_int - 0.257) < 1e-3, printed"
    )
    assert set(executed) == EAGER - {"cli"} | {"mechanism", "discretion"}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'softbudget' has no attribute 'no_such_name'$"):
        softbudget.no_such_name
    assert not hasattr(softbudget, "effective_weight")
