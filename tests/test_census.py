"""tools/census.py on a throwaway package."""
import importlib.util

SOURCE = '''\
def deco(f):
    return f


def called():
    return 1


@deco
def decorated():
    return 2


class Box:
    def uncalled(self):
        return 3
'''


def test_census_tells_what_each_run_reaches(census_tool, tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    path = package / "mod.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("census_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    funcs = census_tool.functions(package)
    assert [(f.name, f.size) for f in funcs] == [
        ("mod.deco", 2), ("mod.called", 2), ("mod.decorated", 3), ("mod.Box.uncalled", 2),
    ]
    with census_tool.Recorder() as bench:
        module.called()
    with census_tool.Recorder() as tests:
        module.called()
        module.decorated()  # its code's first line is the decorator's
    reach = census_tool.classify(funcs, bench.called(funcs), tests.called(funcs))
    assert reach == {
        "mod.deco": "none", "mod.called": "bench", "mod.decorated": "tests only", "mod.Box.uncalled": "none",
    }
    assert census_tool.problems(reach, {"mod.deco": "why", "mod.decorated": "why", "mod.called": "why"}) == [
        "mod.Box.uncalled: none, and not in ALLOWED",
        "mod.called: in ALLOWED, but the benchmark reaches it",
    ]
    assert census_tool.problems(reach, {"mod.deco": "", "mod.decorated": "", "mod.Box.uncalled": "", "mod.gone": ""}) == [
        "mod.gone: in ALLOWED, but no such function",
    ]
