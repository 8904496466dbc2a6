"""The number of settable options of wedgebvp, pinned.

Each independent option doubles the configurations that tests and the
benchmark must cover, so the count is held fixed here: a change that adds
or removes an option changes OPTION_COUNT in the open.

The rule counts, over the public modules of the package:

* every parameter with a default of a public function defined in the
  module;
* every parameter with a default of a method written in the body of a
  public class defined there: its public methods and its __init__, static
  methods, class methods and property getters included, but not the
  __init__ that dataclass generates;
* every field of the configuration records RunConfig, GridSpec,
  ProblemParams and Tolerances, with a default or without.

Private names (a leading underscore) and nested functions are not counted.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import wedgebvp

OPTION_COUNT = 45

CONFIG_RECORDS = {"RunConfig", "GridSpec", "ProblemParams", "Tolerances"}


def _defaults(fn) -> int:
    params = inspect.signature(fn).parameters.values()
    return sum(p.default is not inspect.Parameter.empty for p in params)


def _written_methods(cls, source: str):
    for name, attr in vars(cls).items():
        if name.startswith("_") and name != "__init__":
            continue
        fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
        # A dataclass's generated __init__ has no source in the module.
        if inspect.isfunction(fn) and fn.__code__.co_filename == source:
            yield fn


def count_options():
    """{qualified name: options} over the public modules of wedgebvp."""
    counts = {}
    for info in pkgutil.iter_modules(wedgebvp.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"wedgebvp.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                counts[f"{info.name}.{name}"] = _defaults(obj)
            elif inspect.isclass(obj):
                if name in CONFIG_RECORDS:
                    counts[f"{info.name}.{name} fields"] = len(dataclasses.fields(obj))
                for fn in _written_methods(obj, mod.__file__):
                    counts[f"{info.name}.{fn.__qualname__}"] = _defaults(fn)
    return {k: n for k, n in counts.items() if n}


def test_settable_option_count_is_pinned():
    counts = count_options()
    assert sum(counts.values()) == OPTION_COUNT, sorted(counts.items())


def test_the_config_records_are_all_found():
    found = {k.split(".")[1].split()[0] for k in count_options() if k.endswith(" fields")}
    assert found == CONFIG_RECORDS
