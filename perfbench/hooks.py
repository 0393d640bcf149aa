"""Reversible patches of txsim's public entry points, and the per-cell capture.

The benchmark observes txsim from outside: it swaps a function or method for
a wrapper before the cell is built and puts the original back afterwards.
Handlers are bound when a node registers them, so every patch must be in
place before ``run_experiment`` constructs the pipeline.  A module-level
function that other modules imported by value (``from x import f``) is
replaced at every txsim module that holds it, so no caller keeps the
unwrapped original.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, List, Optional, Tuple


def resolve(target: str):
    """``"pkg.module:Name.attr"`` -> (owner object, attribute name, current value)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patches:
    """A stack of attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, target: str, make_wrapper: Callable) -> None:
        """Replace ``target`` with ``make_wrapper(original)``.

        A method is replaced on the class that defines it.  A module-level
        function is replaced in every loaded txsim module bound to it.
        """
        owner, attr, original = resolve(target)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            if attr not in vars(owner):
                raise AttributeError(f"{target} is inherited; patch the defining class")
            self._set(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "txsim" or name.startswith("txsim.")):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    self._set(module, binding, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Capture:
    """What one ``run_experiment`` call exposes through its public hooks.

    ``pipeline`` is the ``PipelineBase`` whose ``drive`` ran (flat designs);
    ``runner``/``sharded_result`` are the ``ShardedRun`` and its result
    (sharded designs); ``run_result`` is the ``RunResult`` that
    ``run_pipeline`` returned to the harness.  ``drive_enter``/``drive_exit``
    are ``perf_counter`` readings at entry to and return from the drive loop.
    """

    def __init__(self):
        self.pipeline = None
        self.runner = None
        self.run_result = None
        self.sharded_result = None
        self.drive_enter: Optional[float] = None
        self.drive_exit: Optional[float] = None

    @property
    def sim(self):
        owner = self.pipeline if self.pipeline is not None else self.runner
        return owner.sim if owner is not None else None

    def _drive_hook(self, slot: str, result_slot: Optional[str]):
        def make(original):
            def hooked(owner, *args, **kwargs):
                setattr(self, slot, owner)
                self.drive_enter = time.perf_counter()
                try:
                    result = original(owner, *args, **kwargs)
                finally:
                    self.drive_exit = time.perf_counter()
                if result_slot is not None:
                    setattr(self, result_slot, result)
                return result

            return hooked

        return make

    def install(self, patches: Patches) -> None:
        patches.wrap("txsim.pipeline.base:PipelineBase.drive", self._drive_hook("pipeline", None))
        patches.wrap("txsim.sharding:ShardedRun.run", self._drive_hook("runner", "sharded_result"))

        def keep_result(original):
            def hooked(*args, **kwargs):
                self.run_result = original(*args, **kwargs)
                return self.run_result

            return hooked

        patches.wrap("txsim.pipeline.run:run_pipeline", keep_result)
