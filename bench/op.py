"""The unit of work every workload is made of."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    """One timed operation.  ``run`` is the timed call; ``check`` gets
    its result and returns None when the answer is right, or a failure
    reason."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
