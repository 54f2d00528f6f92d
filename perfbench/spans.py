"""In-memory spans around papnf's public functions, recorded from outside.

A traced run swaps each public function or method listed in LAYERS for a
wrapper that records one span per call: its name, start, end, the span that
was open when it was called, and the benchmark step or window it belongs to.
The program itself is not changed: ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

# (layer, module, attribute). A module-level function is replaced in every
# papnf module that imported it by name, so calls from inside the package are
# traced too. Several attributes may feed one layer.
LAYERS = (
    ("tensor.backward", "papnf.tensor", "Tensor.backward"),
    ("train.fit", "papnf.train", "fit"),
    ("train.loss", "papnf.train", "loss_energy"),
    ("train.adam", "papnf.train", "Adam.step"),
    ("train.validation", "papnf.train", "validation_mse"),
    ("encoder.encode", "papnf.encoder", "NumericalEncoder.encode_global"),
    ("encoder.encode", "papnf.encoder", "NumericalEncoder.encode_patches"),
    ("encoder.encode", "papnf.encoder", "Reprogrammer.reprogram"),
    ("encoder.encode", "papnf.encoder", "build_llm_input"),
    ("backbone.forward", "papnf.backbone", "TransformerBackbone.forward"),
    ("backbone.context", "papnf.backbone", "extract_context"),
    ("flow.fuse", "papnf.flow", "FusionLayer.fuse"),
    ("flow.flow", "papnf.flow", "flow_forward"),
    ("flow.recon", "papnf.flow", "ReconstructionHead.reconstruct"),
    ("evaluate.sample", "papnf.flow", "sample_forecasts"),
    ("evaluate.split", "papnf.evaluate", "evaluate_split"),
    ("metrics.build_report", "papnf.metrics", "build_report"),
    ("evaluate.quantiles_csv", "papnf.evaluate", "write_quantiles_csv"),
    ("data.make_windows", "papnf.data", "make_windows"),
    ("model.init", "papnf.model", "PapNfModel.__init__"),
    ("checkpoint.save", "papnf.train", "save_checkpoint"),
    ("checkpoint.load", "papnf.train", "model_from_checkpoint"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    ctx: str | None  # benchmark step/window id, inherited from the parent
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; thread-safe for appends under the GIL.

    Each thread keeps its own stack of open spans, so a span opened in a
    worker thread has no parent and no ctx: it is kept in the trace file but
    belongs to no step or window.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, ctx: str | None = None, **kwargs):
        """Run ``fn`` inside a span; ``ctx`` starts a new step/window id."""
        stack = self._stack()
        parent, parent_ctx = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        ctx = parent_ctx if ctx is None else ctx
        stack.append((sid, ctx))
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, t0, t1, parent, ctx, threading.get_ident()))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, only: set[str] | None = None) -> None:
        """Wrap every layer in LAYERS, or only the named layers."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        packages = [m for n, m in sys.modules.items() if n == "papnf" or n.startswith("papnf.")]
        for layer, module, attr in LAYERS:
            if only is not None and layer not in only:
                continue
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._saved.append((owner, meth, orig))
                setattr(owner, meth, self.wrap(layer, orig))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(layer, orig)
            for pkg in packages:
                if pkg.__dict__.get(attr) is orig:
                    self._saved.append((pkg, attr, orig))
                    setattr(pkg, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def write_jsonl(self, path: str, t0: float) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                rec = asdict(s)
                rec["start"] -= t0
                rec["end"] -= t0
                fh.write(json.dumps(rec) + "\n")


class SpanIndex:
    """Self times and root spans of a finished trace."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        by_id = {s.id: s for s in spans}
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        # a span's self time is its duration minus what its children cover
        self.self_time = {s.id: s.duration - covered[s.id] for s in spans}
        self.root: dict[int, Span] = {}
        self.trees: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            top = s
            while top.parent is not None:
                top = by_id[top.parent]
            self.root[s.id] = top
            self.trees[top.id].append(s)

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def self_by_layer(self, root_name: str) -> dict[str, float]:
        """Total self seconds per layer over the trees under ``root_name``."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if self.root[s.id].name == root_name and s.parent is not None:
                out[s.name] += self.self_time[s.id]
        return out

    def inclusive_by_layer(self, root_name: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if self.root[s.id].name == root_name and s.parent is not None:
                out[s.name] += s.duration
        return out

    def tree_adds_up(self, root: Span, tol: float = 1e-9) -> bool:
        """Layer self times under ``root`` sum to its duration, none negative.

        A child that overlaps a sibling or sticks out of its parent drives
        some self time below zero, so this also checks the span nesting.
        """
        tree = self.trees[root.id]
        selfs = [self.self_time[s.id] for s in tree]
        total = sum(selfs)
        return min(selfs) >= -tol and abs(total - root.duration) <= tol * (1 + len(tree))
