"""Outside-in tracer for the stegolink modules.

For the length of one traced trial, the tracer wraps each traced function
where its callers look it up, times every call as a span, and then puts
every original back.  Nothing in
the package knows about it.  Callers import by name (``pipeline`` binds
``edict_forward`` and ``generate_reference``, ``reference`` binds
``ddim_sample``, four modules bind ``gaussian_stream``), so a function is
replaced in every ``stegolink`` namespace that holds it, under whatever name.
Methods are replaced on their class, which every caller goes through.

A span's self time is its duration minus the durations of the spans it
encloses.  One trial is a root span opened by the benchmark around one
``next()`` of ``iter_sweep``; the root's self time is the harness's own code
(trial config, record dicts) plus the tracer's cost at that level.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import weakref

from time import perf_counter

# (defining module, qualified name).  The module name is the span's layer.
TARGETS = (
    ("rng", "gaussian_stream"), ("rng", "uniform_stream"), ("rng", "hash_token"),
    ("rng", "derive"), ("rng", "RandomStream.take"),
    ("schedule", "build_schedule"),
    ("predictor", "Predictor.__init__"), ("predictor", "Predictor.predict"),
    ("predictor", "Predictor.weights_for"), ("predictor", "guided_predict"),
    ("predictor", "embed_text"),
    ("edict", "edict_forward"), ("edict", "edict_reverse"), ("edict", "ddim_sample"),
    ("tokenkey", "init_latent"), ("tokenkey", "build_mask"), ("tokenkey", "perturb"),
    ("tokenkey", "restore"),
    ("reference", "generate_reference"), ("reference", "embed_reference"),
    ("channel", "encode"), ("channel", "transmit"), ("channel", "decode"),
    ("metrics", "compare"),
    ("pipeline", "build_conditions"), ("pipeline", "hide"), ("pipeline", "reveal"),
    ("pipeline", "eavesdrop"), ("pipeline", "run_trial"), ("pipeline", "make_secret"),
)

PACKAGE = "stegolink"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def _predictor_identity(pred) -> tuple:
    # public attributes only; a predictor without them counts as its own kind
    return (getattr(pred, "kind", None), repr(getattr(pred, "weight_seed", None)),
            getattr(pred, "embed_dim", None))


class Tracer:
    """Span recorder over the stegolink namespaces.

    ``stats`` maps a span key ("layer.function" or "layer.function:variant")
    to [calls, inclusive s, self s, work units].  Keys are filled only for
    spans that ran inside ``trial``.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.absent: list[str] = []
        self.trials = 0
        self.wall_s = 0.0
        self.root_self_s = 0.0
        self.weight_sets: set = set()
        self.reference_inputs: set = set()
        self._stack: list[list[float]] = [[0.0]]
        self._weights_seen = weakref.WeakKeyDictionary()
        self._last_stego = None
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    # -- patch plan ------------------------------------------------------------

    def _plan(self) -> None:
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        by_function = {}
        for module_name, qualname in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            key = f"{module_name}.{attr}"
            wrapper = self._wrap(original, key, self._classifier(key), keep_result=key == "pipeline.hide")
            if owner_name:
                self._patches.append((owner, attr, original, wrapper))
            else:
                by_function[id(original)] = (original, wrapper)
        for ns in namespaces:
            for attr, value in vars(ns).items():
                hit = by_function.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value, hit[1]))

    # -- spans -----------------------------------------------------------------

    def trial(self, step):
        """Run ``step()`` as one traced root span; returns (result, seconds).

        The wrappers are in place only for the duration of the call, and
        every original is put back even when ``step`` raises.
        """
        root = [0.0]
        self._stack[:] = [root]
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            t0 = perf_counter()
            result = step()
            dt = perf_counter() - t0
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)
            self._last_stego = None
        self.trials += 1
        self.wall_s += dt
        self.root_self_s += dt - root[0]
        return result, dt

    def _wrap(self, fn, key: str, classify, keep_result: bool):
        stack = self._stack
        stats = self.stats
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, units = classify(args, kwargs) if classify is not None else (key, 0)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                st = stats.get(span)
                if st is None:
                    st = stats[span] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                st[3] += units
            if keep_result:
                tracer._last_stego = result
            return result

        return wrapper

    def _classifier(self, key: str):
        """Per-function hook that names the span variant and its work units.

        Hooks read arguments before the call; an argument layout they do
        not recognise falls back to the plain key instead of failing.
        """

        def guarded(hook):
            def classify(args, kwargs):
                try:
                    return hook(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    return key, 0
            return classify

        if key == "rng.gaussian_stream":
            return guarded(lambda a, k: (key, int(_arg(a, k, 1, "n"))))
        if key == "channel.transmit":
            return guarded(lambda a, k: (key, int(_arg(a, k, 0, "frame").symbols.size)))
        if key == "pipeline.eavesdrop":
            return guarded(lambda a, k: (f"{key}:{_arg(a, k, 2, 'model')}", 0))
        if key == "pipeline.reveal":
            return guarded(lambda a, k: (f"{key}:roundtrip" if _arg(a, k, 0, "stego_hat") is self._last_stego
                                         else f"{key}:legit", 0))
        if key == "predictor.weights_for":
            def weights(args, kwargs):
                pred, n = args[0], int(_arg(args, kwargs, 1, "n"))
                seen = self._weights_seen.setdefault(pred, set())
                if n in seen:
                    return f"{key}:hit", 0
                seen.add(n)
                self.weight_sets.add((*_predictor_identity(pred), n))
                return f"{key}:build", 0
            return guarded(weights)
        if key == "reference.generate_reference":
            def reference(args, kwargs):
                token = _arg(args, kwargs, 0, "token")
                conditions = _arg(args, kwargs, 1, "conditions")
                sched = _arg(args, kwargs, 2, "sched")
                pred = _arg(args, kwargs, 3, "pred")
                shape = tuple(_arg(args, kwargs, 4, "shape"))
                self.reference_inputs.add(_digest(
                    token, shape, sched.beta, _predictor_identity(pred), conditions.key_embedding,
                    conditions.feature_embedding, conditions.guidance_weight))
                return key, 0
            return guarded(reference)
        return None

    # -- summaries -------------------------------------------------------------

    def summary(self) -> dict:
        """Plain-data totals, so several workload processes can be pooled."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "absent": list(self.absent),
            "trials": self.trials,
            "wall_s": self.wall_s,
            "root_self_s": self.root_self_s,
            "weight_sets": sorted(repr(w) for w in self.weight_sets),
            "reference_inputs": sorted(self.reference_inputs),
        }
