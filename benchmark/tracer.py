"""Out-of-process tracing of the mslidar layers.

The tracer wraps the public functions of each mslidar module from the
outside, so the program under test is unchanged. Each call of a wrapped
function is one span: (name, start, end, parent, stage id), kept in
memory and written out once, when the stage ends. Counts are taken from
the wrapped calls' arguments and return values, and from the package's
own INFO log records.

Run as a script it is a traced stand-in for the ``mslidar`` entry point:

    python3 benchmark/tracer.py SPANS.json STAGE_ID -- <mslidar argv...>

It installs the wrappers, calls ``mslidar.cli.main(argv)`` in this fresh
process, writes the spans and counts to SPANS.json and exits with the
stage's exit code.
"""

import functools
import json
import logging
import os
import sys
import time

# (module, attribute) of every wrapped callable; "Class.method" wraps a
# method on its class. The span name is "<module>.<last part>".
TRACED = (
    ("cli", "main"),
    ("pipeline", "write_manifest"),
    ("pipeline", "file_sha256"),
    ("columnar", "read_columnar"),
    ("columnar", "write_columnar"),
    ("lasio", "read_las"),
    ("lasio", "write_las"),
    ("cloud", "build_index"),
    ("cloud", "SpatialIndex.knn_batch"),
    ("preprocess", "sor_filter"),
    ("preprocess", "merge_channels"),
    ("preprocess", "voxel_subsample"),
    ("csf", "simulate_cloth"),
    ("csf", "csf_ground"),
    ("dtm", "build_dtm"),
    ("dtm", "normalize_height"),
    ("split", "split_plots"),
    ("features", "add_pndvi"),
    ("features", "fit_config_normalization"),
    ("features", "assemble_features"),
    ("classifier", "neighborhood_graph"),
    ("classifier", "neighborhood_stats"),
    ("classifier", "predict"),
    ("classifier", "save_checkpoint"),
    ("classifier", "load_checkpoint"),
    ("mlp", "train"),
    ("mlp", "Mlp.forward"),
    ("mlp", "Mlp.loss_and_grads"),
    ("evaluation", "evaluate"),
    ("evaluation", "run_ablation"),
    ("synth", "generate_scene"),
)

# Counters a traced process reports, whether or not its stage touches them.
COUNTS = (
    "cloud.knn_batch.queries", "preprocess.sor.removed",
    "preprocess.voxel.kept", "preprocess.merge.missing",
    "dtm.nodata_cells", "split.tiles", "csf.iterations",
    "columnar.mb_written", "pipeline.sha256_mb",
    "mlp.batches", "mlp.rows", "mlp.gflop",
)

_MB = float(1 << 20)


def _mlp_macs(sizes) -> int:
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _count(name, args, result, counts):
    """Counters read off one call's arguments and return value."""
    if name == "cloud.knn_batch":
        counts["cloud.knn_batch.queries"] += len(args[1])
    elif name == "preprocess.sor_filter":
        counts["preprocess.sor.removed"] += int(result[1].size)
    elif name == "preprocess.voxel_subsample":
        counts["preprocess.voxel.kept"] += result.count
    elif name == "dtm.build_dtm":
        counts["dtm.nodata_cells"] += int(result.nodata.sum())
    elif name == "split.split_plots":
        counts["split.tiles"] += int(result.tile_ids.shape[0])
    elif name == "columnar.write_columnar":
        counts["columnar.mb_written"] += os.path.getsize(args[1]) / _MB
    elif name == "pipeline.file_sha256":
        counts["pipeline.sha256_mb"] += os.path.getsize(args[0]) / _MB
    elif name == "mlp.loss_and_grads":
        model, rows = args[0], len(args[1])
        counts["mlp.batches"] += 1
        counts["mlp.rows"] += rows
        counts["mlp.gflop"] += 6 * _mlp_macs(model.sizes) * rows / 1e9


class _LogCounter(logging.Handler):
    """Counts from the package's INFO records (cloth iterations, merge misses)."""

    def __init__(self, tracer):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record):
        msg = record.msg
        if record.name == "mslidar.csf" and msg.startswith("cloth converged after"):
            self.tracer.converged = int(record.args[0])
        elif record.name == "mslidar.preprocess" and "cross-channel values missing" in msg:
            self.tracer.counts["preprocess.merge.missing"] += int(record.args[0])


class Tracer:
    """Spans and counts of one process; single-threaded (a call stack)."""

    def __init__(self, stage_id: int = 0):
        self.stage_id = stage_id
        # (name, start, end, parent index or -1, stage id)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0)
        self.converged: int | None = None

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(idx)
            if name == "csf.simulate_cloth":
                tracer.converged = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.stage_id)
            _count(name, args, result, tracer.counts)
            if name == "csf.simulate_cloth":
                # no "converged" record: the cloth ran its full budget
                params = args[1] if len(args) > 1 else kwargs["params"]
                tracer.counts["csf.iterations"] += (
                    tracer.converged if tracer.converged is not None
                    else params.iterations
                )
            return result

        return wrapper

    def install(self, modules=None):
        """Wrap every TRACED callable, wherever a module holds a reference."""
        import importlib

        if modules is None:
            modules = sorted({m for m, _ in TRACED})
        mods = {m: importlib.import_module(f"mslidar.{m}") for m in modules}
        every = [
            mod for key, mod in sys.modules.items()
            if key == "mslidar" or key.startswith("mslidar.")
        ]
        for modname, attr in TRACED:
            if modname not in mods:
                continue
            mod = mods[modname]
            name = f"{modname}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            # `from .x import f` copies the reference: patch every holder
            for holder in every:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapped)
        logging.getLogger("mslidar").addHandler(_LogCounter(self))

    def record(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus child-span time."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def _main(argv) -> int:
    out_path, stage_id, sep, *cli_argv = argv
    if sep != "--":
        print("usage: tracer.py SPANS.json STAGE_ID -- <mslidar argv...>", file=sys.stderr)
        return 2
    import mslidar.cli  # the import every user's process pays

    imported = time.monotonic()
    tracer = Tracer(int(stage_id))
    tracer.install()
    try:
        return mslidar.cli.main(cli_argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({**tracer.record(), "imported": imported}, fh)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
