"""Spans around fiberband's public names, and the per-layer numbers.

The tracer replaces public names at module boundaries with wrappers
that record a span (name, start, end, parent) and the work counts of
the call. Nothing inside the package is edited: a name is wrapped where
callers look it up, so `fiberband.cli.propagate` and
`fiberband.propagation.propagate` are wrapped separately. Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import time

from fiberband import cli, config, gf, planner, propagation

LAYERS = ("config", "fields", "propagation", "cli", "planner", "gf")

# Computed bytes moved per sample by one split step at alpha0 = 0, from
# the array passes of propagation._step_kernel on complex128 (16 B) and
# float64 (8 B) arrays, ignoring caches: |q| 24, **2 16, *coef 24,
# exp 32, q*phase 48, fft 32, spec*disp 48, ifft 32.
STEP_BYTES_PER_SAMPLE = 256
# Extra bytes per sample on a filter site: ~mask 2, spec[~mask] 17,
# np.where 33 (the out-of-band gather itself is small and left out).
MASK_BYTES_PER_SAMPLE = 52


def _steps(z_total: float, dz: float) -> int:
    return int(round(z_total / dz))


def _propagate_counts(args, kwargs, result) -> dict:
    f0, z_total, dz, _params, mode = args[:5]
    steps = _steps(z_total, dz)
    if mode.kind == "distributed":
        sites = steps
    elif mode.kind == "lumped":
        sites = steps // _steps(mode.spacing, dz)
    else:
        sites = 0
    records = len(result[1].z)
    return {
        "steps": steps,
        "filter_sites": sites,
        "records": records,
        "ffts": 2 * steps + records,
        "bytes": f0.n * (STEP_BYTES_PER_SAMPLE * steps + MASK_BYTES_PER_SAMPLE * sites),
    }


def _table_counts(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _exponent_set_counts(args, kwargs, result) -> dict:
    return {"muls": args[0].ext.order - 1}


def _certify_counts(args, kwargs, result) -> dict:
    """Sum-interval pair comparisons the certification loop made."""
    channels = args[0]
    n = len(channels.intervals) if hasattr(channels, "intervals") else len(channels)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    m = len(pairs)
    ok, witness = result
    if ok:
        return {"pairs": m * (m - 1) // 2}
    p, q = (pairs.index(w) for w in witness)
    return {"pairs": sum(m - 1 - i for i in range(p)) + (q - p)}


# (owner, attribute, span name, counter); the layer is the span name's prefix
TARGETS = (
    (cli, "run_simulation", "cli.run_simulation", None),
    (cli, "main", "cli.main", None),
    (cli, "write_trace_csv", "cli.write_trace_csv", None),
    (cli, "propagate", "propagation.propagate", _propagate_counts),
    (propagation, "propagate", "propagation.propagate", _propagate_counts),
    (config.ExperimentConfig, "launch_field", "config.launch_field", None),
    (config, "rrc_pulse", "fields.rrc_pulse", None),
    (planner, "max_sidon_table", "planner.max_sidon_table", _table_counts),
    (planner, "bose_sequence", "planner.bose_sequence", None),
    (planner, "is_energy_decoupled", "planner.is_energy_decoupled", _certify_counts),
    (cli, "is_energy_decoupled", "planner.is_energy_decoupled", _certify_counts),
    (gf.FieldGF, "for_size", "gf.for_size", None),
    (gf.FieldGF, "exponent_set", "gf.exponent_set", _exponent_set_counts),
)


class Tracer:
    """Installs the wrappers, and records spans while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, func, name, counter):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = func(*args, **kwargs)
            if counter is not None:
                rec["counts"] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, counter))
            else:
                wrapped = self._wrap(raw, name, counter)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus what its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict], passes: int, scale: float = 1.0) -> dict:
    """Per-layer metrics from the spans of `passes` traced passes.

    Times are seconds per pass; counts are per pass; rates divide a
    count by the self time of the span that did the work. Times are
    multiplied, and rates divided, by `scale` (the run's machine-speed
    factor). Layers a workload does not reach read 0.
    """
    own = self_times(spans)
    by_name: dict[str, dict] = {}
    for s, t in zip(spans, own):
        agg = by_name.setdefault(s["name"], {"self": 0.0, "total": 0.0, "calls": 0, "counts": {}})
        agg["self"] += t
        agg["total"] += s["end"] - s["start"]
        agg["calls"] += 1
        for key, value in s.get("counts", {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value

    def get(name, field="self"):
        return by_name.get(name, {}).get(field, 0.0 if field != "calls" else 0)

    def count(name, key):
        return by_name.get(name, {}).get("counts", {}).get(key, 0)

    per_pass = 1.0 / passes
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(a["self"] for n, a in by_name.items()
                                    if n.split(".")[0] == layer) * per_pass, "s")

    prop = "propagation.propagate"
    steps = count(prop, "steps")
    m["propagation.step_us"] = (1e6 * get(prop) / steps if steps else 0.0, "us")
    m["propagation.steps_per_s"] = (_rate(steps, get(prop)), "1/s")
    m["propagation.steps"] = (steps * per_pass, "count")
    m["propagation.filter_sites"] = (count(prop, "filter_sites") * per_pass, "count")
    m["propagation.records"] = (count(prop, "records") * per_pass, "count")
    m["propagation.ffts"] = (count(prop, "ffts") * per_pass, "count")
    m["propagation.bytes_per_step"] = (count(prop, "bytes") / steps if steps else 0.0, "B")

    m["cli.write_trace_s"] = (get("cli.write_trace_csv", "total") * per_pass, "s")
    m["config.launch_field_s"] = (get("config.launch_field", "total") * per_pass, "s")
    m["fields.rrc_pulse_s"] = (get("fields.rrc_pulse", "total") * per_pass, "s")

    table = "planner.max_sidon_table"
    m["planner.table_s"] = (get(table, "total") * per_pass, "s")
    m["planner.rows_per_s"] = (_rate(count(table, "rows"), get(table)), "1/s")
    m["planner.table_rows"] = (count(table, "rows") * per_pass, "count")

    cert = "planner.is_energy_decoupled"
    m["planner.certify_s"] = (get(cert, "total") * per_pass, "s")
    m["planner.certify_pairs_per_s"] = (_rate(count(cert, "pairs"), get(cert)), "1/s")
    m["planner.certify_pairs"] = (count(cert, "pairs") * per_pass, "count")

    m["gf.for_size_s"] = (get("gf.for_size", "total") * per_pass, "s")
    m["gf.exponent_set_s"] = (get("gf.exponent_set", "total") * per_pass, "s")
    m["gf.mul_per_s"] = (_rate(count("gf.exponent_set", "muls"), get("gf.exponent_set")), "1/s")
    m["gf.muls"] = (count("gf.exponent_set", "muls") * per_pass, "count")

    for _owner, _attr, name, _counter in TARGETS:
        m[f"{name}.calls"] = (get(name, "calls") * per_pass, "count")

    factor = {"s": scale, "us": scale, "1/s": 1.0 / scale}
    return {name: (value * factor.get(unit, 1.0), unit) for name, (value, unit) in m.items()}
