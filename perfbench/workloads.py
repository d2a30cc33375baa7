"""The three workloads: seeded inputs, one timed pass, and output gates.

Each workload is a closed loop driven from one process: the next item
starts only after the previous one returned. Inputs depend on the seed
alone; the library only ever sees the generated values.

``make_inputs`` and the gate functions use numpy and the standard
library only, so ``run.py`` can apply the gates without importing the
library. ``Pass`` calls the library through module attributes
(``bf.fluctuations.structure_factor``), so a tracer that rebinds those
attributes sees every call.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

WORKLOADS = ("suite", "qsweep", "oracle")

# qsweep: about 40 log-uniform q in [1e-4, 2], one per log-stratum so that
# every seed spends nearly the same quadrature work.
Q_MIN, Q_MAX, N_Q = 1e-4, 2.0, 40
N_TIGHT = 3            # q values re-integrated at rtol=1e-10 by the gate
TIGHT_RTOL = 1e-10
TIGHT_AGREEMENT = 1e-6  # ten times the library's default quadrature rtol

# oracle: word compositions as (zero-mode pairs, +q pairs, -q pairs); each
# pair is one creator and one annihilator, so every word is balanced. The
# seed shuffles token order and mirrors q <-> -q; the composition list is
# fixed because Wick cost depends on it far more than on token order.
WORD_SLOTS = (
    [(0, 2, 2)] * 8 + [(1, 2, 1)] * 4 + [(2, 1, 1)] * 4     # length 8
    + [(1, 2, 2)] * 10 + [(2, 2, 1)] * 6 + [(0, 3, 2)] * 4  # length 10
    + [(3, 2, 1)] * 8                                       # length 12
)
VARIANCE_CASES = (("rho", "imperfect"), ("A", "imperfect"), ("A", "wibg"), ("rho0", "wibg"))
N_VARIANCE_BOXES = 3
ADJOINT_RTOL = 1e-9

# suite: reference tables written by ``bosefluct run`` at the seed commit.
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TABLE_RTOL, TABLE_ATOL = 1e-6, 1e-10
REPEAT_RTOL = 1e-12    # later passes of a run must reproduce the first one


# -- inputs ---------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> dict:
    """JSON-ready inputs of one workload; a function of ``seed`` only."""
    rng = np.random.default_rng(seed)
    if workload == "suite":
        return {}  # the registered checks at the default CheckContext
    if workload == "qsweep":
        edges = np.linspace(math.log(Q_MIN), math.log(Q_MAX), N_Q + 1)
        qs = np.exp(edges[:-1] + rng.uniform(size=N_Q) * np.diff(edges))
        # per q: two models x two specs x (f, g) x (re, im)
        smear = rng.uniform(-1.0, 1.0, size=(N_Q, 2, 2, 2, 2))
        tight = np.sort(rng.choice(N_Q, N_TIGHT, replace=False))
        return {"q": qs.tolist(), "smear": smear.tolist(), "tight": tight.tolist()}
    if workload == "oracle":
        axis = int(rng.integers(3))
        q = [0, 0, 0]
        q[axis] = 1
        # mirroring changes the cost of a word, so exactly half of the
        # words of each composition are mirrored; the seed picks which
        mirrored = {}
        for slot in sorted(set(WORD_SLOTS)):
            n = WORD_SLOTS.count(slot)
            mirrored[slot] = list(rng.permutation([True] * (n // 2) + [False] * (n - n // 2)))
        words = []
        for zero, plus, minus in WORD_SLOTS:
            if mirrored[(zero, plus, minus)].pop():
                plus, minus = minus, plus
            tokens = []
            for mode, count in (((0, 0, 0), zero), (tuple(q), plus),
                                (tuple(-x for x in q), minus)):
                tokens += [[list(mode), dagger] for dagger in (True, False)] * count
            words.append([tokens[i] for i in rng.permutation(len(tokens))])
        variances = []
        for kind, model in VARIANCE_CASES:
            for box in rng.uniform(4.0, 8.0, size=N_VARIANCE_BOXES):
                n = int(rng.integers(1, 4))
                variances.append({"kind": kind, "model": model, "box": float(box),
                                  "q": [n * x for x in q]})
        # the adjoint gate costs as much as the word itself on the superfluid
        # state, so there it checks one seeded word of each composition
        adjoint_wibg = sorted(int(rng.choice([i for i, s in enumerate(WORD_SLOTS) if s == slot]))
                              for slot in sorted(set(WORD_SLOTS)))
        return {"box": float(rng.uniform(3.0, 6.0)), "q": q, "words": words,
                "variances": variances, "adjoint_wibg": adjoint_wibg}
    raise ValueError(f"unknown workload {workload!r}")


def reference_checks() -> list:
    """Names of the checks whose seed-commit tables the suite gate compares."""
    return sorted(path.stem for path in REFERENCE_DIR.glob("*.csv"))


# -- the timed pass (runs in the child process) -----------------------------


class Pass:
    """Library objects a workload needs, built during set-up."""

    def __init__(self, bf, workload: str, inputs: dict, out_dir: Path):
        self.bf = bf
        self.workload = workload
        self.inputs = inputs
        ctx = bf.checks.CheckContext()
        if workload == "suite":
            config = out_dir / "suite.ini"
            config.write_text("[run]\nchecks = " + " ".join(bf.checks.REGISTRY) + "\n")
            self.argv = ["run", str(config), "--workers", "1", "--out", str(out_dir / "tables")]
        elif workload == "qsweep":
            self.params = {"wibg": ctx.wibg, "wibg_thermal": ctx.wibg_thermal,
                           "imperfect_thermal": ctx.imperfect_thermal}
        else:
            grid = bf.model.MomentumGrid(inputs["box"], 1.5 * 2.0 * math.pi / inputs["box"])
            self.states = [bf.quasifree.QuasiFreeState("imperfect", ctx.imperfect_thermal, grid),
                           bf.quasifree.QuasiFreeState("wibg", ctx.wibg_thermal, grid)]
            self.words = [_word(bf, tokens) for tokens in inputs["words"]]
            self.variance_states = []
            for case in inputs["variances"]:
                params = ctx.imperfect_thermal if case["model"] == "imperfect" \
                    else ctx.wibg_thermal
                cutoff = 6.5 if case["model"] == "imperfect" else 4.0
                grid = bf.model.MomentumGrid(case["box"], cutoff)
                self.variance_states.append(
                    bf.quasifree.QuasiFreeState(case["model"], params, grid))

    def run(self):
        """One pass over every item; returns the outputs the gates read."""
        if self.workload == "suite":
            return {"exit_code": self.bf.cli.main(self.argv)}
        if self.workload == "qsweep":
            return [_guard(self._qsweep_item, i) for i in range(len(self.inputs["q"]))]
        words = [_guard(self._word_item, w) for w in self.words]
        variances = [_guard(self._variance_item, i)
                     for i in range(len(self.variance_states))]
        return {"words": words, "variances": variances}

    def _qsweep_item(self, i: int) -> dict:
        fl = self.bf.fluctuations
        q = self.inputs["q"][i]
        wibg, wibg_t = self.params["wibg"], self.params["wibg_thermal"]
        imperfect_t = self.params["imperfect_thermal"]
        out = {
            "S_condensate": fl.structure_factor(q, wibg, "condensate"),
            "S_full": fl.structure_factor(q, wibg, "full"),
            "var_rho_imperfect": fl.variance_rho_imperfect(q, imperfect_t),
            "var_rho0_wibg": fl.variance_rho0_wibg(q, wibg_t),
            "var_A_wibg": fl.variance_A_wibg(q, wibg_t),
        }
        # density smearings renormalized by |q| keep the thermal mean-field
        # variance finite as q -> 0
        for (model, params, renorm), coeffs in zip(
                (("imperfect", imperfect_t, 1.0), ("wibg", wibg_t, 0.0)),
                self.inputs["smear"][i]):
            specs = [fl.FluctuationSpec(model, q, f_q0=complex(*f), g_q0=complex(*g),
                                        renorm_exponent=renorm) for f, g in coeffs]
            cross = fl.covariance_form(specs[0], specs[1], params)
            out[f"{model}_s12"] = cross.s
            out[f"{model}_sigma12"] = cross.sigma
            out[f"{model}_s11"] = fl.covariance_form(specs[0], specs[0], params).s
            out[f"{model}_s22"] = fl.covariance_form(specs[1], specs[1], params).s
            if model == "wibg":
                out["wibg_distance"] = fl.equivalence_distance(specs[0], specs[1], params)
        return out

    def _word_item(self, word) -> list:
        return [_pair(self.bf.quasifree.wick_expectation(state, word))
                for state in self.states]

    def _variance_item(self, i: int) -> float:
        case = self.inputs["variances"][i]
        return self.bf.quasifree.finite_volume_variance(
            self.variance_states[i], case["kind"], case["q"])

    def gate_values(self) -> dict:
        """Independent routes the gates compare against; run once, untimed."""
        if self.workload == "qsweep":
            fl = self.bf.fluctuations
            out = {}
            for i in self.inputs["tight"]:
                q = self.inputs["q"][i]
                out[str(i)] = {
                    "S_full": fl.structure_factor(q, self.params["wibg"], "full",
                                                  rtol=TIGHT_RTOL),
                    "var_rho_imperfect": fl.variance_rho_imperfect(
                        q, self.params["imperfect_thermal"], rtol=TIGHT_RTOL),
                }
            return out
        if self.workload == "oracle":
            adjoint = {}
            for i, word in enumerate(self.words):
                states = self.states if i in self.inputs["adjoint_wibg"] else self.states[:1]
                adjoint[str(i)] = [_pair(self.bf.quasifree.wick_expectation(
                    state, word.reversed_dagger())) for state in states]
            return {"adjoint": adjoint}
        return {}


def _word(bf, tokens):
    return bf.quasifree.OperatorWord(tuple((tuple(mode), dagger) for mode, dagger in tokens))


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _guard(fn, arg):
    """Run one item; a raising item becomes a recorded failure."""
    try:
        return {"ok": fn(arg)}
    except Exception as exc:  # any library error counts in fail_ratio
        return {"error": f"{type(exc).__name__}: {exc}"}


# -- gates (run in run.py, outside the timed region) --------------------------


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def gate_qsweep(items: list, extra: dict, first: list | None) -> list:
    """Per item, the list of failed conditions (empty when it passes)."""
    failures = []
    for i, item in enumerate(items):
        if "error" in item:
            failures.append([item["error"]])
            continue
        out, bad = item["ok"], []
        positive = ["S_condensate", "S_full", "var_rho_imperfect", "var_rho0_wibg",
                    "var_A_wibg", "imperfect_s11", "imperfect_s22", "wibg_s11",
                    "wibg_s22", "wibg_distance"]
        bad += [f"{k} not finite" for k, v in out.items() if not math.isfinite(v)]
        bad += [f"{k} not positive" for k in positive if not out[k] > 0.0]
        if not out["S_full"] > out["S_condensate"]:
            bad.append("full structure factor not above its condensate part")
        for model in ("imperfect", "wibg"):
            s11, s22 = out[f"{model}_s11"], out[f"{model}_s22"]
            det = s11 * s22 - out[f"{model}_s12"] ** 2 - out[f"{model}_sigma12"] ** 2 / 4.0
            if det < -1e-9 * abs(s11 * s22):
                bad.append(f"{model} covariance violates Cauchy-Schwarz")
        for key, value in extra.get(str(i), {}).items():
            if not _close(out[key], value, TIGHT_AGREEMENT):
                bad.append(f"{key} differs from the rtol={TIGHT_RTOL:g} integral")
        if first is not None and "ok" in first[i]:
            bad += [f"{k} differs from the first pass" for k, v in out.items()
                    if not _close(v, first[i]["ok"][k], REPEAT_RTOL)]
        failures.append(bad)
    return failures


def gate_oracle(result: dict, extra: dict, first: dict | None) -> list:
    failures = []
    for i, item in enumerate(result["words"]):
        if "error" in item:
            failures.append([item["error"]])
            continue
        bad = []
        for j, (re, im) in enumerate(item["ok"]):
            if not (math.isfinite(re) and math.isfinite(im)):
                bad.append(f"state {j}: not finite")
            if extra and j < len(extra["adjoint"][str(i)]):
                adj_re, adj_im = extra["adjoint"][str(i)][j]
                scale = max(abs(complex(re, im)), abs(complex(adj_re, adj_im)), 1.0)
                if abs(complex(adj_re, adj_im) - complex(re, -im)) > ADJOINT_RTOL * scale:
                    bad.append(f"state {j}: <w*> != conj(<w>)")
        if first is not None and "ok" in first["words"][i] and not all(
                _close(a, b, REPEAT_RTOL) for a, b in zip(
                    sum(item["ok"], []), sum(first["words"][i]["ok"], []))):
            bad.append("differs from the first pass")
        failures.append(bad)
    for i, item in enumerate(result["variances"]):
        if "error" in item:
            failures.append([item["error"]])
            continue
        value, bad = item["ok"], []
        if not (math.isfinite(value) and value > 0.0):
            bad.append(f"variance {value!r} not real and positive")
        if first is not None and "ok" in first["variances"][i] \
                and not _close(value, first["variances"][i]["ok"], REPEAT_RTOL):
            bad.append("differs from the first pass")
        failures.append(bad)
    return failures


def gate_suite(exit_code: int, tables: Path, checks: list) -> list:
    """A check passes when its meta says so and its table matches the reference."""
    failures = []
    for name in checks:
        table, meta = tables / f"{name}.csv", tables / f"{name}.csv.meta"
        if not (table.is_file() and meta.is_file()):
            failures.append([f"no table (bosefluct run exited {exit_code})"])
            continue
        bad = []
        if "passed: True" not in meta.read_text().splitlines():
            bad.append("check did not pass")
        bad += compare_tables(table.read_text(), (REFERENCE_DIR / f"{name}.csv").read_text())
        failures.append(bad)
    return failures


def compare_tables(text: str, reference: str) -> list:
    """Cell-by-cell comparison: numbers within TABLE_RTOL/ATOL, words exactly."""
    rows, ref_rows = text.splitlines(), reference.splitlines()
    if len(rows) != len(ref_rows) or rows[:1] != ref_rows[:1]:
        return ["table shape or header differs from the reference"]
    bad = []
    for n, (row, ref) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        cells, ref_cells = row.split(","), ref.split(",")
        if len(cells) != len(ref_cells):
            bad.append(f"row {n}: cell count differs")
            continue
        for cell, ref_cell in zip(cells, ref_cells):
            try:
                a, b = float(cell), float(ref_cell)
            except ValueError:
                same = cell == ref_cell
            else:
                same = _close(a, b, TABLE_RTOL, TABLE_ATOL)
            if not same:
                bad.append(f"row {n}: {cell} vs reference {ref_cell}")
    return bad

