"""Output checks for the benchmark, independent of gup's own code.

Nothing here imports gup or the repository's tests.  Each check returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np

# gup's fit reads amplitude^2 in cm^2 and converts to m^2
CM2_TO_M2 = 1e-4


def york_line(x, y, sigma_x, sigma_y, slope0: float, max_iter: int = 500):
    """(intercept, slope) of the errors-in-variables straight line.

    York, Evensen, Martinez Lopez and De Basabe Delgado, Am. J. Phys. 72,
    367 (2004), section III with uncorrelated errors: iterate
    b = sum W beta V / sum W beta U from the starting slope until the
    slope changes by under 1e-13 relative (rounding alone can make the
    last bits cycle), four decades inside the 1e-9 the checks ask for.
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    wx, wy = 1.0 / np.asarray(sigma_x, float) ** 2, 1.0 / np.asarray(sigma_y, float) ** 2
    b = float(slope0)
    for _ in range(max_iter):
        w = wx * wy / (wx + b * b * wy)
        x_bar = np.sum(w * x) / np.sum(w)
        y_bar = np.sum(w * y) / np.sum(w)
        u, v = x - x_bar, y - y_bar
        beta = w * (u / wy + b * v / wx)
        b_next = float(np.sum(w * beta * v) / np.sum(w * beta * u))
        if abs(b_next - b) <= 1e-13 * abs(b_next):
            b = b_next
            break
        b = b_next
    else:
        raise ArithmeticError("York iteration did not converge")
    w = wx * wy / (wx + b * b * wy)
    intercept = float(np.sum(w * y) / np.sum(w) - b * np.sum(w * x) / np.sum(w))
    return intercept, b


def ordinary_slope(x, y) -> float:
    """Unweighted least-squares slope, York's starting value."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def agm_elliptic_k(k: float) -> float:
    """Complete elliptic integral K(k) = pi / (2 AGM(1, sqrt(1 - k^2)))."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    # quadratic convergence: a handful of steps reach rounding level, where
    # a and b may keep trading the last bit, so stop on a tolerance
    for _ in range(64):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def parse_dataset(text: str):
    """Columns of a timing CSV in SI units, sigmas None when absent."""
    lines = [line for line in text.splitlines() if line.strip()]
    rows = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
    x, y = rows[:, 0] * CM2_TO_M2, rows[:, 1]
    if rows.shape[1] == 4:
        return x, y, rows[:, 2] * CM2_TO_M2, rows[:, 3]
    return x, y, None, None


def check_fit(dataset_text: str, report: dict, sigma_x: float, sigma_y: float):
    """Fit JSON against York's solution of the same objective, at 1e-9."""
    x, y, sx, sy = parse_dataset(dataset_text)
    if sx is None:
        sx, sy = np.full(x.size, sigma_x), np.full(x.size, sigma_y)
    if report.get("n_points") != x.size:
        return f"n_points {report.get('n_points')} != {x.size} rows"
    intercept, slope = york_line(x, y, sx, sy, ordinary_slope(x, y))
    for key, reference in (("slope_s_per_m2", slope), ("intercept_s", intercept)):
        err = relative_error(report[key], reference)
        if not err <= 1e-9:
            return f"{key} off York by {err:.2e} relative"
    return None


def check_svg(svg_text: str):
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    if not root.tag.endswith("svg"):
        return f"SVG root element is {root.tag!r}"
    return None


def _printed_curves(stdout: str) -> dict:
    """label -> (B, N) from the exclusion command's summary lines."""
    found = {}
    for line in stdout.splitlines():
        if " style=" not in line or " B=" not in line:
            continue
        label = line.split(" style=")[0].strip()
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        found[label] = (float(fields["B"]), float(fields["N"]))
    return found


def check_exclusion(csv_text: str, stdout: str, points: int, registry: dict):
    """Boundary CSV: one row per grid point per plotted curve, on the line.

    Every row must satisfy alpha = (ln beta0 - ln B) / ln N to 1e-9
    (relative, or absolute where |alpha| < 1).  B and N come from the
    registry for entries that fix them; for entries derived at run time
    (the pendulum fit and the levitated sphere) they are recovered from
    the curve's end rows and must match the printed 4-digit summary.
    """
    plotted = [s for s in registry["scenarios"] if s.get("style", "solid") != "none"]
    lines = csv_text.splitlines()
    if lines[0] != "label,beta0,alpha_min,style":
        return f"unexpected CSV header {lines[0]!r}"
    curves: dict = {}
    for line in lines[1:]:
        label, beta0, alpha, style = line.rsplit(",", 3)
        curves.setdefault(label, []).append((float(beta0), float(alpha)))
    if sorted(curves) != sorted(s["label"] for s in plotted):
        return f"curves {sorted(curves)} do not match the plotted registry entries"
    grid = 10.0 ** np.linspace(-4.0, 8.0, points)
    printed = _printed_curves(stdout)
    for entry in plotted:
        rows = np.array(curves[entry["label"]])
        if rows.shape[0] != points:
            return f"{entry['label']}: {rows.shape[0]} rows for {points} grid points"
        if not np.all(np.abs(rows[:, 0] / grid - 1.0) <= 1e-11):
            return f"{entry['label']}: beta0 column is not the configured grid"
        log_b = np.log(rows[:, 0])
        fixed = entry["parameters"].get("ratio_upper")
        if fixed is not None and entry.get("n_particles") is not None:
            ln_b, ln_n = math.log(fixed), math.log(entry["n_particles"])
        else:
            inv_ln_n = (rows[-1, 1] - rows[0, 1]) / (log_b[-1] - log_b[0])
            ln_n = 1.0 / inv_ln_n
            ln_b = log_b[0] - rows[0, 1] * ln_n
            shown = printed.get(entry["label"])
            if shown is None:
                return f"{entry['label']}: no summary line printed"
            if (
                relative_error(math.exp(ln_b), shown[0]) > 1e-3
                or relative_error(math.exp(ln_n), shown[1]) > 1e-3
            ):
                return f"{entry['label']}: curve disagrees with printed B, N"
        expected = (log_b - ln_b) / ln_n
        err = np.abs(rows[:, 1] - expected) / np.maximum(np.abs(expected), 1.0)
        if not np.all(err <= 1e-9):
            return f"{entry['label']}: alpha off the line by {float(np.max(err)):.2e}"
    return None


def check_scenarios(stdout: str, registry: dict):
    lines = [line for line in stdout.splitlines() if line.strip()]
    labels = [s["label"] for s in registry["scenarios"]]
    if len(lines) != len(labels):
        return f"{len(lines)} lines for {len(labels)} registry entries"
    for line, label in zip(lines, labels):
        if not line.startswith(label) or " kind=" not in line:
            return f"line {line!r} does not list {label!r}"
    return None


def check_pendulum(beta0: float, phi: float, length: float, gravity: float, out: dict):
    """Trajectory period vs quadrature at 1e-6; AGM oracle at beta0 = 0."""
    values = (out["first_order"], out["exact"], out["linearized"], out["trajectory"])
    if not all(math.isfinite(v) for v in values):
        return "non-finite period"
    err = relative_error(out["trajectory"], out["exact"])
    if not err <= 1e-6:
        return f"trajectory period off quadrature by {err:.2e} (tol 1e-6)"
    if beta0 == 0.0:
        agm = 4.0 * math.sqrt(length / gravity) * agm_elliptic_k(math.sin(0.5 * phi))
        err = relative_error(out["exact"], agm)
        if not err <= 1e-10:
            return f"undeformed quadrature off AGM K by {err:.2e} (tol 1e-10)"
    # z stands in for z / (1 + z) under the integral, so it can only shorten
    if out["linearized"] > out["exact"] * (1.0 + 1e-12):
        return "linearized period exceeds the exact period"
    return None


def check_quantum(code: int, stdout: str, stderr: str):
    if code != 0:
        failing = [line[4:34].strip() for line in stdout.splitlines()
                   if line.startswith("FAIL")]
        return f"exit {code}: {', '.join(failing) or stderr.strip()[:200]}"
    passes = sum(1 for line in stdout.splitlines() if line.startswith("PASS"))
    if passes != 6 or "all quantum checks passed" not in stdout:
        return f"exit 0 but {passes} PASS lines"
    return None


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
