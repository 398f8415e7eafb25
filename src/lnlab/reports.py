"""Report emission: CSV rows with round-trippable numbers.

Column layouts are fixed per report kind:

    bounds   : check,placement,D,delta_t,gamma_max,beta_max,lhs,rhs,margin,seed
    moments  : layer,ma,var,frob,seed,placement,delta_t
    trials   : placement,weight_decay,seed,diverged,first_divergence_step,final_loss
    gradcheck: category,instance,d,n,heads,depth,rel_err,seed

Floats are serialized with 17 significant digits, so reading a file back
reproduces every value bit-exactly.
"""

from __future__ import annotations

from pathlib import Path

BOUNDS_COLUMNS = (
    "check", "placement", "D", "delta_t", "gamma_max", "beta_max",
    "lhs", "rhs", "margin", "seed",
)
MOMENTS_COLUMNS = ("layer", "ma", "var", "frob", "seed", "placement", "delta_t")
TRIALS_COLUMNS = (
    "placement", "weight_decay", "seed", "diverged", "first_divergence_step", "final_loss",
)
GRADCHECK_COLUMNS = ("category", "instance", "d", "n", "heads", "depth", "rel_err", "seed")


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_report(rows: list[dict], columns: tuple[str, ...], path) -> None:
    """Write homogeneous rows to ``path`` as CSV; missing keys are emitted as empty."""
    path = Path(path)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(row.get(c)) for c in columns))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _parse_cell(s: str):
    if s == "":
        return None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def read_report(path) -> list[dict]:
    """Read a CSV report back into row dicts.  A row whose cells do not match
    the header one for one raises ValueError naming the file and the line."""
    path = Path(path)
    raw = path.read_text().rstrip("\n")
    if not raw:
        return []
    lines = raw.split("\n")
    rows = []
    header = lines[0].split(",")
    for number, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"{path.name} line {number}: {len(cells)} cells under a header of {len(header)}"
            )
        rows.append({c: _parse_cell(cell) for c, cell in zip(header, cells)})
    return rows
