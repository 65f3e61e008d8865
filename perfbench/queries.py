"""Seeded query texts for the four workloads.

Every generator takes the built workforce (for member names) and a
``random.Random`` seeded from ``--seed``; the same seed yields the same
texts.  Only the *contents* are seeded (months, members, accounts):
each workload's mix of query classes, their semantics and their
perspective counts are fixed, so the shape of its latency distribution
does not depend on the seed.
"""

from __future__ import annotations

from itertools import count

from common import MONTHS, grid_of

__all__ = [
    "SEMANTICS",
    "MODES",
    "cold_stream",
    "http_first_seen",
    "http_repeats",
    "mixed_read",
    "sub_grid",
    "warm_texts",
    "write_batch",
]

SEMANTICS = (
    "STATIC",
    "DYNAMIC FORWARD",
    "DYNAMIC EXTENDED FORWARD",
    "DYNAMIC BACKWARD",
    "DYNAMIC EXTENDED BACKWARD",
)
MODES = ("NON_VISUAL", "VISUAL")
#: semantics of cold_scenarios' chained CHANGES + PERSPECTIVE queries, the
#: slowest class: two per cycle put the cycle's p90 inside that class
#: rather than on the edge between it and the plain visual perspectives
CHAINED = ("STATIC", "DYNAMIC FORWARD")
CUBE = "[App].[Db]"
VERSION = "[Current], [Local], [BU Version_1], [HSP_InputValue]"


def _slicer(account: str) -> str:
    return f"WHERE ([{account}], {VERSION})"


def _moments(months) -> str:
    return ", ".join(f"({m})" for m in sorted(months, key=MONTHS.index))


def _perspective(months, semantics: str, mode: str) -> str:
    return (
        f"WITH PERSPECTIVE {{{_moments(months)}}} FOR Department "
        f"{semantics} {mode}\n"
    )


# -- warm_grid ----------------------------------------------------------------


def warm_texts(workforce, rng) -> list[dict]:
    """The fixed warm fingerprints, each with a 2-cell sub-grid for the
    naive oracle.

    Three department×account×period grids (no scenario, a non-visual and
    a visual perspective) and Fig. 10(b) verbatim: named-set instance
    expansion crossed with ``Descendants`` and ``DIMENSION PROPERTIES``.
    """
    months = rng.sample(MONTHS, 2)
    big_rows = "{CrossJoin({Department.Children}, {Account.Members})}"
    big = (
        f"SELECT {{Period.Members}} ON COLUMNS,\n       {big_rows} ON ROWS\n"
        f"FROM {CUBE}\nWHERE ({VERSION})"
    )
    dept = rng.choice(workforce.departments)
    account = rng.choice(workforce.accounts)
    big_sub = (
        f"SELECT {{Period.[Q2], Period.[{rng.choice(MONTHS)}]}} ON COLUMNS,\n"
        f"       {{CrossJoin({{Department.[{dept}]}}, {{[{account}]}})}} ON ROWS\n"
        f"FROM {CUBE}\nWHERE ({VERSION})"
    )
    nv = _perspective(months, "DYNAMIC FORWARD", "NON_VISUAL")
    vis = _perspective(rng.sample(MONTHS, 2), "DYNAMIC BACKWARD", "VISUAL")
    # Fig. 10(b) verbatim: EmployeeS3's instances x Descendants(Period)
    fig10 = _perspective(("Jan", "Apr", "Jul", "Oct"), "DYNAMIC FORWARD", "NON_VISUAL")
    columns = f"{{CrossJoin({{[Account].Levels(0).Members}}, {{({VERSION})}})}}"
    fig10b = (
        f"{fig10}SELECT {columns} ON COLUMNS,\n"
        "       {CrossJoin({EmployeeS3}, {Descendants([Period],1,self_and_after)})}\n"
        f"       DIMENSION PROPERTIES [Department] ON ROWS\nFROM {CUBE}"
    )
    s3 = workforce.warehouse.named_set("EmployeeS3").members[0]
    fig10b_sub = (
        f"{fig10}SELECT {{CrossJoin({{[{account}]}}, {{({VERSION})}})}} ON COLUMNS,\n"
        f"       {{CrossJoin({{[{s3}]}}, {{Period.[Q{rng.randint(1, 4)}]}})}} ON ROWS\n"
        f"FROM {CUBE}"
    )
    return [
        {"name": "grid", "text": big, "sub": big_sub},
        {"name": "grid_nonvisual", "text": nv + big, "sub": nv + big_sub},
        {"name": "grid_visual", "text": vis + big, "sub": vis + big_sub},
        {"name": "fig10b", "text": fig10b, "sub": fig10b_sub},
    ]


# -- cold_scenarios -----------------------------------------------------------


def _cold_grid(workforce, rng) -> str:
    """Two derived cells (a department by two months) plus the leaf cells
    of two changing employees' instances."""
    dept = rng.choice(workforce.departments)
    movers = rng.sample(workforce.changing_employees, 2)
    m1, m2 = sorted(rng.sample(MONTHS, 2), key=MONTHS.index)
    rows = ", ".join([f"Department.[{dept}]"] + [f"[{e}]" for e in movers])
    return (
        f"SELECT {{Period.[{m1}], Period.[{m2}]}} ON COLUMNS,\n"
        f"       {{{rows}}} ON ROWS\nFROM {CUBE}\n"
        f"{_slicer(rng.choice(workforce.accounts))}"
    )


def _changes(workforce, rng, mode: str) -> str:
    """A hypothetical move of one changing employee at a seeded month."""
    member = rng.choice(workforce.changing_employees)
    month = rng.choice(MONTHS[1:])
    old = workforce.employee_varying.instance_at(member, month).path[-2]
    new = rng.choice([d for d in workforce.departments if d != old])
    return (
        f"WITH CHANGES {{([{member}], [{old}], [{new}], [{month}])}} "
        f"FOR Department {mode}\n"
    )


def cold_stream(workforce, rng):
    """Endless cycles of first-seen fingerprints.

    One cycle is the ten semantics × mode perspectives (1–12 moments,
    Fig. 11's axis), one ``WITH CHANGES`` and two chained CHANGES +
    PERSPECTIVE queries, in a fixed order that alternates the modes (so the
    cache holds the same mix of entries in every run).  The moment count
    of each class in each cycle is fixed too; the seed picks the months.
    Yields ``(cycle, class_name, moments, text)``; no fingerprint repeats.
    """
    seen: set = set()
    classes = [(s, m) for s in SEMANTICS for m in MODES]
    for cycle in count():
        for position, (semantics, mode) in enumerate(classes):
            k = (position + 5 * cycle) % len(MONTHS) + 1
            # k = 12 has one month set, so after a dozen cycles a set may
            # recur; by then the bounded cache has long evicted it
            for _ in range(100):
                months = tuple(sorted(rng.sample(MONTHS, k), key=MONTHS.index))
                key = (semantics, mode, months)
                if key not in seen:
                    break
            seen.add(key)
            yield (
                cycle,
                f"{semantics}/{mode}",
                k,
                _perspective(months, semantics, mode) + _cold_grid(workforce, rng),
            )
        while True:
            changes = _changes(workforce, rng, "NON_VISUAL")
            if changes not in seen:
                seen.add(changes)
                break
        yield cycle, "CHANGES/NON_VISUAL", 0, changes + _cold_grid(workforce, rng)
        for semantics in CHAINED:
            while True:
                chained = _changes(workforce, rng, "VISUAL")
                months = tuple(sorted(rng.sample(MONTHS, 2), key=MONTHS.index))
                if (chained, months) not in seen:
                    seen.add((chained, months))
                    break
            yield (
                cycle,
                f"CHANGES+{semantics}/VISUAL",
                2,
                chained
                + _perspective(months, semantics, "VISUAL")[len("WITH ") :]
                + _cold_grid(workforce, rng),
            )


# -- mixed_writes -------------------------------------------------------------


def mixed_read(workforce, rng) -> dict:
    """The read: one non-visual perspective over a department×period
    grid, with a 2-cell sub-grid.  One fingerprint, so after a write both
    clients usually miss on it together."""
    account = rng.choice(workforce.accounts)
    clause = _perspective(rng.sample(MONTHS, 2), "DYNAMIC FORWARD", "NON_VISUAL")
    grid = (
        f"{clause}SELECT {{Period.Members}} ON COLUMNS,\n"
        f"       {{Department.Children}} ON ROWS\nFROM {CUBE}\n{_slicer(account)}"
    )
    sub = (
        f"{clause}SELECT {{Period.[Q3], Period.[{rng.choice(MONTHS)}]}} ON COLUMNS,\n"
        f"       {{Department.[{rng.choice(workforce.departments)}]}} ON ROWS\n"
        f"FROM {CUBE}\n{_slicer(account)}"
    )
    return {"text": grid, "sub": sub}


def write_batch(workforce, leaves, rng, size: int) -> list:
    """``size`` leaf updates, half on changing employees' instances."""
    changing, stable = leaves
    picks = rng.sample(changing, size // 2) + rng.sample(stable, size - size // 2)
    return [(addr, round(50 + 50 * rng.random(), 2)) for addr in picks]


# -- http_serve ---------------------------------------------------------------


def _http_grid(workforce, rng) -> str:
    """Six employees, each from a different department, by the four
    quarters: one member per cell, so a shard owns every cell, and the
    rows spread over both shards, so a first-seen text is applied on both
    in parallel."""
    member = workforce.schema.dimension("Department").member
    rows = ", ".join(
        f"[{rng.choice(member(dept).children).name}]"
        for dept in rng.sample(workforce.departments, 6)
    )
    return (
        "SELECT {Period.[Q1], Period.[Q2], Period.[Q3], Period.[Q4]} ON COLUMNS,\n"
        f"       {{{rows}}} ON ROWS\nFROM {CUBE}\n"
        f"{_slicer(rng.choice(workforce.accounts))}"
    )


def http_repeats(workforce, rng, n: int) -> list[str]:
    """The repeat fingerprints: ``n`` non-visual perspectives, one per
    semantics in a fixed order."""
    return [
        _perspective(rng.sample(MONTHS, 2), semantics, "NON_VISUAL")
        + _http_grid(workforce, rng)
        for semantics in SEMANTICS[:n]
    ]


def http_first_seen(workforce, rng):
    """Endless first-seen non-visual perspectives (3 moments each)."""
    seen: set = set()
    for i in count():
        semantics = SEMANTICS[i % len(SEMANTICS)]
        while True:
            months = tuple(sorted(rng.sample(MONTHS, 3), key=MONTHS.index))
            if (semantics, months) not in seen:
                seen.add((semantics, months))
                break
        yield _perspective(months, semantics, "NON_VISUAL") + _http_grid(workforce, rng)


def sub_grid(text_cells, text_result, sub_result) -> "str | None":
    """Check a sub-grid against the big grid it was cut from: every
    sub-grid cell must equal the big-grid cell at the same coordinates.
    Returns a mismatch description or ``None``."""
    sub_cells = grid_of(sub_result.cells)
    row_at = {row.coordinates: i for i, row in enumerate(text_result.rows)}
    col_at = {col.coordinates: j for j, col in enumerate(text_result.columns)}
    for i, row in enumerate(sub_result.rows):
        for j, col in enumerate(sub_result.columns):
            if row.coordinates not in row_at or col.coordinates not in col_at:
                return f"sub-grid cell {row.coordinates} x {col.coordinates} not in grid"
            big = text_cells[row_at[row.coordinates]][col_at[col.coordinates]]
            small = sub_cells[i][j]
            if big != small:
                return f"{row.coordinates} x {col.coordinates}: {big!r} != {small!r}"
    return None
