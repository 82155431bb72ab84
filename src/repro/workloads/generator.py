"""Parametric M1-style pattern primitives.

All generators return shapes (rects or rectilinear polygons) in nanometre
coordinates, ready to add to a :class:`~repro.geometry.layout.Layout`.
Dimensions default to 32 nm-node M1 scale: drawn widths of 60-90 nm,
spaces of 70+ nm, inside a 1024 x 1024 nm clip.
"""

from __future__ import annotations

from typing import List

from ..errors import GeometryError
from ..geometry.polygon import Polygon
from ..geometry.rect import Rect


def line_grating(
    x: float,
    y: float,
    num_lines: int,
    width: float = 60.0,
    pitch: float = 140.0,
    length: float = 600.0,
    vertical: bool = False,
) -> List[Rect]:
    """Array of parallel lines — the canonical dense pattern.

    Args:
        x, y: lower-left corner of the first line.
        num_lines: number of lines.
        width: line width.
        pitch: line-to-line pitch (must exceed width).
        length: line length.
        vertical: lines run vertically when True, horizontally otherwise.
    """
    if pitch <= width:
        raise GeometryError(f"pitch {pitch} must exceed width {width}")
    if num_lines < 1:
        raise GeometryError("need at least one line")
    lines = []
    for i in range(num_lines):
        if vertical:
            lines.append(Rect.from_size(x + i * pitch, y, width, length))
        else:
            lines.append(Rect.from_size(x, y + i * pitch, length, width))
    return lines


def isolated_line(
    x: float, y: float, width: float = 70.0, length: float = 500.0, vertical: bool = False
) -> Rect:
    """A single line with no neighbours (worst case for process window)."""
    if vertical:
        return Rect.from_size(x, y, width, length)
    return Rect.from_size(x, y, length, width)


def l_shape(
    x: float, y: float, arm: float = 300.0, width: float = 70.0
) -> Polygon:
    """L-shaped wire: horizontal arm then vertical arm, both ``arm`` long."""
    if arm <= width:
        raise GeometryError(f"arm {arm} must exceed width {width}")
    return Polygon(
        [
            (x, y),
            (x + arm, y),
            (x + arm, y + arm),
            (x + arm - width, y + arm),
            (x + arm - width, y + width),
            (x, y + width),
        ]
    )


def t_shape(
    x: float, y: float, bar: float = 400.0, stem: float = 260.0, width: float = 70.0
) -> Polygon:
    """T-shaped wire: horizontal bar with a centred stem rising from it."""
    if bar <= width or stem <= 0:
        raise GeometryError("bar must exceed width and stem must be positive")
    cx = x + bar / 2.0
    return Polygon(
        [
            (x, y),
            (x + bar, y),
            (x + bar, y + width),
            (cx + width / 2.0, y + width),
            (cx + width / 2.0, y + width + stem),
            (cx - width / 2.0, y + width + stem),
            (cx - width / 2.0, y + width),
            (x, y + width),
        ]
    )


def u_shape(
    x: float, y: float, span: float = 360.0, height: float = 300.0, width: float = 70.0
) -> Polygon:
    """U-shaped wire: two vertical legs joined by a bottom bar."""
    if span <= 2 * width or height <= width:
        raise GeometryError("span must exceed 2*width and height must exceed width")
    return Polygon(
        [
            (x, y),
            (x + span, y),
            (x + span, y + height),
            (x + span - width, y + height),
            (x + span - width, y + width),
            (x + width, y + width),
            (x + width, y + height),
            (x, y + height),
        ]
    )


def jog_line(
    x: float,
    y: float,
    length: float = 600.0,
    width: float = 70.0,
    jog_offset: float = 100.0,
    jog_at: float = 0.5,
) -> Polygon:
    """Horizontal line with a vertical jog partway along (hard to print).

    Args:
        x, y: lower-left of the first segment.
        length: total horizontal extent.
        width: wire width.
        jog_offset: vertical displacement of the second segment.
        jog_at: fractional position of the jog along the length.
    """
    if not 0.1 <= jog_at <= 0.9:
        raise GeometryError("jog_at must be in [0.1, 0.9]")
    if jog_offset <= 0:
        raise GeometryError("jog_offset must be positive (use the mirror for down-jogs)")
    xj = x + length * jog_at
    return Polygon(
        [
            (x, y),
            (xj + width, y),
            (xj + width, y + jog_offset),
            (x + length, y + jog_offset),
            (x + length, y + jog_offset + width),
            (xj, y + jog_offset + width),
            (xj, y + width),
            (x, y + width),
        ]
    )


def contact_array(
    x: float,
    y: float,
    nx: int,
    ny: int,
    size: float = 80.0,
    pitch: float = 180.0,
) -> List[Rect]:
    """Grid of square contact-like features."""
    if nx < 1 or ny < 1:
        raise GeometryError("need at least a 1x1 array")
    if pitch <= size:
        raise GeometryError(f"pitch {pitch} must exceed size {size}")
    return [
        Rect.from_size(x + i * pitch, y + j * pitch, size, size)
        for i in range(nx)
        for j in range(ny)
    ]


def tip_to_tip(
    x: float,
    y: float,
    gap: float = 90.0,
    width: float = 70.0,
    length: float = 300.0,
) -> List[Rect]:
    """Two collinear lines facing each other across a small gap.

    The tip-to-tip (T2T) configuration is the classic line-end failure
    mode: diffraction pulls both line ends back, widening the printed
    gap far beyond drawn — the pattern OPC line-end treatment exists
    for.

    Args:
        x, y: lower-left of the left line.
        gap: drawn end-to-end space.
        width: line width.
        length: each line's length.
    """
    if gap <= 0:
        raise GeometryError("gap must be positive")
    left = Rect.from_size(x, y, length, width)
    right = Rect.from_size(x + length + gap, y, length, width)
    return [left, right]


def dense_via_field(
    x: float,
    y: float,
    nx: int,
    ny: int,
    size: float = 70.0,
    pitch: float = 140.0,
) -> List[Rect]:
    """Tightly pitched square array (denser than :func:`contact_array`).

    At pitches near the resolution limit the squares interact strongly;
    good for stressing the PV-band term.
    """
    if pitch <= size:
        raise GeometryError(f"pitch {pitch} must exceed size {size}")
    if nx < 2 or ny < 2:
        raise GeometryError("a dense field needs at least 2x2 sites")
    return [
        Rect.from_size(x + i * pitch, y + j * pitch, size, size)
        for i in range(nx)
        for j in range(ny)
    ]


def comb_structure(
    x: float,
    y: float,
    num_fingers: int = 4,
    finger_length: float = 300.0,
    finger_width: float = 70.0,
    finger_pitch: float = 160.0,
    spine_width: float = 80.0,
) -> Polygon:
    """Comb: a vertical spine with horizontal fingers (line-end rich)."""
    if num_fingers < 2:
        raise GeometryError("a comb needs at least two fingers")
    if finger_pitch <= finger_width:
        raise GeometryError("finger pitch must exceed finger width")
    # Trace the outline counter-clockwise starting at the spine's lower left.
    height = (num_fingers - 1) * finger_pitch + finger_width
    pts = [(x, y), (x + spine_width, y)]
    for i in range(num_fingers):
        fy = y + i * finger_pitch
        pts.extend(
            [
                (x + spine_width, fy),
                (x + spine_width + finger_length, fy),
                (x + spine_width + finger_length, fy + finger_width),
                (x + spine_width, fy + finger_width),
            ]
        )
    pts.extend([(x + spine_width, y + height), (x, y + height)])
    return Polygon(pts)


#: Smallest synthetic-canvas cell (the primitives are sized for it); a
#: canvas must fit at least one.
MIN_CELL_NM = 1024.0


def synthetic_canvas(
    width_nm: float,
    height_nm: float,
    seed: int = 0,
    cell_nm: float = MIN_CELL_NM,
    margin_nm: float = 112.0,
    name: "str | None" = None,
):
    """Large synthetic canvas: one primitive per cell of a regular grid.

    The full-chip engine needs layouts bigger than the single 1024 nm
    contest clip.  This tiles the canvas into ``cell_nm`` cells and
    drops a seeded choice of the M1 primitives into each, keeping a
    ``margin_nm`` guard band so neighbouring cells never merge.  The
    result is a pure function of the arguments — the same canvas spec
    always produces the same layout.

    Args:
        width_nm, height_nm: canvas extent; must fit at least one cell.
        seed: RNG seed for the per-cell primitive choice.
        cell_nm: cell pitch (primitives are scaled for >= 1024 nm cells).
        margin_nm: guard band inside each cell.
        name: layout name (default ``synth<W>x<H>s<seed>``).

    Returns:
        :class:`~repro.geometry.layout.Layout` with clip
        ``Rect(0, 0, width_nm, height_nm)``.
    """
    from ..geometry.layout import Layout  # local: keep generator import-light

    import numpy as np

    if cell_nm < MIN_CELL_NM:
        raise GeometryError(f"cells must be >= {MIN_CELL_NM:g} nm, got {cell_nm}")
    if width_nm < cell_nm or height_nm < cell_nm:
        raise GeometryError(
            f"canvas {width_nm}x{height_nm} nm must fit one {cell_nm} nm cell"
        )
    if not 0 < margin_nm < cell_nm / 4:
        raise GeometryError(f"margin {margin_nm} must be in (0, {cell_nm / 4})")
    rng = np.random.default_rng(seed)
    if name is None:
        name = f"synth{width_nm:g}x{height_nm:g}s{seed}"
    layout = Layout(name, clip=Rect(0, 0, width_nm, height_nm))

    def place(kind: int, x: float, y: float) -> None:
        if kind == 0:
            for shape in line_grating(x, y, num_lines=3, length=600.0):
                layout.add(shape)
        elif kind == 1:
            for shape in line_grating(x, y, num_lines=3, length=600.0, vertical=True):
                layout.add(shape)
        elif kind == 2:
            layout.add(l_shape(x, y))
        elif kind == 3:
            layout.add(t_shape(x, y))
        elif kind == 4:
            layout.add(u_shape(x, y))
        elif kind == 5:
            layout.add(jog_line(x, y))
        elif kind == 6:
            for shape in contact_array(x, y, nx=3, ny=3):
                layout.add(shape)
        elif kind == 7:
            for shape in tip_to_tip(x, y):
                layout.add(shape)
        else:
            layout.add(comb_structure(x, y))

    num_cols = int(width_nm // cell_nm)
    num_rows = int(height_nm // cell_nm)
    for row in range(num_rows):
        for col in range(num_cols):
            kind = int(rng.integers(0, 9))
            # Jitter inside the guard band so seams don't align with
            # geometry-free gutters — keeps tile seam checks honest.
            jx = float(rng.uniform(0.0, margin_nm / 2))
            jy = float(rng.uniform(0.0, margin_nm / 2))
            place(kind, col * cell_nm + margin_nm + jx, row * cell_nm + margin_nm + jy)
    return layout
